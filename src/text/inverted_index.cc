#include "text/inverted_index.h"

#include <algorithm>
#include <cstring>

#include "common/gallop.h"

namespace precis {

namespace {

// Shared empty result for misses: Lookup never returns null, and callers
// that hold many unknown-token results all point at this one vector.
const OccurrenceList& EmptyOccurrences() {
  static const OccurrenceList empty =
      std::make_shared<const std::vector<TokenOccurrence>>();
  return empty;
}

// Cache key: the word-id sequence as raw bytes. Fixed-width ids make the
// encoding unambiguous, and building it does no string joins or re-hashing
// of word bytes.
std::string CacheKey(const std::vector<SymbolId>& words) {
  std::string key(words.size() * sizeof(SymbolId), '\0');
  std::memcpy(key.data(), words.data(), key.size());
  return key;
}

}  // namespace

Result<InvertedIndex> InvertedIndex::Build(const Database& db) {
  InvertedIndex index;
  index.db_ = &db;
  index.relation_names_ = db.RelationNames();
  for (uint32_t r = 0; r < index.relation_names_.size(); ++r) {
    auto rel = db.GetRelation(index.relation_names_[r]);
    if (!rel.ok()) return rel.status();
    const RelationSchema& schema = (*rel)->schema();
    for (uint32_t a = 0; a < schema.num_attributes(); ++a) {
      if (schema.attribute(a).type != DataType::kString) continue;
      for (Tid tid = 0; tid < (*rel)->num_tuples(); ++tid) {
        const Value v = (*rel)->ColumnValue(tid, a);
        if (v.is_null()) continue;
        std::vector<SymbolId> words = TokenizeWordSymbols(v.AsString());
        // De-duplicate words within one value so each location appears at
        // most once in a word's posting list.
        std::sort(words.begin(), words.end());
        words.erase(std::unique(words.begin(), words.end()), words.end());
        for (SymbolId w : words) {
          index.postings_[w].push_back(Location{r, a, tid});
        }
      }
    }
  }
  for (auto& [word, locs] : index.postings_) {
    std::sort(locs.begin(), locs.end());
  }
  return index;
}

size_t InvertedIndex::num_postings() const {
  size_t n = 0;
  for (const auto& [word, locs] : postings_) n += locs.size();
  return n;
}

bool InvertedIndex::ContainsPhrase(const Location& loc,
                                   const std::vector<SymbolId>& words) const {
  auto rel = db_->GetRelation(relation_names_[loc.relation]);
  if (!rel.ok()) return false;
  const Value v = (*rel)->ColumnValue(loc.tid, loc.attribute);
  if (!v.is_string()) return false;
  return precis::ContainsPhraseSymbols(v.AsString(), words);
}

size_t EstimateOccurrencesCharge(const std::vector<TokenOccurrence>& occs) {
  size_t charge = sizeof(std::vector<TokenOccurrence>);
  for (const TokenOccurrence& occ : occs) {
    charge += sizeof(TokenOccurrence) + occ.relation.capacity() +
              occ.attribute.capacity() + occ.tids.capacity() * sizeof(Tid);
  }
  return charge;
}

OccurrenceList InvertedIndex::Lookup(const std::string& token) const {
  std::vector<SymbolId> words = TokenizeWordSymbols(token);
  if (words.empty()) return EmptyOccurrences();
  // Multi-word phrases go through the token-occurrence cache when enabled:
  // they pay posting-list intersection plus per-candidate phrase
  // verification (a re-scan of the stored string), which repeated popular
  // queries should not redo. The postings are immutable after Build, so a
  // cached result can never be stale with respect to this index.
  if (words.size() >= 2 &&
      cache_->enabled.load(std::memory_order_relaxed)) {
    std::string key = CacheKey(words);
    if (OccurrenceList hit = cache_->lru.Get(key)) {
      return hit;  // shared, immutable — no deep copy on the hit path
    }
    auto value = std::make_shared<const std::vector<TokenOccurrence>>(
        LookupUncached(words));
    cache_->lru.Put(key, value, EstimateOccurrencesCharge(*value));
    return value;
  }
  return std::make_shared<const std::vector<TokenOccurrence>>(
      LookupUncached(words));
}

std::vector<TokenOccurrence> InvertedIndex::LookupUncached(
    const std::vector<SymbolId>& words) const {
  std::vector<TokenOccurrence> out;

  // Intersect the word posting lists; start from the rarest word.
  if (words.empty()) return out;
  const std::vector<Location>* smallest = nullptr;
  for (SymbolId w : words) {
    auto it = postings_.find(w);
    if (it == postings_.end()) return out;  // some word absent: no matches
    if (smallest == nullptr || it->second.size() < smallest->size()) {
      smallest = &it->second;
    }
  }

  // One galloping cursor per word. The driver list (`smallest`) is sorted,
  // so probe values ascend and each cursor sweeps its posting list at most
  // once for the whole intersection instead of binary-searching from
  // scratch per candidate (common/gallop.h). Duplicate query words get
  // independent cursors over the same list, which is harmless.
  std::vector<GallopCursor<Location>> cursors;
  cursors.reserve(words.size());
  for (SymbolId w : words) cursors.emplace_back(&postings_.at(w));

  std::vector<Location> candidates;
  for (const Location& loc : *smallest) {
    bool in_all = true;
    for (GallopCursor<Location>& cursor : cursors) {
      if (!cursor.Contains(loc)) {
        in_all = false;
        break;
      }
    }
    if (in_all && (words.size() == 1 || ContainsPhrase(loc, words))) {
      candidates.push_back(loc);
    }
  }

  // Group by (relation, attribute); candidates are already sorted.
  for (const Location& loc : candidates) {
    auto rel = db_->GetRelation(relation_names_[loc.relation]);
    const std::string& attr =
        (*rel)->schema().attribute(loc.attribute).name;
    if (!out.empty() && out.back().relation == relation_names_[loc.relation] &&
        out.back().attribute == attr) {
      out.back().tids.push_back(loc.tid);
    } else {
      out.push_back(TokenOccurrence{relation_names_[loc.relation], attr,
                                    {loc.tid}});
    }
  }
  return out;
}

std::vector<OccurrenceList> InvertedIndex::LookupAll(
    const std::vector<std::string>& query) const {
  std::vector<OccurrenceList> out;
  out.reserve(query.size());
  for (const std::string& token : query) out.push_back(Lookup(token));
  return out;
}

}  // namespace precis
