#include "text/inverted_index.h"

#include <algorithm>
#include <cstring>
#include <optional>

#include "common/gallop.h"
#include "common/string_util.h"

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
  // Each word's groups as the scan builds them, published as shared lists
  // once the scan is done.
  struct WordBuild {
    std::vector<TokenOccurrence> occurrences;
    std::vector<WordPostings::Run> runs;
  };
  std::unordered_map<SymbolId, WordBuild> building;
  // Tid runs opened during the current attribute's scan.
  std::vector<std::vector<Tid>*> open_runs;
  const std::vector<std::string> names = db.RelationNames();
  for (uint32_t r = 0; r < names.size(); ++r) {
    auto rel = db.GetRelation(names[r]);
    if (!rel.ok()) return rel.status();
    index.relations_.push_back(*rel);
    const RelationSchema& schema = (*rel)->schema();
    for (uint32_t a = 0; a < schema.num_attributes(); ++a) {
      if (schema.attribute(a).type != DataType::kString) continue;
      // The scan runs in (relation name, attribute, tid) order, so every
      // word's groups come out in lookup order with ascending tids.
      for (Tid tid = 0; tid < (*rel)->num_tuples(); ++tid) {
        const Value v = (*rel)->ColumnValue(tid, a);
        if (v.is_null()) continue;
        for (SymbolId w : TokenizeWordSymbols(v.AsString())) {
          WordBuild& word = building[w];
          if (word.runs.empty() || word.runs.back().relation != r ||
              word.runs.back().attribute != a) {
            word.runs.push_back({r, a});
            word.occurrences.push_back(
                TokenOccurrence{names[r], schema.attribute(a).name, {}});
            open_runs.push_back(&word.occurrences.back().tids);
          }
          std::vector<Tid>& tids = word.occurrences.back().tids;
          // A word repeated within one value is posted once.
          if (!tids.empty() && tids.back() == tid) continue;
          tids.push_back(tid);
          ++index.num_postings_;
        }
      }
      // A word gains at most one run per attribute, so these pointers are
      // still valid; trimming here bounds the growth slack to one
      // attribute's postings.
      for (std::vector<Tid>* tids : open_runs) tids->shrink_to_fit();
      open_runs.clear();
    }
  }
  index.postings_.reserve(building.size());
  for (auto& [w, word] : building) {
    for (const TokenOccurrence& occ : word.occurrences) {
      index.posting_bytes_ += occ.tids.capacity() * sizeof(Tid);
    }
    index.postings_.emplace(
        w, WordPostings{std::make_shared<const std::vector<TokenOccurrence>>(
                            std::move(word.occurrences)),
                        std::move(word.runs)});
  }
  return index;
}

size_t EstimateOccurrencesCharge(const std::vector<TokenOccurrence>& occs) {
  size_t charge = sizeof(std::vector<TokenOccurrence>);
  for (const TokenOccurrence& occ : occs) {
    charge += sizeof(TokenOccurrence) + StringHeapBytes(occ.relation) +
              StringHeapBytes(occ.attribute) +
              occ.tids.capacity() * sizeof(Tid);
  }
  return charge;
}

OccurrenceList InvertedIndex::Lookup(const std::string& token) const {
  // Resolve the words without interning: a word the SymbolTable has never
  // seen occurs in no indexed value, and interning it would grow the
  // process-wide table with every novel query.
  std::vector<SymbolId> words;
  for (const std::string& word : TokenizeWords(token)) {
    std::optional<SymbolId> id = SymbolTable::Global()->Find(word);
    if (!id) return EmptyOccurrences();
    words.push_back(*id);
  }
  if (words.empty()) return EmptyOccurrences();
  if (words.size() == 1) {
    auto it = postings_.find(words[0]);
    return it == postings_.end() ? EmptyOccurrences() : it->second.occurrences;
  }
  // Phrases go through the token-occurrence cache when enabled: they pay
  // run intersection plus per-candidate phrase verification (a re-scan of
  // the stored string), which repeated popular queries should not redo.
  // The postings are immutable after Build, so a cached result can never
  // be stale with respect to this index.
  if (!cache_->enabled.load(std::memory_order_relaxed)) {
    return std::make_shared<const std::vector<TokenOccurrence>>(
        LookupPhrase(words));
  }
  std::string key = CacheKey(words);
  if (OccurrenceList hit = cache_->lru.Get(key)) {
    return hit;  // shared, immutable — no deep copy on the hit path
  }
  auto value =
      std::make_shared<const std::vector<TokenOccurrence>>(LookupPhrase(words));
  cache_->lru.Put(key, value, EstimateOccurrencesCharge(*value));
  return value;
}

std::vector<TokenOccurrence> InvertedIndex::LookupPhrase(
    const std::vector<SymbolId>& words) const {
  std::vector<TokenOccurrence> out;
  std::vector<const WordPostings*> postings;
  postings.reserve(words.size());
  for (SymbolId w : words) {
    auto it = postings_.find(w);
    if (it == postings_.end()) return out;  // some word absent: no matches
    postings.push_back(&it->second);
  }

  // Drive the intersection from the rarest word's runs.
  auto count = [](const WordPostings* word) {
    size_t n = 0;
    for (const TokenOccurrence& occ : *word->occurrences) n += occ.tids.size();
    return n;
  };
  const WordPostings* driver = *std::min_element(
      postings.begin(), postings.end(),
      [&](const WordPostings* a, const WordPostings* b) {
        return count(a) < count(b);
      });

  // Every word's runs ascend in (relation, attribute) order, so one
  // forward cursor per word finds each of the driver's runs in it.
  std::vector<size_t> run_at(postings.size(), 0);
  std::vector<GallopCursor<Tid>> cursors;
  for (size_t d = 0; d < driver->runs.size(); ++d) {
    const WordPostings::Run run = driver->runs[d];
    cursors.clear();
    bool in_all = true;
    for (size_t i = 0; i < postings.size() && in_all; ++i) {
      if (postings[i] == driver) continue;
      const std::vector<WordPostings::Run>& runs = postings[i]->runs;
      size_t& at = run_at[i];
      while (at < runs.size() && runs[at] < run) ++at;
      in_all = at < runs.size() && runs[at] == run;
      if (in_all) cursors.emplace_back(&(*postings[i]->occurrences)[at].tids);
    }
    if (!in_all) continue;

    // Gallop-intersect the runs — the driver's tids ascend, so each cursor
    // sweeps its run at most once (common/gallop.h) — and verify the
    // survivors as a contiguous phrase in the stored value.
    const TokenOccurrence& driven = (*driver->occurrences)[d];
    const Relation* rel = relations_[run.relation];
    std::vector<Tid> tids;
    for (Tid tid : driven.tids) {
      bool everywhere = true;
      for (GallopCursor<Tid>& cursor : cursors) {
        if (!cursor.Contains(tid)) {
          everywhere = false;
          break;
        }
      }
      if (!everywhere) continue;
      const Value v = rel->ColumnValue(tid, run.attribute);
      if (v.is_string() && ContainsPhraseSymbols(v.AsString(), words)) {
        tids.push_back(tid);
      }
    }
    if (!tids.empty()) {
      out.push_back(
          TokenOccurrence{driven.relation, driven.attribute, std::move(tids)});
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
