// Inverted index: token -> {(relation, attribute, tids)} (paper §4).
//
// "An inverted index associates each token that appears in the database with
//  a list of occurrences of the token. Each occurrence is recorded as an
//  attribute-relation pair (Rj, Alj). For each such pair, the list Tids_lj of
//  ids of tuples from Rj in which Alj includes the token, is also returned."

#ifndef PRECIS_TEXT_INVERTED_INDEX_H_
#define PRECIS_TEXT_INVERTED_INDEX_H_

#include <atomic>
#include <compare>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/lru_cache.h"
#include "common/result.h"
#include "common/status.h"
#include "common/symbol_table.h"
#include "storage/database.h"
#include "text/tokenizer.h"

namespace precis {

/// \brief All tuples of one relation-attribute pair that include a token.
struct TokenOccurrence {
  std::string relation;
  std::string attribute;
  std::vector<Tid> tids;
};

/// \brief A shared, immutable lookup result. Cache hits and misses return
/// the same shared vector instead of deep-copying occurrences per call.
using OccurrenceList = std::shared_ptr<const std::vector<TokenOccurrence>>;

/// \brief Full-text inverted index over the string attributes of a Database.
///
/// Queries may be multi-word ("Woody Allen"): word postings are intersected
/// per (relation, attribute, tid) and verified as a contiguous phrase in the
/// stored value, so "Woody Allen" matches the value "Woody Allen" but not a
/// value containing only "Allen" or the words in the wrong order.
///
/// Postings are keyed on interned word ids (SymbolTable) and stored in the
/// form a lookup returns: each word's occurrence list — one run of
/// ascending tids per (relation, attribute) — is built once by Build and
/// shared by every lookup of that word (DESIGN.md §13). A lookup never
/// interns: a query word the SymbolTable has never seen is indexed nowhere.
class InvertedIndex {
 public:
  /// Indexes every string attribute of every relation in `db`. The Database
  /// must outlive the index. Word extraction is not counted in AccessStats
  /// (the paper excludes index construction from its measurements).
  static Result<InvertedIndex> Build(const Database& db);

  /// Occurrences of a (possibly multi-word) token, grouped by
  /// relation-attribute pair in (relation name, attribute index) order with
  /// ascending tids. Never null; points at an empty vector if the token
  /// appears nowhere. The result is shared and immutable: a single word
  /// returns its prebuilt list, and a cached phrase its stored result.
  OccurrenceList Lookup(const std::string& token) const;

  /// Occurrences for each token of a query, in query order.
  std::vector<OccurrenceList> LookupAll(
      const std::vector<std::string>& query) const;

  /// Number of distinct indexed words.
  size_t num_words() const { return postings_.size(); }

  /// Number of posting entries across all words.
  size_t num_postings() const { return num_postings_; }

  /// Bytes held by the posting arrays (their capacities times
  /// sizeof(Tid)), computed once by Build. Runs are trimmed to size, so
  /// this is sizeof(Tid) per posting.
  size_t posting_bytes() const { return posting_bytes_; }

  /// Token-occurrence cache (DESIGN.md §10, level 1): memoizes the result
  /// of multi-word Lookup calls. Intersecting tid runs and re-scanning
  /// stored strings for contiguous-phrase verification is the most
  /// expensive part of token matching, and the postings are immutable after
  /// Build (the source database is append-only and later inserts are not
  /// indexed), so a memoized lookup can never be stale with respect to this
  /// index. Single-word lookups are not cached: they already return the
  /// word's prebuilt list and would only thrash the cache. Off by default.
  ///
  /// Thread-safety: Lookup may run from many threads; the cache is
  /// internally locked (sharded LRU). Enabling/disabling must not race
  /// with lookups (same contract as the engine's set_* configuration).
  void set_lookup_cache_enabled(bool enabled) {
    cache_->enabled.store(enabled, std::memory_order_relaxed);
    if (!enabled) cache_->lru.Clear();
  }
  LruCacheStats lookup_cache_stats() const { return cache_->lru.stats(); }

 private:
  /// One indexed word: its prebuilt lookup result, plus where each of its
  /// occurrence groups lives (indexes into relations_ and the relation's
  /// attributes), in the same order as the groups.
  struct WordPostings {
    struct Run {
      uint32_t relation;
      uint32_t attribute;
      auto operator<=>(const Run&) const = default;
    };
    OccurrenceList occurrences;
    std::vector<Run> runs;
  };

  InvertedIndex() = default;

  /// Phrase lookup: intersects the words' runs (relation, attribute) by
  /// (relation, attribute) and keeps the tids whose value contains `words`
  /// as a contiguous word sequence.
  std::vector<TokenOccurrence> LookupPhrase(
      const std::vector<SymbolId>& words) const;

  // Relations in Database::RelationNames() order; WordPostings::Run
  // indexes into it.
  std::vector<const Relation*> relations_;
  std::unordered_map<SymbolId, WordPostings> postings_;
  size_t num_postings_ = 0;
  size_t posting_bytes_ = 0;

  // Token-occurrence cache, keyed by the normalized phrase's word-id
  // sequence (4 raw bytes per word — unambiguous, cheaper than re-joining
  // strings). Behind a unique_ptr so the index stays movable despite the
  // atomic + shard mutexes; mutable because Lookup is logically const.
  struct LookupCache {
    std::atomic<bool> enabled{false};
    // 4 MiB default capacity: a vocabulary-sized working set of phrase
    // results, bounded so pathological workloads cannot grow it forever.
    ShardedLruCache<std::string, std::vector<TokenOccurrence>> lru{4 << 20};
  };
  std::unique_ptr<LookupCache> cache_ = std::make_unique<LookupCache>();
};

/// \brief Approximate heap footprint of a lookup result, used as the LRU
/// charge (exposed for tests and the engine's answer-cache estimate): the
/// occurrence array, each tid array, and a name only past its inline
/// buffer (StringHeapBytes).
size_t EstimateOccurrencesCharge(const std::vector<TokenOccurrence>& occs);

}  // namespace precis

#endif  // PRECIS_TEXT_INVERTED_INDEX_H_
