// PrecisEngine: end-to-end précis query answering (paper §4, Fig. 2).
//
// Wires the pipeline together: inverted-index lookup of the query tokens,
// result schema generation under a degree constraint, and result database
// generation under a cardinality constraint. (Rendering the answer as text
// is the Translator's job — see translator/translator.h — so that the core
// has no dependency on presentation templates.)

#ifndef PRECIS_PRECIS_ENGINE_H_
#define PRECIS_PRECIS_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/execution_context.h"
#include "common/lru_cache.h"
#include "common/result.h"
#include "graph/schema_graph.h"
#include "storage/database.h"
#include "text/inverted_index.h"
#include "text/synonyms.h"
#include "precis/constraints.h"
#include "precis/database_generator.h"
#include "precis/result_schema.h"
#include "precis/schema_generator.h"

namespace precis {

/// \brief A précis query: a set of free-form tokens, Q = {k1, ..., km}.
struct PrecisQuery {
  std::vector<std::string> tokens;
};

/// \brief Where one query token was found.
struct TokenMatch {
  std::string token;
  /// The spelling actually looked up — differs from `token` when a synonym
  /// table canonicalized it ("W. Allen" -> "Woody Allen", §5.1).
  std::string resolved_token;
  /// Shared immutable occurrence list straight from InvertedIndex::Lookup
  /// (may point at an empty vector: unknown token). Shared so answers and
  /// the token cache reference one copy instead of deep-copying postings.
  OccurrenceList occurrences_ptr = std::make_shared<const std::vector<TokenOccurrence>>();

  const std::vector<TokenOccurrence>& occurrences() const {
    return *occurrences_ptr;
  }
};

/// \brief The full answer to a précis query: the result schema D', the
/// result database D' (a genuine Database with constraints), per-token
/// match information, and the generation report.
///
/// A token found in several relations (the paper's homonym case — "Woody
/// Allen" as a DIRECTOR and as an ACTOR) contributes all its occurrence
/// relations as input relations of one combined result schema; the
/// Translator later renders one narrative part per occurrence.
struct PrecisAnswer {
  std::vector<TokenMatch> matches;
  ResultSchema schema;
  Database database;
  DbGenReport report;

  /// True if no token matched anywhere (the answer is empty).
  bool empty() const {
    for (const TokenMatch& m : matches) {
      if (!m.occurrences().empty()) return false;
    }
    return true;
  }
};

/// \brief Approximate heap footprint of one answer, used as its LRU charge
/// in the engine's full-answer cache (exposed for tests and benches).
size_t EstimateAnswerCharge(const PrecisAnswer& answer);

/// \brief An answer together with its memoized JSON rendering.
///
/// `body_json` is exactly `AnswerToJson(*answer)` — the serving stack can
/// put it on the wire without re-rendering or copying. Both pointers are
/// non-null on success and immutable.
struct RenderedAnswer {
  std::shared_ptr<const PrecisAnswer> answer;
  std::shared_ptr<const std::string> body_json;
};

/// \brief The epoch-free part of the full-answer cache key: canonicalized
/// token sequence + constraint renderings + generation options. Shared by
/// PrecisEngine (which prefixes its database + weight epochs) and the
/// sharded engine (which prefixes shard count + per-shard epochs), so the
/// two fingerprints agree on exactly which options fragment the cache.
/// Deliberately excludes parallelism, pool, and simulated access latency:
/// answers produced under any of those settings are byte-identical.
std::string AnswerFingerprintBase(const PrecisQuery& query,
                                  const SynonymTable* synonyms,
                                  const DegreeConstraint& degree,
                                  const CardinalityConstraint& cardinality,
                                  const DbGenOptions& options);

/// \brief The result-schema cache (DESIGN.md §10, level 2): schemas keyed
/// by sorted token-relation ids, degree constraint and graph weight epoch.
using SchemaCache = ShardedLruCache<std::string, ResultSchema>;

/// \brief The steps between token matching and result-database generation,
/// shared by PrecisEngine and the sharded engine.
///
/// Seed assembly: the token relations (deduplicated, in match order) are
/// the schema generator's input relations, and `seeds` receives each
/// relation's matched tids, deduplicated in match order. Then the result
/// schema is generated under `degree` — through `schema_cache` when given.
/// A schema produced under an already-stopped context, or while a fault
/// injector is armed on it, is never cached: it reflects the stop or the
/// faults, not the constraint.
Result<ResultSchema> AssembleSeedsAndSchema(
    const SchemaGraph* graph, const std::vector<TokenMatch>& matches,
    const DegreeConstraint& degree, SchemaCache* schema_cache,
    ExecutionContext* ctx, SeedTids* seeds);

/// \brief Orchestrates inverted index, schema generator and database
/// generator over one source database and schema graph.
class PrecisEngine {
 public:
  /// Builds the engine (including its inverted index) over `db` and `graph`,
  /// both of which must outlive the engine and any PrecisAnswer it returns.
  static Result<PrecisEngine> Create(const Database* db,
                                     const SchemaGraph* graph);

  /// Answers a précis query under the given constraints. A query whose
  /// tokens match nothing yields an empty (but well-formed) answer.
  ///
  /// When `ctx` is given, the whole pipeline runs under it: every access is
  /// attributed to the context, per-stage trace spans ("match_tokens",
  /// "schema_gen", "db_gen") are recorded, and a deadline / access-budget /
  /// cancellation stop yields the partial, well-formed answer built so far
  /// with the cause flagged in PrecisAnswer::report.stop_reason.
  Result<PrecisAnswer> Answer(const PrecisQuery& query,
                              const DegreeConstraint& degree,
                              const CardinalityConstraint& cardinality,
                              const DbGenOptions& options = DbGenOptions(),
                              ExecutionContext* ctx = nullptr) const;

  /// Homonym handling (§5.1): "in the absence of any additional knowledge
  /// stored in the system, we may return multiple answers, one for each
  /// homonym". Produces one complete PrecisAnswer per (token, relation)
  /// occurrence instead of one combined answer; a single-occurrence query
  /// yields a one-element vector identical to Answer()'s result.
  Result<std::vector<PrecisAnswer>> AnswerPerOccurrence(
      const PrecisQuery& query, const DegreeConstraint& degree,
      const CardinalityConstraint& cardinality,
      const DbGenOptions& options = DbGenOptions(),
      ExecutionContext* ctx = nullptr) const;

  /// Answer() through the full-answer cache (DESIGN.md §10, level 3).
  ///
  /// The answer is returned as an immutable shared value so a cache hit
  /// hands out the stored answer without copying its result database. When
  /// the answer cache is enabled, the lookup key fingerprints the
  /// synonym-canonicalized token sequence, the degree and cardinality
  /// constraint renderings, the generation options, and two epoch counters:
  /// the source Database's mutation epoch (bumped by Insert / CreateIndex /
  /// CreateRelation / AddForeignKey) and the SchemaGraph's weight epoch
  /// (bumped by every edge addition or re-weighting). Any mutation
  /// therefore makes previously cached answers unreachable — a hit is never
  /// stale. Partial answers (deadline / budget / cancellation stops) are
  /// never inserted, and neither are runs whose epochs moved mid-build or
  /// whose options make answers non-reusable (trace_sql, tuple_weights).
  ///
  /// With the answer cache disabled this builds a fresh answer every call
  /// (equivalent to Answer(), just shared).
  Result<std::shared_ptr<const PrecisAnswer>> AnswerShared(
      const PrecisQuery& query, const DegreeConstraint& degree,
      const CardinalityConstraint& cardinality,
      const DbGenOptions& options = DbGenOptions(),
      ExecutionContext* ctx = nullptr) const;

  /// AnswerShared() plus serialization memoization (DESIGN.md §16, cache
  /// level 4): the returned body_json is exactly AnswerToJson(*answer),
  /// cached under the same fingerprint and the same discipline as the
  /// answer cache — partial, fault-tainted or degraded renders are never
  /// inserted, and the epochs baked into the fingerprint make every cached
  /// body unreachable after any mutation. On the steady-state hit path
  /// this costs two LRU lookups and zero serialization work. A cached body
  /// is only served next to a cached (hence clean) answer; whenever the
  /// answer was rebuilt, the body is re-rendered from that very answer, so
  /// the pair is always mutually consistent.
  Result<RenderedAnswer> AnswerSharedRendered(
      const PrecisQuery& query, const DegreeConstraint& degree,
      const CardinalityConstraint& cardinality,
      const DbGenOptions& options = DbGenOptions(),
      ExecutionContext* ctx = nullptr) const;

  /// Installs a synonym table applied to every query token before lookup
  /// (§5.1's "W. Allen" == "Woody Allen"). Pass nullptr to remove. The
  /// table must outlive the engine while installed.
  void set_synonyms(const SynonymTable* synonyms) { synonyms_ = synonyms; }

  /// Result-schema caching (§7's "further optimization of the whole
  /// process", DESIGN.md §10 level 2): the result schema depends only on
  /// the set of token relations, the degree constraint, and the graph's
  /// edge weights — not on the matched tuples — so repeated queries about
  /// tokens living in the same relations can reuse it. Off by default.
  /// Backed by the shared byte-bounded LRU; the cache key carries the
  /// graph's weight epoch, so re-weighting an edge invalidates implicitly
  /// (ClearSchemaCache() remains for explicit flushes).
  ///
  /// Thread-safety: Answer/AnswerPerOccurrence/AnswerShared may be called
  /// from several threads concurrently against one engine (all caches are
  /// internally locked; access counters are atomic); set_* configuration
  /// calls must not race with queries.
  void set_schema_cache_enabled(bool enabled) {
    // Atomic: the header allows concurrent Answer calls, which read this
    // flag; a plain bool here would be a data race under TSan.
    schema_cache_enabled_.store(enabled, std::memory_order_relaxed);
    if (!enabled) ClearSchemaCache();
  }
  void ClearSchemaCache() { caches_->schema.Clear(); }
  size_t schema_cache_hits() const { return caches_->schema.stats().hits; }
  size_t schema_cache_misses() const {
    return caches_->schema.stats().misses;
  }
  LruCacheStats schema_cache_stats() const {
    return caches_->schema.stats();
  }

  /// Full-answer caching (level 3; see AnswerShared). Off by default.
  void set_answer_cache_enabled(bool enabled) {
    answer_cache_enabled_.store(enabled, std::memory_order_relaxed);
    if (!enabled) ClearAnswerCache();
  }
  bool answer_cache_enabled() const {
    return answer_cache_enabled_.load(std::memory_order_relaxed);
  }
  void ClearAnswerCache() { caches_->answer->Clear(); }
  LruCacheStats answer_cache_stats() const {
    return caches_->answer->stats();
  }
  /// Replaces the answer cache with an empty one of `bytes` capacity
  /// (counters reset). Must not race with in-flight queries.
  void set_answer_cache_capacity(size_t bytes) {
    caches_->answer = std::make_unique<AnswerCache>(bytes);
  }

  /// Rendered-body caching (level 4; see AnswerSharedRendered). Off by
  /// default.
  void set_body_cache_enabled(bool enabled) {
    body_cache_enabled_.store(enabled, std::memory_order_relaxed);
    if (!enabled) ClearBodyCache();
  }
  bool body_cache_enabled() const {
    return body_cache_enabled_.load(std::memory_order_relaxed);
  }
  void ClearBodyCache() { caches_->body->Clear(); }
  LruCacheStats body_cache_stats() const { return caches_->body->stats(); }
  /// Replaces the body cache with an empty one of `bytes` capacity
  /// (counters reset). Must not race with in-flight queries.
  void set_body_cache_capacity(size_t bytes) {
    caches_->body = std::make_unique<BodyCache>(bytes);
  }

  /// Token-occurrence caching (level 1; see InvertedIndex). Off by default.
  void set_token_cache_enabled(bool enabled) {
    index_.set_lookup_cache_enabled(enabled);
  }
  LruCacheStats token_cache_stats() const {
    return index_.lookup_cache_stats();
  }

  /// Convenience: flips all four cache levels at once.
  void set_caches_enabled(bool enabled) {
    set_token_cache_enabled(enabled);
    set_schema_cache_enabled(enabled);
    set_answer_cache_enabled(enabled);
    set_body_cache_enabled(enabled);
  }

  const InvertedIndex& index() const { return index_; }

  // Movable (the atomic members need explicit moves); not copyable.
  PrecisEngine(PrecisEngine&& o) noexcept
      : db_(o.db_),
        graph_(o.graph_),
        index_(std::move(o.index_)),
        synonyms_(o.synonyms_),
        schema_cache_enabled_(
            o.schema_cache_enabled_.load(std::memory_order_relaxed)),
        answer_cache_enabled_(
            o.answer_cache_enabled_.load(std::memory_order_relaxed)),
        body_cache_enabled_(
            o.body_cache_enabled_.load(std::memory_order_relaxed)),
        caches_(std::move(o.caches_)) {}
  PrecisEngine& operator=(PrecisEngine&& o) noexcept {
    db_ = o.db_;
    graph_ = o.graph_;
    index_ = std::move(o.index_);
    synonyms_ = o.synonyms_;
    schema_cache_enabled_.store(
        o.schema_cache_enabled_.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    answer_cache_enabled_.store(
        o.answer_cache_enabled_.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    body_cache_enabled_.store(
        o.body_cache_enabled_.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    caches_ = std::move(o.caches_);
    return *this;
  }

 private:
  PrecisEngine(const Database* db, const SchemaGraph* graph,
               InvertedIndex index)
      : db_(db), graph_(graph), index_(std::move(index)) {}

  /// Lookup + canonicalization shared by Answer and AnswerPerOccurrence.
  std::vector<TokenMatch> MatchTokens(const PrecisQuery& query) const;

  /// Builds one answer from an explicit set of matches. Const because
  /// answering does not logically mutate the engine: the only touched state
  /// is the schema cache, reached through a pointer and internally locked.
  Result<PrecisAnswer> AnswerFromMatches(std::vector<TokenMatch> matches,
                                         const DegreeConstraint& degree,
                                         const CardinalityConstraint& c,
                                         const DbGenOptions& options,
                                         ExecutionContext* ctx) const;

  /// Full-answer cache key: canonicalized token sequence + constraint
  /// renderings + generation options + the two epochs.
  std::string AnswerFingerprint(const PrecisQuery& query,
                                const DegreeConstraint& degree,
                                const CardinalityConstraint& cardinality,
                                const DbGenOptions& options,
                                uint64_t db_epoch,
                                uint64_t weight_epoch) const;

  /// Shared implementation of AnswerShared / AnswerSharedRendered. When
  /// `body_out` is non-null it is always filled with AnswerToJson bytes,
  /// memoized through the body cache when permitted.
  Result<std::shared_ptr<const PrecisAnswer>> AnswerSharedImpl(
      const PrecisQuery& query, const DegreeConstraint& degree,
      const CardinalityConstraint& cardinality, const DbGenOptions& options,
      ExecutionContext* ctx,
      std::shared_ptr<const std::string>* body_out) const;

  const Database* db_;
  const SchemaGraph* graph_;
  InvertedIndex index_;
  const SynonymTable* synonyms_ = nullptr;

  std::atomic<bool> schema_cache_enabled_{false};
  std::atomic<bool> answer_cache_enabled_{false};
  std::atomic<bool> body_cache_enabled_{false};

  using AnswerCache = ShardedLruCache<std::string, PrecisAnswer>;
  using BodyCache = ShardedLruCache<std::string, std::string>;
  // Behind a unique_ptr so the engine stays movable despite the shard
  // mutexes. Capacity defaults: 8 MiB of schemas (they are small; this is
  // effectively "all schemas a realistic weight/constraint mix produces"),
  // 64 MiB of answers (a result database per entry; bounded so a long tail
  // of one-off queries evicts instead of growing forever — the fix for
  // PR 1's unbounded schema-cache map), 32 MiB of rendered JSON bodies
  // (cheaper per entry than answers; sized to hold the rendered form of a
  // realistic hot set).
  struct Caches {
    SchemaCache schema{8 << 20};
    std::unique_ptr<AnswerCache> answer =
        std::make_unique<AnswerCache>(64 << 20);
    std::unique_ptr<BodyCache> body = std::make_unique<BodyCache>(32 << 20);
  };
  std::unique_ptr<Caches> caches_ = std::make_unique<Caches>();
};

}  // namespace precis

#endif  // PRECIS_PRECIS_ENGINE_H_
