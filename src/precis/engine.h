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
#include <optional>
#include <string>
#include <vector>

#include "common/execution_context.h"
#include "common/lru_cache.h"
#include "common/result.h"
#include "graph/schema_graph.h"
#include "shard/shard_health.h"
#include "shard/sharded_database.h"
#include "shard/sharded_source.h"
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
/// token sequence + constraint renderings + generation options. PrecisEngine
/// prefixes every partition's epoch and the weight epoch. Deliberately
/// excludes parallelism, pool, and simulated access latency: answers
/// produced under any of those settings are byte-identical.
std::string AnswerFingerprintBase(const PrecisQuery& query,
                                  const SynonymTable* synonyms,
                                  const DegreeConstraint& degree,
                                  const CardinalityConstraint& cardinality,
                                  const DbGenOptions& options);

/// \brief The result-schema cache (DESIGN.md §10, level 2): schemas keyed
/// by sorted token-relation ids, degree constraint and graph weight epoch.
using SchemaCache = ShardedLruCache<std::string, ResultSchema>;

/// \brief The steps between token matching and result-database generation,
/// shared by PrecisEngine and the test-side sequential walk oracle.
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
/// generator over N >= 1 partitions of one source database and a schema
/// graph (DESIGN.md §15).
///
/// One partition is the database read in place. At N >= 2 the engine owns a
/// hash-partitioned copy with one inverted index per partition: token
/// lookups scatter across the partitions the query's fault plan keeps
/// (DESIGN.md §17) and merge into the one-partition occurrence order, and
/// generation runs the Fig. 5 planner over a per-query ShardedSource.
/// Answers are byte-identical at every partition count, and one cache
/// stack serves them all.
class PrecisEngine {
 public:
  /// Builds the engine over `db` and `graph`. `graph` must outlive the
  /// engine and any PrecisAnswer it returns.
  ///
  /// With `partitions <= 1` the engine is a view over `db` (which must
  /// outlive it too) with one inverted index; nothing is copied. With
  /// `partitions >= 2` it partitions a copy of `db`
  /// (ShardedDatabase::Partition), indexes every partition and tracks
  /// per-partition health; `db` is not referenced afterwards.
  /// `with_replicas` gives every partition a read replica that slow
  /// sub-queries hedge against (DESIGN.md §17); it needs `partitions >= 2`.
  static Result<PrecisEngine> Create(const Database* db,
                                     const SchemaGraph* graph,
                                     size_t partitions = 1,
                                     bool with_replicas = false);

  /// Answers a précis query under the given constraints. A query whose
  /// tokens match nothing yields an empty (but well-formed) answer.
  ///
  /// When `ctx` is given, the whole pipeline runs under it: every access is
  /// attributed to the context, per-stage trace spans ("match_tokens",
  /// "schema_gen", "db_gen") are recorded, and a deadline / access-budget /
  /// cancellation stop yields the partial, well-formed answer built so far
  /// with the cause flagged in PrecisAnswer::report.stop_reason.
  ///
  /// At N >= 2 partitions, `shard_stats` (when given) receives the query's
  /// scatter-gather telemetry; a one-partition engine leaves it untouched.
  Result<PrecisAnswer> Answer(const PrecisQuery& query,
                              const DegreeConstraint& degree,
                              const CardinalityConstraint& cardinality,
                              const DbGenOptions& options = DbGenOptions(),
                              ExecutionContext* ctx = nullptr,
                              ShardQueryStats* shard_stats = nullptr) const;

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
  /// the answer cache is enabled, the lookup key fingerprints every
  /// partition's mutation epoch (bumped by Insert / CreateIndex /
  /// CreateRelation / AddForeignKey), the SchemaGraph's weight epoch
  /// (bumped by every edge addition or re-weighting), the
  /// synonym-canonicalized token sequence, the degree and cardinality
  /// constraint renderings and the generation options. Any mutation
  /// therefore makes previously cached answers unreachable — a hit is never
  /// stale. Partial answers (deadline / budget / cancellation stops) are
  /// never inserted, and neither are fault-tainted or degraded answers,
  /// runs whose epochs moved mid-build, or runs whose options make answers
  /// non-reusable (trace_sql, tuple_weights).
  ///
  /// With the answer cache disabled this builds a fresh answer every call
  /// (equivalent to Answer(), just shared). A hit does no partition work
  /// and leaves `shard_stats` untouched.
  Result<std::shared_ptr<const PrecisAnswer>> AnswerShared(
      const PrecisQuery& query, const DegreeConstraint& degree,
      const CardinalityConstraint& cardinality,
      const DbGenOptions& options = DbGenOptions(),
      ExecutionContext* ctx = nullptr,
      ShardQueryStats* shard_stats = nullptr) const;

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
      ExecutionContext* ctx = nullptr,
      ShardQueryStats* shard_stats = nullptr) const;

  /// Routed insert into a partitioned engine: the tuple lands on its owning
  /// partition, and only that partition's epoch moves. Inserted tuples are
  /// not indexed for token matching (postings are built once, as at one
  /// partition). A one-partition engine reads its database in place and
  /// rejects this call — insert into that Database instead. Not safe
  /// against concurrent queries.
  Result<Tid> Insert(const std::string& relation, Tuple tuple);

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
    caches_->schema_enabled.store(enabled, std::memory_order_relaxed);
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
    caches_->answer_enabled.store(enabled, std::memory_order_relaxed);
    if (!enabled) ClearAnswerCache();
  }
  bool answer_cache_enabled() const {
    return caches_->answer_enabled.load(std::memory_order_relaxed);
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
    caches_->body_enabled.store(enabled, std::memory_order_relaxed);
    if (!enabled) ClearBodyCache();
  }
  bool body_cache_enabled() const {
    return caches_->body_enabled.load(std::memory_order_relaxed);
  }
  void ClearBodyCache() { caches_->body->Clear(); }
  LruCacheStats body_cache_stats() const { return caches_->body->stats(); }
  /// Replaces the body cache with an empty one of `bytes` capacity
  /// (counters reset). Must not race with in-flight queries.
  void set_body_cache_capacity(size_t bytes) {
    caches_->body = std::make_unique<BodyCache>(bytes);
  }

  /// Token-occurrence caching (level 1): each partition's InvertedIndex
  /// memoizes its own multi-word lookups. Off by default.
  void set_token_cache_enabled(bool enabled) {
    for (InvertedIndex& index : indexes_) {
      index.set_lookup_cache_enabled(enabled);
    }
  }
  /// Level-1 counters summed over the partitions.
  LruCacheStats token_cache_stats() const {
    LruCacheStats total;
    for (const InvertedIndex& index : indexes_) {
      total += index.lookup_cache_stats();
    }
    return total;
  }

  /// Convenience: flips all four cache levels at once.
  void set_caches_enabled(bool enabled) {
    set_token_cache_enabled(enabled);
    set_schema_cache_enabled(enabled);
    set_answer_cache_enabled(enabled);
    set_body_cache_enabled(enabled);
  }

  size_t num_partitions() const { return indexes_.size(); }
  /// The owned partitioned copy; null at one partition.
  const ShardedDatabase* partitions() const { return partitions_.get(); }
  /// Per-partition fault-domain health: circuit breakers, hedge-delay
  /// windows, hedge and skip counters (DESIGN.md §17). Fault domains are
  /// partitions, so this is null at one partition.
  const ShardHealthTracker* health() const { return health_.get(); }
  /// Partition `partition`'s inverted index. Its tids are partition-local
  /// when the engine is partitioned.
  const InvertedIndex& index(size_t partition = 0) const {
    return indexes_[partition];
  }

 private:
  explicit PrecisEngine(const SchemaGraph* graph) : graph_(graph) {}

  /// The query's fault-domain decision, made once up front on the calling
  /// thread: which partitions take part, which stall, whether hedging can
  /// fire. Nothing to decide at one partition (nullopt).
  std::optional<ShardQueryFaultPlan> DecidePlan(ExecutionContext* ctx) const;

  /// Synonym canonicalization + lookup, shared by Answer and
  /// AnswerPerOccurrence. At N >= 2 partitions the lookups scatter over the
  /// partitions `plan` keeps, translate to global tids and merge.
  std::vector<TokenMatch> MatchTokens(const PrecisQuery& query,
                                      const ShardQueryFaultPlan* plan) const;

  /// Builds one answer from an explicit set of matches. Const because
  /// answering does not logically mutate the engine: the only touched state
  /// is the schema cache, reached through a pointer and internally locked.
  Result<PrecisAnswer> AnswerFromMatches(std::vector<TokenMatch> matches,
                                         const DegreeConstraint& degree,
                                         const CardinalityConstraint& c,
                                         const DbGenOptions& options,
                                         ExecutionContext* ctx,
                                         const ShardQueryFaultPlan* plan,
                                         ShardQueryStats* shard_stats) const;

  /// The epoch part of the full-answer key: every partition's mutation
  /// epoch, then the graph's weight epoch, each followed by '|'.
  std::string EpochKey() const;

  /// Shared implementation of AnswerShared / AnswerSharedRendered. When
  /// `body_out` is non-null it is always filled with AnswerToJson bytes,
  /// memoized through the body cache when permitted.
  Result<std::shared_ptr<const PrecisAnswer>> AnswerSharedImpl(
      const PrecisQuery& query, const DegreeConstraint& degree,
      const CardinalityConstraint& cardinality, const DbGenOptions& options,
      ExecutionContext* ctx, ShardQueryStats* shard_stats,
      std::shared_ptr<const std::string>* body_out) const;

  /// The one partition, read in place; null when partitioned.
  const Database* db_ = nullptr;
  const SchemaGraph* graph_;
  /// The partitioned copy; null at one partition.
  std::unique_ptr<ShardedDatabase> partitions_;
  /// One per partition, each over that partition's tuples.
  std::vector<InvertedIndex> indexes_;
  /// Internally synchronized, so const query paths share it; null at one
  /// partition.
  std::unique_ptr<ShardHealthTracker> health_;
  const SynonymTable* synonyms_ = nullptr;

  using AnswerCache = ShardedLruCache<std::string, PrecisAnswer>;
  using BodyCache = ShardedLruCache<std::string, std::string>;
  // Behind a unique_ptr so the engine stays movable despite the atomics
  // and shard mutexes. Capacity defaults: 8 MiB of schemas (they are small;
  // this is effectively "all schemas a realistic weight/constraint mix
  // produces"), 64 MiB of answers (a result database per entry; bounded so
  // a long tail of one-off queries evicts instead of growing forever), 32
  // MiB of rendered JSON bodies (cheaper per entry than answers; sized to
  // hold the rendered form of a realistic hot set).
  struct Caches {
    std::atomic<bool> schema_enabled{false};
    std::atomic<bool> answer_enabled{false};
    std::atomic<bool> body_enabled{false};
    SchemaCache schema{8 << 20};
    std::unique_ptr<AnswerCache> answer =
        std::make_unique<AnswerCache>(64 << 20);
    std::unique_ptr<BodyCache> body = std::make_unique<BodyCache>(32 << 20);
  };
  std::unique_ptr<Caches> caches_ = std::make_unique<Caches>();
};

}  // namespace precis

#endif  // PRECIS_PRECIS_ENGINE_H_
