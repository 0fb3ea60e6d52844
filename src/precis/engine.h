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
#include "shard/source_partitions.h"
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
/// prefixes the source's epoch and the weight epoch. Deliberately
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
/// The engine reads the source database in place at every N. A partition
/// is the set of source tids ShardRouter assigns it: a fault domain, not a
/// copy. At N >= 2 the Fig. 5 planner applies each query's fault plan
/// (DESIGN.md §17): a skipped partition's tids are dropped from the token
/// matches and from every lookup, and a stalled partition delays each
/// edge by its wait. Answers
/// are byte-identical at every partition count, and one cache stack serves
/// them all.
class PrecisEngine {
 public:
  /// The most partitions Create accepts. Each one costs a circuit breaker
  /// and a latency ring; nothing uses more than 8.
  static constexpr size_t kMaxPartitions = 1024;

  /// Builds the engine over `db` and `graph`, both of which must outlive
  /// the engine and any PrecisAnswer it returns: every query reads `db`.
  ///
  /// With `partitions <= 1` the engine is a view over `db`. With
  /// `partitions >= 2` it also counts each relation's tuples per partition
  /// (SourcePartitions) and tracks per-partition health; above
  /// kMaxPartitions it fails with InvalidArgument. `with_replicas` turns on
  /// hedging: a stalled partition delays an edge by at most its hedging
  /// delay, the hedge counted as fired and won (DESIGN.md §17); it needs
  /// `partitions >= 2`.
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
  /// fault-domain telemetry; a one-partition engine leaves it untouched.
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
  /// the answer cache is enabled, the lookup key fingerprints the source
  /// database's mutation epoch (bumped by Insert / CreateIndex /
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

  /// Installs a synonym table applied to every query token before lookup
  /// (§5.1's "W. Allen" == "Woody Allen"). Pass nullptr to remove. The
  /// table must outlive the engine while installed.
  void set_synonyms(const SynonymTable* synonyms) { synonyms_ = synonyms; }

  /// The four cache levels (DESIGN.md §10), switched together. Off by
  /// default; switching them off also empties them.
  ///
  /// Level 1 memoizes multi-word token lookups in the inverted index. Level
  /// 2 (§7's "further optimization of the whole process") reuses result
  /// schemas: a schema depends only on the set of token relations, the
  /// degree constraint and the graph's edge weights, and its key carries the
  /// graph's weight epoch, so re-weighting an edge invalidates implicitly.
  /// Level 3 is the full-answer cache (see AnswerShared), level 4 the
  /// rendered-body cache (see AnswerSharedRendered).
  ///
  /// Thread-safety: Answer/AnswerPerOccurrence/AnswerShared may be called
  /// from several threads concurrently against one engine (all caches are
  /// internally locked; access counters are atomic); set_* configuration
  /// calls must not race with queries.
  void set_caches_enabled(bool enabled) {
    // Atomic: the header allows concurrent Answer calls, which read this
    // flag; a plain bool here would be a data race under TSan.
    caches_->enabled.store(enabled, std::memory_order_relaxed);
    index_.set_lookup_cache_enabled(enabled);
    if (!enabled) {
      caches_->schema.Clear();
      caches_->answer->Clear();
      caches_->body->Clear();
    }
  }
  bool answer_cache_enabled() const { return caches_enabled(); }
  bool body_cache_enabled() const { return caches_enabled(); }

  LruCacheStats token_cache_stats() const {
    return index_.lookup_cache_stats();
  }
  LruCacheStats schema_cache_stats() const {
    return caches_->schema.stats();
  }
  LruCacheStats answer_cache_stats() const {
    return caches_->answer->stats();
  }
  LruCacheStats body_cache_stats() const { return caches_->body->stats(); }
  /// Replaces the answer cache with an empty one of `bytes` capacity
  /// (counters reset). Must not race with in-flight queries.
  void set_answer_cache_capacity(size_t bytes) {
    caches_->answer = std::make_unique<AnswerCache>(bytes);
  }

  size_t num_partitions() const {
    return partitions_ != nullptr ? partitions_->num_partitions() : 1;
  }
  /// The partitions of the source: its tids by owner and their tuple
  /// counts. Null at one partition.
  const SourcePartitions* partitions() const { return partitions_.get(); }
  /// Per-partition fault-domain health: circuit breakers, hedge-delay
  /// windows, hedge and skip counters (DESIGN.md §17). Fault domains are
  /// partitions, so this is null at one partition.
  const ShardHealthTracker* health() const { return health_.get(); }
  /// The inverted index over the source database.
  const InvertedIndex& index() const { return index_; }

 private:
  PrecisEngine(const Database* db, const SchemaGraph* graph,
               InvertedIndex index)
      : db_(db), graph_(graph), index_(std::move(index)) {}

  bool caches_enabled() const {
    return caches_->enabled.load(std::memory_order_relaxed);
  }

  /// The query's fault-domain decision, made once up front on the calling
  /// thread: which partitions take part, which stall, whether hedging can
  /// fire. Nothing to decide at one partition (nullopt).
  std::optional<ShardQueryFaultPlan> DecidePlan(ExecutionContext* ctx) const;

  /// Synonym canonicalization + lookup, shared by Answer and
  /// AnswerPerOccurrence. When `plan` skipped partitions, the tids they own
  /// are dropped, and so is any occurrence group left empty.
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

  /// The epoch part of the full-answer key: the source's mutation epoch,
  /// then the graph's weight epoch, each followed by '|'.
  std::string EpochKey() const;

  /// Shared implementation of AnswerShared / AnswerSharedRendered. When
  /// `body_out` is non-null it is always filled with AnswerToJson bytes,
  /// memoized through the body cache when permitted.
  Result<std::shared_ptr<const PrecisAnswer>> AnswerSharedImpl(
      const PrecisQuery& query, const DegreeConstraint& degree,
      const CardinalityConstraint& cardinality, const DbGenOptions& options,
      ExecutionContext* ctx, ShardQueryStats* shard_stats,
      std::shared_ptr<const std::string>* body_out) const;

  /// The source database, read in place at every N.
  const Database* db_;
  const SchemaGraph* graph_;
  InvertedIndex index_;
  /// Null at one partition.
  std::unique_ptr<SourcePartitions> partitions_;
  /// Internally synchronized, so const query paths share it; null at one
  /// partition.
  std::unique_ptr<ShardHealthTracker> health_;
  /// Whether stalled partitions hedge (Create's `with_replicas`).
  bool hedging_ = false;
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
    std::atomic<bool> enabled{false};
    SchemaCache schema{8 << 20};
    std::unique_ptr<AnswerCache> answer =
        std::make_unique<AnswerCache>(64 << 20);
    std::unique_ptr<BodyCache> body = std::make_unique<BodyCache>(32 << 20);
  };
  std::unique_ptr<Caches> caches_ = std::make_unique<Caches>();
};

}  // namespace precis

#endif  // PRECIS_PRECIS_ENGINE_H_
