// ShardedPrecisEngine: précis query answering over a hash-partitioned
// database (DESIGN.md §15).
//
// Owns a ShardedDatabase plus one PrecisEngine per shard (each with its own
// inverted index over the shard's tuples). Token matching scatters one
// lookup task per shard and merges the translated occurrence lists into the
// single-engine grouping and tid order; result-database generation runs the
// one Fig. 5 planner over a per-query ShardedSource. Answers are
// byte-identical to a plain PrecisEngine over the unpartitioned source for
// any shard count.
//
// Caching is shard-aware: the full-answer cache key extends the engine's
// fingerprint with the shard count and every shard's mutation epoch (any
// insert still invalidates whole answers, exactly like the single-engine
// epoch), while the per-shard partial caches (translated token occurrence
// lists) are keyed on *their own* shard's epoch only — an insert routed to
// shard 3 invalidates shard 3's partials and nobody else's.

#ifndef PRECIS_SHARD_SHARDED_ENGINE_H_
#define PRECIS_SHARD_SHARDED_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/circuit_breaker.h"
#include "common/execution_context.h"
#include "common/lru_cache.h"
#include "common/result.h"
#include "graph/schema_graph.h"
#include "precis/engine.h"
#include "shard/shard_health.h"
#include "shard/sharded_database.h"
#include "shard/sharded_source.h"
#include "text/synonyms.h"

namespace precis {

/// \brief Scatter-gather précis engine over N shard engines.
class ShardedPrecisEngine {
 public:
  /// Partitions `source` across `num_shards` shards and builds one
  /// PrecisEngine (with its own inverted index) per shard. `source` is
  /// copied into the shards; `graph` must outlive the engine.
  ///
  /// With `with_replicas`, every shard also gets a read replica (an exact
  /// copy, see ShardedDatabase::Partition) and sub-queries that outlive the
  /// shard's hedging delay are re-issued against it, first response wins
  /// (DESIGN.md §17). Replicas double partition memory, so they are opt-in.
  static Result<std::unique_ptr<ShardedPrecisEngine>> Create(
      const Database& source, const SchemaGraph* graph, size_t num_shards,
      bool with_replicas = false);

  ShardedPrecisEngine(const ShardedPrecisEngine&) = delete;
  ShardedPrecisEngine& operator=(const ShardedPrecisEngine&) = delete;

  /// Sharded analog of PrecisEngine::AnswerShared: scatter-gather answer
  /// through the shard-aware full-answer cache. `shard_stats`, when given,
  /// receives the query's scatter-gather telemetry (zeroed on cache hits —
  /// a hit does no shard work).
  Result<std::shared_ptr<const PrecisAnswer>> AnswerShared(
      const PrecisQuery& query, const DegreeConstraint& degree,
      const CardinalityConstraint& cardinality,
      const DbGenOptions& options = DbGenOptions(),
      ExecutionContext* ctx = nullptr,
      ShardQueryStats* shard_stats = nullptr) const;

  /// Sharded analog of PrecisEngine::AnswerSharedRendered (DESIGN.md §16):
  /// AnswerShared plus the memoized AnswerToJson body, cached under the
  /// shard-aware fingerprint with the same clean/complete/epoch-stable
  /// insert discipline. With one shard, delegates to the shard engine's
  /// rendered path.
  Result<RenderedAnswer> AnswerSharedRendered(
      const PrecisQuery& query, const DegreeConstraint& degree,
      const CardinalityConstraint& cardinality,
      const DbGenOptions& options = DbGenOptions(),
      ExecutionContext* ctx = nullptr,
      ShardQueryStats* shard_stats = nullptr) const;

  /// Uncached scatter-gather answer (the sharded Answer()).
  Result<PrecisAnswer> Answer(const PrecisQuery& query,
                              const DegreeConstraint& degree,
                              const CardinalityConstraint& cardinality,
                              const DbGenOptions& options = DbGenOptions(),
                              ExecutionContext* ctx = nullptr,
                              ShardQueryStats* shard_stats = nullptr) const;

  /// Routed insert into the owning shard (bumps only that shard's epoch,
  /// so only that shard's partial cache entries go stale). Like the
  /// single-engine source database, later inserts are not re-indexed into
  /// the shard inverted indexes.
  Result<Tid> Insert(const std::string& relation, Tuple tuple) {
    return sharded_.Insert(relation, std::move(tuple));
  }

  size_t num_shards() const { return sharded_.num_shards(); }
  const ShardedDatabase& database() const { return sharded_; }
  const SchemaGraph* graph() const { return graph_; }
  const PrecisEngine& shard_engine(size_t i) const {
    return *shard_engines_[i];
  }

  /// Installs a synonym table (forwarded to every shard engine so the
  /// single-shard delegation path canonicalizes identically).
  void set_synonyms(const SynonymTable* synonyms);

  /// Flips all cache levels: the shard-aware full-answer cache, the
  /// coordinator schema cache, and the per-shard partial caches. With one
  /// shard, the shard engine's own caches are toggled instead (that
  /// configuration delegates whole queries to it).
  void set_caches_enabled(bool enabled);

  LruCacheStats answer_cache_stats() const { return caches_->answer.stats(); }
  LruCacheStats schema_cache_stats() const { return caches_->schema.stats(); }
  /// Rendered-body cache counters (the shard engine's body cache when
  /// num_shards == 1, which delegates).
  LruCacheStats body_cache_stats() const {
    if (num_shards() == 1) return shard_engines_[0]->body_cache_stats();
    return caches_->body.stats();
  }

  /// Per-shard partial-results cache counters (the shard engine's token
  /// cache when num_shards == 1, which delegates).
  LruCacheStats shard_partial_cache_stats(size_t shard) const;

  /// Tuples resident on a shard.
  uint64_t shard_tuples(size_t shard) const {
    return sharded_.shard(shard).TotalTuples();
  }

  /// Per-shard fault-domain health: circuit breakers, hedge-delay windows,
  /// lifetime hedge/skip counters (DESIGN.md §17). Shard fault domains only
  /// exist at num_shards >= 2 — the one-shard configuration delegates whole
  /// queries to its shard engine and never consults this state.
  const ShardHealthTracker& health() const { return *health_; }
  CircuitBreakerStats breaker_stats(size_t shard) const {
    return health_->breaker(shard).stats();
  }

 private:
  ShardedPrecisEngine(ShardedDatabase sharded, const SchemaGraph* graph);

  /// Token lookup scattered across shards: per-shard (partial-cached)
  /// occurrence lists, local tids translated to global, merged into the
  /// single-engine (relation, attribute) group order with ascending tids.
  /// Shards the fault plan skipped contribute no occurrences — their seed
  /// tuples are part of what the outage costs the answer (DESIGN.md §17).
  std::vector<TokenMatch> MatchTokens(const PrecisQuery& query,
                                      const ShardQueryFaultPlan* plan) const;

  /// One shard's translated occurrences for a resolved token, through the
  /// shard's partial cache when enabled.
  std::shared_ptr<const std::vector<TokenOccurrence>> ShardOccurrences(
      size_t shard, const std::string& resolved) const;

  Result<PrecisAnswer> AnswerFromMatches(
      std::vector<TokenMatch> matches, const DegreeConstraint& degree,
      const CardinalityConstraint& c, const DbGenOptions& options,
      ExecutionContext* ctx, ShardQueryStats* shard_stats,
      const ShardQueryFaultPlan* plan) const;

  /// Shared implementation of AnswerShared / AnswerSharedRendered; when
  /// `body_out` is non-null it is always filled (memoized when permitted).
  Result<std::shared_ptr<const PrecisAnswer>> AnswerSharedImpl(
      const PrecisQuery& query, const DegreeConstraint& degree,
      const CardinalityConstraint& cardinality, const DbGenOptions& options,
      ExecutionContext* ctx, ShardQueryStats* shard_stats,
      std::shared_ptr<const std::string>* body_out) const;

  ShardedDatabase sharded_;
  const SchemaGraph* graph_;
  std::vector<std::unique_ptr<PrecisEngine>> shard_engines_;
  /// Fault-domain health; internally synchronized, so const query paths
  /// share it freely (DESIGN.md §17).
  std::unique_ptr<ShardHealthTracker> health_;
  /// Sorted relation name -> enumeration index; the cross-shard occurrence
  /// merge keys groups on it so group order matches InvertedIndex's sorted
  /// relation_names_ enumeration.
  std::map<std::string, uint32_t> relation_order_;
  const SynonymTable* synonyms_ = nullptr;

  std::atomic<bool> caches_enabled_{false};

  using PartialCache =
      ShardedLruCache<std::string, std::vector<TokenOccurrence>>;
  struct Caches {
    /// Coordinator result-schema cache (same key scheme as PrecisEngine's:
    /// sorted token-relation ids + degree + weight epoch).
    SchemaCache schema{8 << 20};
    /// Shard-aware full-answer cache.
    ShardedLruCache<std::string, PrecisAnswer> answer{64 << 20};
    /// Rendered-body cache (level 4): fingerprint -> AnswerToJson bytes,
    /// same key scheme as `answer` so epoch invalidation is inherited.
    ShardedLruCache<std::string, std::string> body{32 << 20};
    /// One partial cache per shard: translated global-tid occurrence lists
    /// keyed "shard_epoch|token", so a routed insert strands exactly the
    /// owning shard's entries.
    std::vector<std::unique_ptr<PartialCache>> partial;
  };
  std::unique_ptr<Caches> caches_ = std::make_unique<Caches>();
};

}  // namespace precis

#endif  // PRECIS_SHARD_SHARDED_ENGINE_H_
