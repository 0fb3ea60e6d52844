// ShardedSource: one query's view of a ShardedDatabase as a Fig. 5
// generation source (DESIGN.md §15, §17).
//
// ResultDatabaseGenerator plans the whole query on one thread; this source
// supplies what it reads, spread over the shards:
//
//   * Lookups scatter: when the planner opens a join edge, one task per
//     live shard looks every key up in its shard (null context: no fault
//     checks, no query charges) and the per-key lists merge ascending into
//     exactly the unpartitioned posting order. The planner then consumes
//     the keys one by one; each Lookup replays, through
//     ShardedRelation::MirrorLookupCharges, the probe/scan charge and fault
//     check Relation::LookupEquals would have made, so the injector and the
//     budget see an unpartitioned run while the shards did the work.
//   * Projection scatters: a chunk's global tids group by owning shard and
//     run each shard's columnar kernel, scattering rows back into
//     acceptance order; the context is charged the same fetch total.
//   * Fault domains: the query's ShardQueryFaultPlan decides which shards
//     take part, which stall, and whether a slow shard's lookups are hedged:
//     re-issued against the same read-only shard from a second task, so the
//     answer cannot change.
//
// Each source also keeps the query's ShardQueryStats ledger — telemetry
// only: budget authority stays with the planner's simulated charge replay,
// because per-shard cutoffs would make answers depend on the shard count.

#ifndef PRECIS_SHARD_SHARDED_SOURCE_H_
#define PRECIS_SHARD_SHARDED_SOURCE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "precis/partition_source.h"
#include "shard/shard_health.h"
#include "shard/sharded_database.h"

namespace precis {

/// \brief Per-query scatter-gather telemetry: where the physical work
/// landed and what the deterministic merge cost. Never feeds back into
/// truncation decisions (DESIGN.md §15).
struct ShardQueryStats {
  /// Wall seconds spent in per-edge scatter + ascending k-way merges.
  double merge_seconds = 0.0;
  /// Number of scatter-gather merge rounds (one per executed edge).
  uint64_t merge_events = 0;
  /// Per-shard physical sub-operations dispatched (one per shard per edge
  /// prefetch, one per chunk task that touched the shard).
  std::vector<uint64_t> subqueries;
  /// Per-shard physical charges: shard-side lookups plus tuples fetched.
  std::vector<uint64_t> charges;
  /// Per-shard peak prefetch scratch bytes: the largest single-edge
  /// posting buffer the scatter held for the shard.
  std::vector<uint64_t> scratch_bytes;
  /// The query's global access budget (0 = unlimited) and its even
  /// per-shard slice.
  uint64_t budget_total = 0;
  uint64_t budget_slice = 0;
  /// Sum over shards of the charges that exceeded the even slice — how
  /// much of the budget effectively rebalanced toward hot shards.
  uint64_t rebalanced_charges = 0;

  /// Fault-domain telemetry (DESIGN.md §17): shards this query's merge
  /// completed without, probe retries spent deciding that, shards skipped
  /// on an open breaker without probing, and the hedged sub-query ledger.
  std::vector<uint32_t> shards_skipped;
  uint64_t shard_probe_retries = 0;
  uint64_t breaker_rejects = 0;
  uint64_t hedged_subqueries = 0;
  uint64_t hedge_wins = 0;

  void Resize(size_t num_shards) {
    subqueries.assign(num_shards, 0);
    charges.assign(num_shards, 0);
    scratch_bytes.assign(num_shards, 0);
    shards_skipped.clear();
    shard_probe_retries = 0;
    breaker_rejects = 0;
    hedged_subqueries = 0;
    hedge_wins = 0;
  }
};

/// \brief One query over a ShardedDatabase, as a PartitionSource.
class ShardedSource final : public PartitionSource {
 public:
  /// `plan`, when given, applies the query's fault-domain decisions: shards
  /// it skipped contribute nothing to any lookup (their tuples are
  /// reported per relation as unavailable_tuples), live shards serve their
  /// injected stall inside their lookup task, and — when the plan allows
  /// hedging — a sub-query that outlives the shard's hedging delay is
  /// re-issued from a second task against the same shard, first response
  /// wins. Both `sharded` and `plan` must outlive the source.
  explicit ShardedSource(const ShardedDatabase* sharded,
                         const ShardQueryFaultPlan* plan = nullptr);
  ~ShardedSource() override;

  size_t num_partitions() const override { return sharded_->num_shards(); }
  Result<std::unique_ptr<SourceRelation>> OpenRelation(
      const std::string& name) const override;
  const std::vector<ForeignKey>& foreign_keys() const override {
    return sharded_->foreign_keys();
  }
  std::vector<uint32_t> skipped_partitions() const override;

  /// Writes the query's scatter-gather telemetry; call once generation has
  /// returned. `budget` is the query's access budget (0 = unlimited).
  void CollectStats(uint64_t budget, ShardQueryStats* stats) const;

  /// The per-query ledger the relation views write into.
  struct Ledger;

 private:
  const ShardedDatabase* sharded_;
  const ShardQueryFaultPlan* plan_;
  std::unique_ptr<Ledger> ledger_;
};

}  // namespace precis

#endif  // PRECIS_SHARD_SHARDED_SOURCE_H_
