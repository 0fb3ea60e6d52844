// Partitions as fault domains over one source Database (DESIGN.md §15, §17).
//
// A partition is the set of source tids ShardRouter assigns to it; nothing
// is copied. SourcePartitions is the engine-lifetime half: the router plus
// each relation's tuple count per partition. ShardedSource is one query's
// half: the one-partition source, read in place, under the query's
// ShardQueryFaultPlan:
//
//   * a healthy query (nothing skipped, nothing stalled) gets the
//     one-partition relations themselves, so it does no per-partition work;
//   * a query that skipped partitions drops their tids from each in-place
//     lookup, after the lookup has made its usual probe or scan charge, so
//     the injector and the budget see an unpartitioned run;
//   * a stalled partition delays its share of each edge: the edge opens
//     once the partition has served its stall and re-read the edge's keys
//     from the source. When the plan allows hedging, a share that outlives
//     the partition's hedging delay is read again from a second task, first
//     response wins. Stalls and hedges move time, never tids.

#ifndef PRECIS_SHARD_SHARDED_SOURCE_H_
#define PRECIS_SHARD_SHARDED_SOURCE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "precis/partition_source.h"
#include "shard/shard_health.h"
#include "shard/shard_router.h"
#include "storage/database.h"

namespace precis {

/// \brief Per-query fault-domain telemetry (DESIGN.md §17): partitions the
/// query ran without, the probe retries spent deciding that, partitions
/// skipped on an open breaker without probing, and the hedged share reads.
struct ShardQueryStats {
  std::vector<uint32_t> shards_skipped;
  uint64_t shard_probe_retries = 0;
  uint64_t breaker_rejects = 0;
  uint64_t hedged_subqueries = 0;
  uint64_t hedge_wins = 0;
};

/// \brief N partitions of one source Database, as sets of source tids.
class SourcePartitions {
 public:
  /// Counts every relation's tuples per partition. `db` must outlive this.
  SourcePartitions(const Database* db, size_t num_partitions);

  size_t num_partitions() const { return router_.num_shards(); }
  const ShardRouter& router() const { return router_; }

  /// The partition owning tid `tid` of `relation`.
  size_t ShardOf(const std::string& relation, Tid tid) const {
    return router_.ShardOf(ShardRouter::RelationSeed(relation), tid);
  }

  /// The tuples of `relation` that `partition` owns now: the count taken at
  /// construction plus a router pass over the tids appended since.
  uint64_t TuplesOn(const std::string& relation, size_t partition) const;
  /// The tuples of every relation that `partition` owns now.
  uint64_t TuplesOn(size_t partition) const;

 private:
  struct Counted {
    Tid tuples = 0;                // the relation's size when counted
    std::vector<uint64_t> owned;   // [num_partitions]
  };

  const Database* db_;
  ShardRouter router_;
  std::map<std::string, Counted> counted_;
};

/// \brief One query over N partitions of a source, as a PartitionSource.
class ShardedSource final : public PartitionSource {
 public:
  /// `in_place` is the one-partition source over the Database `partitions`
  /// counted. `plan`, when given, applies the query's fault-domain
  /// decisions. All three must outlive the source.
  ShardedSource(const PartitionSource* in_place,
                const SourcePartitions* partitions,
                const ShardQueryFaultPlan* plan = nullptr);

  size_t num_partitions() const override {
    return partitions_->num_partitions();
  }
  Result<std::unique_ptr<SourceRelation>> OpenRelation(
      const std::string& name) const override;
  const std::vector<ForeignKey>& foreign_keys() const override {
    return in_place_->foreign_keys();
  }
  std::vector<uint32_t> skipped_partitions() const override;

  /// The query's telemetry; complete once generation has returned.
  const ShardQueryStats& stats() const { return stats_; }

 private:
  const PartitionSource* in_place_;
  const SourcePartitions* partitions_;
  const ShardQueryFaultPlan* plan_;
  /// Written by the planner thread through the relations it opens.
  mutable ShardQueryStats stats_;
};

}  // namespace precis

#endif  // PRECIS_SHARD_SHARDED_SOURCE_H_
