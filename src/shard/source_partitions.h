// Partitions as fault domains over one source Database (DESIGN.md §15, §17).
//
// A partition is the set of source tids ShardRouter assigns to it; nothing
// is copied. SourcePartitions is the engine-lifetime half: the router plus
// each relation's tuple count per partition. The per-query half is the
// ShardQueryFaultPlan (shard/shard_health.h), which the Fig. 5 planner
// applies as it reads the source in place: it drops a skipped partition's
// tids from each lookup and sleeps out a stalled partition's wait when an
// edge's lookups open.

#ifndef PRECIS_SHARD_SOURCE_PARTITIONS_H_
#define PRECIS_SHARD_SOURCE_PARTITIONS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "shard/shard_router.h"
#include "storage/database.h"

namespace precis {

/// \brief Per-query fault-domain telemetry (DESIGN.md §17): partitions the
/// query ran without, the probe retries spent deciding that, partitions
/// skipped on an open breaker without probing, and the hedged stalls.
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

}  // namespace precis

#endif  // PRECIS_SHARD_SOURCE_PARTITIONS_H_
