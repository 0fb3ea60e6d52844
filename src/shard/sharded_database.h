// ShardedDatabase: one logical database hash-partitioned across N shard
// Databases (DESIGN.md §15).
//
// Every shard holds every relation (possibly empty) with the full source
// schema and the same replicated indexes, so structural properties — which
// attributes exist, which are indexed — are global, not per-shard. Only the
// *tuples* are partitioned: global tid g of relation R lives on shard
// ShardRouter::ShardOf(seed(R), g), at a shard-local tid recorded in the
// global<->local maps. Global tids are the source's tids, so one inverted
// index over the source serves every partition count. Shards are populated
// in ascending global-tid order, so each per-shard local->global map is
// strictly increasing — the property the deterministic merges lean on (an
// ascending shard-local tid list translates to an ascending global list).
//
// The coordinator-facing read surface is ShardedRelation: a view that
// mirrors Relation's instrumented API (LookupEquals charge/fault order,
// ProjectRows fetch totals, CountStatement) against the query's
// ExecutionContext while the actual data work runs against the shard
// relations with a null context — shard-side operations never consult the
// fault injector and never double-charge the query (fault decisions stay on
// the planner thread; see shard/sharded_source.h).

#ifndef PRECIS_SHARD_SHARDED_DATABASE_H_
#define PRECIS_SHARD_SHARDED_DATABASE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/execution_context.h"
#include "common/result.h"
#include "shard/shard_router.h"
#include "storage/access_stats.h"
#include "storage/database.h"
#include "storage/relation.h"

namespace precis {

class ShardedDatabase;

/// \brief Merges per-shard ascending global-tid lists into one ascending
/// list — the single-engine lookup order (index postings and the scan
/// fallback both return ascending tids, and translation through a strictly
/// increasing local->global map preserves that per shard).
std::vector<Tid> MergeAscendingTids(std::vector<std::vector<Tid>> lists);

/// \brief Coordinator view of one partitioned relation.
class ShardedRelation {
 public:
  const std::string& name() const { return schema_.name(); }
  const RelationSchema& schema() const { return schema_; }

  /// Global tuple count (the sum of the shard counts).
  size_t num_tuples() const { return local_of_.size(); }

  size_t num_shards() const { return shard_rel_.size(); }
  size_t shard_tuples(size_t shard) const {
    return local_to_global_[shard].size();
  }

  /// The shard global tid `global_tid` routes to, recomputed by the router
  /// rather than stored per tuple.
  size_t OwnerOf(Tid global_tid) const {
    return router_.ShardOf(seed_, global_tid);
  }
  Tid LocalOf(Tid global_tid) const { return local_of_[global_tid]; }
  Tid GlobalOf(size_t shard, Tid local_tid) const {
    return local_to_global_[shard][local_tid];
  }

  /// Uncharged single-attribute read, routed to the owning shard's columns
  /// — the planner's join-key extraction path.
  Value ColumnValue(Tid global_tid, size_t attribute) const {
    return shard_rel_[OwnerOf(global_tid)]->ColumnValue(local_of_[global_tid],
                                                         attribute);
  }

  /// True when the attribute is indexed. Indexes are replicated onto every
  /// shard at partition time, so indexedness is a global property — which is
  /// what lets the coordinator mirror decide probe-vs-scan without asking
  /// the shards.
  bool HasIndex(const std::string& attribute_name) const {
    return shard_rel_[0]->HasIndex(attribute_name);
  }

  /// Replays exactly the charge/fault sequence Relation::LookupEquals
  /// produces on the coordinator context — CheckFault(kIndexProbe) then one
  /// index-probe charge when the attribute is indexed, CheckFault(
  /// kRelationScan) then one scan charge otherwise, attribute-missing error
  /// first — without touching any shard. ShardedSource pairs this with
  /// prefetched shard results so the injector consumes the identical
  /// check sequence the single-engine run does (DESIGN.md §15).
  Status MirrorLookupCharges(const std::string& attribute_name,
                             ExecutionContext* ctx) const;

  /// Shard-local equality lookup, translated to ascending *global* tids.
  /// Runs with a null context: no fault checks, no coordinator charges (the
  /// shard relation's own stats still count the probe). Safe to call from
  /// pool threads — this is the scatter half of the per-edge prefetch, and
  /// a hedged sub-query is the same call from a second task (DESIGN.md
  /// §17).
  Result<std::vector<Tid>> ShardLookupGlobal(size_t shard,
                                             const std::string& attribute_name,
                                             const Value& key) const;

  /// Bulk fetch+project of global tids: groups by owning shard, runs each
  /// shard's Relation::ProjectRows, charging `ctx` the same n tuple fetches
  /// the single-engine kernel pays, and scatters rows back into
  /// `out[i * width + j]` aligned with `tids`. `shard_fetches` receives the
  /// per-shard fetch counts (the budget-ledger telemetry).
  void ProjectRowsScatter(const Tid* tids, size_t n,
                          const std::vector<size_t>& projection, Value* out,
                          ExecutionContext* ctx,
                          std::vector<uint64_t>* shard_fetches) const;

  /// One submitted statement, attributed to the sharded database's own
  /// stats and the context (statements are counted, never budget-charged).
  void CountStatement(ExecutionContext* ctx) const;

 private:
  friend class ShardedDatabase;

  ShardedRelation(RelationSchema schema, ShardRouter router,
                  AccessStats* stats)
      : schema_(std::move(schema)),
        seed_(ShardRouter::RelationSeed(schema_.name())),
        router_(router),
        stats_(stats) {}

  RelationSchema schema_;
  uint64_t seed_;              // ShardRouter::RelationSeed(name())
  ShardRouter router_;
  AccessStats* stats_;         // the owning ShardedDatabase's counters
  std::vector<Relation*> shard_rel_;            // [num_shards]
  std::vector<Tid> local_of_;                   // global tid -> local tid
  std::vector<std::vector<Tid>> local_to_global_;  // per shard, ascending
};

/// \brief The partitioned database: N shard Databases plus the routing maps
/// and the global foreign-key catalog.
class ShardedDatabase {
 public:
  /// Partitions `source` across `num_shards >= 2` shards (one partition is
  /// the source itself, read in place). Every relation is created on every
  /// shard (schema + primary key + replicated indexes); tuples are routed by
  /// ShardRouter in ascending global-tid order. The tuples are copied — the
  /// source is not referenced afterwards. Foreign keys are kept in the
  /// global catalog only: a shard cannot declare them, since a child tuple
  /// and its parent may live on different shards.
  static Result<ShardedDatabase> Partition(const Database& source,
                                           size_t num_shards);

  ShardedDatabase(ShardedDatabase&&) = default;
  ShardedDatabase& operator=(ShardedDatabase&&) = default;
  ShardedDatabase(const ShardedDatabase&) = delete;
  ShardedDatabase& operator=(const ShardedDatabase&) = delete;

  size_t num_shards() const { return shards_.size(); }
  const Database& shard(size_t i) const { return *shards_[i]; }

  /// The shard's mutation epoch — the shard-aware cache key component: an
  /// insert routed to shard i moves only epoch i (DESIGN.md §15).
  uint64_t shard_epoch(size_t i) const { return shards_[i]->epoch(); }

  bool HasRelation(const std::string& name) const {
    return views_.count(name) > 0;
  }
  Result<const ShardedRelation*> GetView(const std::string& name) const;

  /// Relation names, sorted (same enumeration order as Database).
  std::vector<std::string> RelationNames() const;

  const std::vector<ForeignKey>& foreign_keys() const { return foreign_keys_; }

  size_t TotalTuples() const;

  /// Routed insert: assigns the next global tid of `relation`, routes the
  /// tuple to its owner shard (bumping only that shard's epoch), and
  /// maintains the tid maps. Cross-shard primary-key uniqueness is enforced
  /// by probing the non-owning shards' primary-key sets before the owner's
  /// own checked Insert; a duplicate on any shard fails with the owner's
  /// ConstraintViolation text. Not thread-safe against concurrent queries
  /// (same single-writer contract as Database mutation).
  Result<Tid> Insert(const std::string& relation, Tuple tuple);

  /// The shard this relation's global tid `tid` routes to.
  size_t ShardOf(const std::string& relation, Tid tid) const {
    return router_.ShardOf(ShardRouter::RelationSeed(relation), tid);
  }

  /// Coordinator-side access counters: the mirror charges (probes/scans/
  /// statements the logical query performed), as opposed to the per-shard
  /// Database stats which count the physical shard-side work.
  const AccessStats& stats() const { return *stats_; }

 private:
  explicit ShardedDatabase(size_t num_shards) : router_(num_shards) {}

  ShardRouter router_;
  std::vector<std::unique_ptr<Database>> shards_;
  std::map<std::string, std::unique_ptr<ShardedRelation>> views_;
  std::vector<ForeignKey> foreign_keys_;
  std::unique_ptr<AccessStats> stats_ = std::make_unique<AccessStats>();
};

}  // namespace precis

#endif  // PRECIS_SHARD_SHARDED_DATABASE_H_
