// The partition-access interface the Fig. 5 planner reads through
// (DESIGN.md §11, §15).
//
// ResultDatabaseGenerator makes every output-shaping decision itself, from
// tids and counts only; what it needs from storage is small: per relation
// the schema and global tuple count, uncharged single-attribute reads (to
// drive join keys), charged bulk projection by global tid (to materialize
// accepted tuples), statement counting, and per join edge the equality
// lookups of the edge's keys. A source serves those over N >= 1
// partitions of one logical database:
//
//   * DatabaseSource (below) is the one-partition source — a view over an
//     existing Database that looks keys up on demand;
//   * ShardedSource (shard/sharded_source.h) serves one query over N
//     partitions of that same Database, which are sets of its tids: it
//     reads through a DatabaseSource and applies the query's fault plan.
//
// Every source charges the query's ExecutionContext exactly as the
// unpartitioned Relation calls would, so budgets, fault sequences and
// answers do not depend on the partition count.

#ifndef PRECIS_PRECIS_PARTITION_SOURCE_H_
#define PRECIS_PRECIS_PARTITION_SOURCE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/execution_context.h"
#include "common/result.h"
#include "storage/database.h"
#include "storage/relation.h"

namespace precis {

class TaskPool;

/// \brief One join edge's equality lookups, one per key of the edge.
class KeyLookup {
 public:
  KeyLookup() = default;
  KeyLookup(const KeyLookup&) = delete;
  KeyLookup& operator=(const KeyLookup&) = delete;
  virtual ~KeyLookup() = default;

  /// The ascending global tids whose attribute equals key `k`, with exactly
  /// the charge and fault-check sequence Relation::LookupEquals produces on
  /// `ctx` (attribute-missing error first; kIndexProbe check and one probe
  /// charge when indexed, kRelationScan check and one scan charge
  /// otherwise). A failed attempt may be retried. The view is read in place
  /// — an index posting or a buffer the lookup owns — and stays valid for
  /// the lookup object's lifetime, provided nothing inserts into the source
  /// relation meanwhile.
  virtual Result<std::span<const Tid>> Lookup(size_t k,
                                              ExecutionContext* ctx) = 0;
};

/// \brief The planner's view of one source relation, addressed by global
/// tid.
class SourceRelation {
 public:
  SourceRelation() = default;
  SourceRelation(const SourceRelation&) = delete;
  SourceRelation& operator=(const SourceRelation&) = delete;
  virtual ~SourceRelation() = default;

  virtual const RelationSchema& schema() const = 0;
  /// Global tuple count (over all partitions).
  virtual size_t num_tuples() const = 0;

  /// Uncharged single-attribute read: join-key extraction.
  virtual Value ColumnValue(Tid tid, size_t attribute) const = 0;

  /// One submitted statement, attributed to `ctx` (counted, never
  /// budget-charged).
  virtual void CountStatement(ExecutionContext* ctx) const = 0;

  /// Charged bulk fetch+project of planner-validated tids, with
  /// Relation::ProjectRows' contract: `out[i * width + j]` receives
  /// attribute `projection[j]` of `tids[i]`, `n` tuple fetches are charged,
  /// no bounds or fault checks. Safe to call from pool threads.
  virtual void ProjectRows(const Tid* tids, size_t n,
                           const std::vector<size_t>& projection, Value* out,
                           ExecutionContext* ctx) const = 0;

  /// The lookups of one join edge over `keys` (which must outlive the
  /// result). `pool` is where the source may run per-partition work; null
  /// means the query runs inline on the caller.
  virtual std::unique_ptr<KeyLookup> LookupKeys(const std::string& attribute,
                                                const std::vector<Value>& keys,
                                                TaskPool* pool) const = 0;

  /// Tuples of this relation on partitions the query runs without — the
  /// upper bound a partition outage can cost it (DESIGN.md §17).
  virtual uint64_t unavailable_tuples() const { return 0; }
};

/// \brief A generation source: N >= 1 partitions of one logical database.
class PartitionSource {
 public:
  PartitionSource() = default;
  PartitionSource(const PartitionSource&) = delete;
  PartitionSource& operator=(const PartitionSource&) = delete;
  virtual ~PartitionSource() = default;

  virtual size_t num_partitions() const = 0;
  virtual Result<std::unique_ptr<SourceRelation>> OpenRelation(
      const std::string& name) const = 0;
  /// The logical database's foreign keys (the FK carry-over candidates).
  virtual const std::vector<ForeignKey>& foreign_keys() const = 0;
  /// Partitions this query runs without, ascending; empty when healthy.
  virtual std::vector<uint32_t> skipped_partitions() const { return {}; }
};

/// \brief The one-partition source: a view over an existing Database. No
/// copy and no per-tuple state; every call forwards to the Relation, and
/// each edge's keys are looked up on demand, so the planner performs
/// exactly the probes the keys it reaches need.
class DatabaseSource final : public PartitionSource {
 public:
  /// `db` must outlive the source.
  explicit DatabaseSource(const Database* db) : db_(db) {}

  size_t num_partitions() const override { return 1; }
  Result<std::unique_ptr<SourceRelation>> OpenRelation(
      const std::string& name) const override;
  const std::vector<ForeignKey>& foreign_keys() const override {
    return db_->foreign_keys();
  }

 private:
  const Database* db_;
};

}  // namespace precis

#endif  // PRECIS_PRECIS_PARTITION_SOURCE_H_
