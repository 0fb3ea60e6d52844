// Relation: rowid-addressed in-memory columns of tuples plus hash indexes.

#ifndef PRECIS_STORAGE_RELATION_H_
#define PRECIS_STORAGE_RELATION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/execution_context.h"
#include "common/result.h"
#include "common/status.h"
#include "storage/access_stats.h"
#include "storage/columnar.h"
#include "storage/schema.h"
#include "storage/value.h"

namespace precis {

/// Tuple identifier: the row position of a tuple in its relation's columns.
/// Tids are stable — the engine is append-only (the précis workload never
/// deletes from the source database; result databases are built fresh).
using Tid = uint64_t;

/// \brief A tuple is a vector of values, positionally aligned with the
/// relation schema's attributes.
using Tuple = std::vector<Value>;

/// \brief A populated relation: schema + columns + indexes.
///
/// Storage is columnar (DESIGN.md §13): one Column per attribute is the
/// only copy of each tuple. Get and tuple() materialize a row from the
/// columns on demand; the bulk kernels (ProjectRows, column scans) and the
/// open-addressing equality indexes read the columns directly.
///
/// All reads that the précis generators perform are instrumented through the
/// AccessStats of the owning Database (see access_stats.h). Instrumented
/// entry points additionally take an optional per-query ExecutionContext:
/// when one is passed, the same counts are attributed to it (and charged
/// against its access budget), so concurrent queries sharing one Database
/// can each be accounted individually while the global counters keep the
/// cross-query totals.
class Relation {
 public:
  explicit Relation(RelationSchema schema, AccessStats* stats = nullptr)
      : schema_(std::move(schema)), stats_(stats) {
    columns_.reserve(schema_.num_attributes());
    for (size_t a = 0; a < schema_.num_attributes(); ++a) {
      columns_.emplace_back(schema_.attribute(a).type);
    }
  }

  const RelationSchema& schema() const { return schema_; }
  const std::string& name() const { return schema_.name(); }
  size_t num_tuples() const { return num_tuples_; }

  /// Appends a tuple; validates arity and types, enforces primary-key
  /// uniqueness if a key is declared, and maintains all indexes.
  /// Returns the new tuple's tid.
  Result<Tid> Insert(const Tuple& tuple);

  /// Fetches a tuple by rowid, materialized from the columns: bounds check,
  /// then the kTupleFetch fault check, then one tuple-fetch charge
  /// (attributed to `ctx` when given).
  Result<Tuple> Get(Tid tid, ExecutionContext* ctx = nullptr) const;

  /// The whole row at `tid`, materialized from the columns; unchecked, and
  /// not counted as an instrumented fetch. Readers that want one cell use
  /// ColumnValue instead.
  Tuple tuple(Tid tid) const;

  /// Uncharged single-attribute read: join-value extraction, text
  /// indexing and rendering read cells without materializing the row.
  Value ColumnValue(Tid tid, size_t attribute) const {
    return columns_[attribute].GetValue(tid);
  }

  /// The column of attribute `pos` (for kernels and benchmarks).
  const Column& column(size_t pos) const { return columns_[pos]; }

  /// Bulk fetch+project of tids the caller already validated: fills
  /// `out[i * width + j]` with attribute `projection[j]` of tuple
  /// `tids[i]`, where `width = projection.size()`, iterating column-major
  /// so each attribute is one contiguous pass over its column. Charges
  /// `n` tuple fetches. No bounds check and, critically, no fault-injection
  /// check: fault decisions stay on the planner thread, which replays them
  /// (database_generator.cc, DESIGN.md §12). `out` may be raw arena
  /// memory — cells are placement-new'd (Value is trivially destructible).
  void ProjectRows(const Tid* tids, size_t n,
                   const std::vector<size_t>& projection, Value* out,
                   ExecutionContext* ctx = nullptr) const;

  /// Builds (or rebuilds) a hash index on the named attribute.
  Status CreateIndex(const std::string& attribute_name);

  /// True if an index exists on the attribute.
  bool HasIndex(const std::string& attribute_name) const;

  /// Names of all indexed attributes, in attribute order.
  std::vector<std::string> IndexedAttributes() const;

  /// Tids whose `attribute_name` equals `key`. Uses the index when present
  /// (one index probe); otherwise falls back to a sequential scan (counted,
  /// attributed to `ctx` when given).
  Result<std::vector<Tid>> LookupEquals(const std::string& attribute_name,
                                        const Value& key,
                                        ExecutionContext* ctx = nullptr) const;

  /// Pure memory hint for an upcoming LookupEquals(attribute_name, key):
  /// prefetches the hash-index slot the probe will touch (no-op without an
  /// index). No charges, no faults, no stats — issuing it speculatively
  /// ahead of a budgeted probe loop changes no observable behavior.
  void PrefetchEquals(const std::string& attribute_name,
                      const Value& key) const;

  /// All tids, in insertion order.
  std::vector<Tid> AllTids() const;

  /// Distinct values of the attribute (used by the data generator and tests).
  Result<std::vector<Value>> DistinctValues(
      const std::string& attribute_name) const;

  /// Records one submitted statement against this relation (see
  /// AccessStats::statements). Called by the query layer, not by storage
  /// primitives.
  void CountStatement(ExecutionContext* ctx = nullptr) const {
    if (stats_ != nullptr) {
      stats_->statements.fetch_add(1, std::memory_order_relaxed);
    }
    if (ctx != nullptr) ctx->ChargeStatement();
  }

  void set_stats(AccessStats* stats) { stats_ = stats; }

  /// Installs the owning database's mutation-epoch counter; Insert and
  /// CreateIndex bump it so answer caches keyed on the epoch invalidate
  /// (Database wires this in CreateRelation; standalone relations have
  /// none). nullptr detaches.
  void set_epoch_counter(std::atomic<uint64_t>* epoch) { epoch_ = epoch; }

 private:
  void BumpEpoch() const {
    if (epoch_ != nullptr) epoch_->fetch_add(1, std::memory_order_relaxed);
  }

  void CountIndexProbe(ExecutionContext* ctx) const {
    if (stats_ != nullptr) {
      stats_->index_probes.fetch_add(1, std::memory_order_relaxed);
    }
    if (ctx != nullptr) ctx->ChargeIndexProbe();
  }
  void CountTupleFetch(ExecutionContext* ctx) const {
    if (stats_ != nullptr) {
      stats_->tuple_fetches.fetch_add(1, std::memory_order_relaxed);
    }
    if (ctx != nullptr) ctx->ChargeTupleFetch();
  }
  /// Bulk form: every Charge* is a plain relaxed fetch_add with no other
  /// side effect, so adding n at once is indistinguishable from n single
  /// charges.
  void CountTupleFetches(size_t n, ExecutionContext* ctx) const {
    if (stats_ != nullptr) {
      stats_->tuple_fetches.fetch_add(n, std::memory_order_relaxed);
    }
    if (ctx != nullptr) ctx->ChargeTupleFetches(n);
  }
  void CountSequentialScan(ExecutionContext* ctx) const {
    if (stats_ != nullptr) {
      stats_->sequential_scans.fetch_add(1, std::memory_order_relaxed);
    }
    if (ctx != nullptr) ctx->ChargeSequentialScan();
  }

  /// The index on attribute position `pos`, or null. Flat vector keyed by
  /// position instead of a map: the index probe (LookupEquals →
  /// CountIndexProbe) is the hottest storage call in the generators, and a
  /// positional load replaces an rb-tree walk per probe. Sized lazily by
  /// CreateIndex; an empty vector means no indexes.
  const ColumnIndex* IndexAt(size_t pos) const {
    return pos < indexes_.size() ? indexes_[pos].get() : nullptr;
  }

  RelationSchema schema_;
  size_t num_tuples_ = 0;
  std::vector<Column> columns_;  // the tuples, one column per attribute
  std::vector<std::unique_ptr<ColumnIndex>> indexes_;
  /// Every primary-key value in the relation, for O(1) uniqueness checks
  /// on Insert even when no index exists on the key attribute (the emit
  /// phase of result-database generation inserts into fresh unindexed
  /// relations; the old fallback was a full scan per insert — O(n^2)
  /// total).
  std::unordered_set<Value, ValueHash> pk_values_;
  AccessStats* stats_;
  // Owning database's mutation epoch (see Database::epoch()); may be null.
  std::atomic<uint64_t>* epoch_ = nullptr;
};

}  // namespace precis

#endif  // PRECIS_STORAGE_RELATION_H_
