// Relation: a rowid-stable in-memory heap of tuples plus hash indexes.

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

/// Tuple identifier: the position of a tuple in its relation's heap.
/// Tids are stable — the engine is append-only (the précis workload never
/// deletes from the source database; result databases are built fresh).
using Tid = uint64_t;

/// \brief A tuple is a vector of values, positionally aligned with the
/// relation schema's attributes.
using Tuple = std::vector<Value>;

/// \brief A populated relation: schema + heap + indexes.
///
/// Storage is dual-layout (DESIGN.md §13): the row heap remains the
/// authoritative store behind the pointer-returning Get/FetchPrevalidated
/// API, while per-attribute Columns mirror it and serve the bulk kernels
/// (ProjectRows, column scans) and the open-addressing equality indexes.
/// Insert appends to both, so the mirrors can never diverge.
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
  size_t num_tuples() const { return heap_.size(); }

  /// Appends a tuple; validates arity and types, enforces primary-key
  /// uniqueness if a key is declared, and maintains all indexes.
  /// Returns the new tuple's tid.
  Result<Tid> Insert(Tuple tuple);

  /// Fetches a tuple by rowid (counted as one tuple fetch, attributed to
  /// `ctx` when given).
  Result<const Tuple*> Get(Tid tid, ExecutionContext* ctx = nullptr) const;

  /// Unchecked positional access for iteration in tests/tools; does not
  /// count as an instrumented fetch.
  const Tuple& tuple(Tid tid) const { return heap_[tid]; }

  /// Uncharged single-attribute read off the columnar mirror; the planner
  /// uses this to extract join values without materializing the row.
  Value ColumnValue(Tid tid, size_t attribute) const {
    return columns_[attribute].GetValue(tid);
  }

  /// The columnar mirror of attribute `pos` (for kernels and benchmarks).
  const Column& column(size_t pos) const { return columns_[pos]; }

  /// Charged fetch of a tid the caller already validated — no bounds check
  /// and, critically, no fault-injection check: fault decisions stay on the
  /// planner thread, which replays them (database_generator.cc, DESIGN.md
  /// §12). The row-at-a-time reference for the ProjectRows kernel below.
  const Tuple* FetchPrevalidated(Tid tid, ExecutionContext* ctx) const;

  /// Bulk prevalidated fetch+project off the columnar mirror: fills
  /// `out[i * width + j]` with attribute `projection[j]` of tuple
  /// `tids[i]`, where `width = projection.size()`, iterating column-major
  /// so each attribute is one contiguous pass over its column. Charges
  /// `n` tuple fetches (identical totals to n FetchPrevalidated calls; no
  /// bounds or fault checks, same contract). `out` may be raw arena
  /// memory — cells are placement-new'd (Value is trivially destructible).
  void ProjectRows(const Tid* tids, size_t n,
                   const std::vector<size_t>& projection, Value* out,
                   ExecutionContext* ctx = nullptr) const;

  /// Identity-projection variant of ProjectRows: all attributes in schema
  /// order, `width = schema().num_attributes()`.
  void ProjectRowsAll(const Tid* tids, size_t n, Value* out,
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

  /// All tids, in heap order.
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
  std::vector<Tuple> heap_;
  std::vector<Column> columns_;  // SoA mirror of heap_, per attribute
  std::vector<std::unique_ptr<ColumnIndex>> indexes_;
  /// Every primary-key value in the heap, for O(1) uniqueness checks on
  /// Insert even when no index exists on the key attribute (the emit phase
  /// of result-database generation inserts into fresh unindexed relations;
  /// the old fallback was a full heap scan per insert — O(n^2) total).
  std::unordered_set<Value, ValueHash> pk_values_;
  AccessStats* stats_;
  // Owning database's mutation epoch (see Database::epoch()); may be null.
  std::atomic<uint64_t>* epoch_ = nullptr;
};

}  // namespace precis

#endif  // PRECIS_STORAGE_RELATION_H_
