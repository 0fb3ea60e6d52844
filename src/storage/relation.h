// Relation: rowid-addressed in-memory columns of tuples plus hash indexes.

#ifndef PRECIS_STORAGE_RELATION_H_
#define PRECIS_STORAGE_RELATION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/execution_context.h"
#include "common/flat_key_set.h"
#include "common/result.h"
#include "common/status.h"
#include "storage/access_stats.h"
#include "storage/columnar.h"
#include "storage/schema.h"
#include "storage/value.h"

namespace precis {

/// \brief A tuple is a vector of values, positionally aligned with the
/// relation schema's attributes.
using Tuple = std::vector<Value>;

/// \brief Bytes held by stored structures by kind, computed from their
/// capacities (DESIGN.md §13): a relation's, or summed over a database. An
/// upper bound on what is resident: spare capacity a vector never wrote
/// need not be.
struct StorageBytes {
  size_t columns = 0;        // payload words and null bitmaps
  size_t primary_keys = 0;   // primary-key sets (bitmap words or slots)
  size_t index_entries = 0;  // index key tables (direct entries or slots)
  size_t index_tids = 0;     // built tid arrays and NULL runs
  size_t owned_runs = 0;     // runs of keys written after an index build

  size_t total() const {
    return columns + primary_keys + index_entries + index_tids + owned_runs;
  }
  StorageBytes& operator+=(const StorageBytes& other) {
    columns += other.columns;
    primary_keys += other.primary_keys;
    index_entries += other.index_entries;
    index_tids += other.index_tids;
    owned_runs += other.owned_runs;
    return *this;
  }
};

/// \brief A populated relation: schema + columns + indexes.
///
/// Storage is columnar (DESIGN.md §13): one Column per attribute is the
/// only copy of each tuple. Get and tuple() materialize a row from the
/// columns on demand; column scans and the equality indexes read the
/// columns directly.
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

  /// Checks `tuple`'s arity, then each value's type (NULL fits any), as
  /// Insert does first.
  Status Validate(const Tuple& tuple) const;

  /// Appends a tuple; validates arity and types, refuses a row past
  /// ColumnIndex::kMaxRows (tids are 32-bit), enforces primary-key
  /// uniqueness if a key is declared, and maintains all indexes (a key's
  /// run moves out of the bulk-built array into a vector its index owns).
  /// Returns the new tuple's tid.
  Result<Tid> Insert(const Tuple& tuple);

  /// True when the primary-key set holds canonical key bits `bits` (as
  /// Column::KeyBits makes them). The set holds every non-NaN key of a
  /// relation with a declared primary key, and nothing otherwise.
  bool HasPrimaryKeyBits(uint64_t bits) const {
    return pk_bits_.Contains(bits);
  }

  /// The primary-key set (empty without a declared key), for its layout
  /// and size.
  const FlatKeySet& primary_key_set() const { return pk_bits_; }

  /// Bytes held by the columns, primary-key set and indexes.
  StorageBytes bytes() const;

  /// Fetches a tuple by rowid, materialized from the columns: bounds check,
  /// then the kTupleFetch fault check, then one tuple-fetch charge
  /// (attributed to `ctx` when given).
  Result<Tuple> Get(Tid tid, ExecutionContext* ctx = nullptr) const;

  /// The whole row at `tid`, materialized from the columns; unchecked, and
  /// not counted as an instrumented fetch. Readers that want one cell use
  /// ColumnValue instead.
  Tuple tuple(Tid tid) const;

  /// Uncharged single-attribute read: join-value extraction, text
  /// indexing and result-database rendering read cells without
  /// materializing the row.
  Value ColumnValue(Tid tid, size_t attribute) const {
    return columns_[attribute].GetValue(tid);
  }

  /// The column of attribute `pos` (for kernels and benchmarks).
  const Column& column(size_t pos) const { return columns_[pos]; }

  /// Builds (or rebuilds) a hash index on the named attribute, in bulk:
  /// every run laid out in one tid array (ColumnIndex::Build). Fails when
  /// the relation has more than ColumnIndex::kMaxRows tuples.
  Status CreateIndex(const std::string& attribute_name);

  /// True if an index exists on the attribute.
  bool HasIndex(const std::string& attribute_name) const;

  /// The index on the attribute, or null (for its layout and size).
  const ColumnIndex* GetIndex(const std::string& attribute_name) const;

  /// Names of all indexed attributes, in attribute order.
  std::vector<std::string> IndexedAttributes() const;

  /// Tids whose `attribute_name` equals `key`, ascending. Uses the index
  /// when present (one index probe); otherwise falls back to a sequential
  /// scan (counted, attributed to `ctx` when given). Order of checks:
  /// attribute lookup, then the kIndexProbe / kRelationScan fault check,
  /// then the charge.
  ///
  /// Non-owning form: an index run is returned in place — a span of the
  /// index's tid array, or of the vector that owns a key written after
  /// the build — valid until the next Insert or CreateIndex. A scan writes
  /// its tids to `*scan_out`, which must be non-null when the attribute
  /// has no index, and returns a view of it.
  Result<std::span<const Tid>> LookupEqualsView(
      const std::string& attribute_name, const Value& key,
      std::vector<Tid>* scan_out, ExecutionContext* ctx = nullptr) const;

  /// Owning form: a copy of LookupEqualsView's tids.
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

  /// Records `n` tuple fetches the caller read in place, by tid, without a
  /// Get (attributed to `ctx` when given): the Fig. 5 planner charges its
  /// accepted tuples in bulk. Every charge is a plain relaxed fetch_add, so
  /// n at once is indistinguishable from n single charges. Never consults
  /// the fault injector: fault decisions stay on the planner thread, which
  /// replays them (database_generator.cc, DESIGN.md §12).
  void CountTupleFetches(size_t n, ExecutionContext* ctx = nullptr) const {
    if (stats_ != nullptr) {
      stats_->tuple_fetches.fetch_add(n, std::memory_order_relaxed);
    }
    if (ctx != nullptr) ctx->ChargeTupleFetches(n);
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
  /// Canonical bits (Column::KeyBits) of every primary key in the
  /// relation, for O(1) uniqueness checks on Insert even when no index
  /// exists on the key attribute (a materialized result database inserts
  /// into fresh unindexed relations), and for the FK check's parent probe.
  /// NaN keys have no bits and never enter: under Value equality they
  /// duplicate nothing. Dense keys make it a bitmap.
  FlatKeySet pk_bits_;
  AccessStats* stats_;
  // Owning database's mutation epoch (see Database::epoch()); may be null.
  std::atomic<uint64_t>* epoch_ = nullptr;
};

}  // namespace precis

#endif  // PRECIS_STORAGE_RELATION_H_
