#include "storage/relation.h"

#include <algorithm>
#include <numeric>
#include <unordered_set>

namespace precis {

Status Relation::Validate(const Tuple& tuple) const {
  if (tuple.size() != schema_.num_attributes()) {
    return Status::InvalidArgument(
        "tuple arity " + std::to_string(tuple.size()) + " != schema arity " +
        std::to_string(schema_.num_attributes()) + " for relation '" +
        name() + "'");
  }
  for (size_t i = 0; i < tuple.size(); ++i) {
    if (!tuple[i].TypeMatches(schema_.attribute(i).type)) {
      return Status::InvalidArgument(
          "type mismatch for attribute '" + schema_.attribute(i).name +
          "' of relation '" + name() + "'");
    }
  }
  return Status::OK();
}

Result<Tid> Relation::Insert(const Tuple& tuple) {
  PRECIS_RETURN_NOT_OK(Validate(tuple));
  // Tids and index runs are 32-bit (columnar.h), so every relation stops
  // at the most rows an index build takes, indexed or not: no tid wraps.
  if (num_tuples_ >= ColumnIndex::kMaxRows) {
    return Status::OutOfRange("relation '" + name() + "' is full: a " +
                              "relation holds at most " +
                              std::to_string(ColumnIndex::kMaxRows) + " rows");
  }
  if (schema_.primary_key()) {
    size_t pk = *schema_.primary_key();
    const Value& key = tuple[pk];
    if (key.is_null()) {
      return Status::ConstraintViolation("NULL primary key in relation '" +
                                         name() + "'");
    }
    // pk_bits_ holds the key column's canonical bits, so uniqueness is
    // O(1) whether or not an index exists on the key attribute.
    auto bits = Column::KeyBits(key, schema_.attribute(pk).type);
    if (bits && !pk_bits_.Insert(*bits)) {
      return Status::ConstraintViolation(
          "duplicate primary key " + key.ToString() + " in relation '" +
          name() + "'");
    }
  }
  const Tid tid = static_cast<Tid>(num_tuples_++);  // below kMaxRows
  for (size_t pos = 0; pos < indexes_.size(); ++pos) {
    if (indexes_[pos] != nullptr) indexes_[pos]->Insert(tuple[pos], tid);
  }
  for (size_t pos = 0; pos < tuple.size(); ++pos) {
    columns_[pos].Append(tuple[pos]);
  }
  BumpEpoch();
  return tid;
}

Result<Tuple> Relation::Get(Tid tid, ExecutionContext* ctx) const {
  if (tid >= num_tuples_) {
    return Status::OutOfRange("tid " + std::to_string(tid) +
                              " out of range for relation '" + name() +
                              "' with " + std::to_string(num_tuples_) +
                              " tuples");
  }
  // The fault check sits after the bounds check (a bad tid is a caller bug,
  // not a storage fault) and before the charge: a failed fetch attempt
  // consumed no instrumented access (DESIGN.md §12).
  if (ctx != nullptr) {
    PRECIS_RETURN_NOT_OK(ctx->CheckFault(FaultSite::kTupleFetch));
  }
  CountTupleFetch(ctx);
  return tuple(tid);
}

Tuple Relation::tuple(Tid tid) const {
  Tuple out;
  out.reserve(columns_.size());
  for (const Column& col : columns_) out.push_back(col.GetValue(tid));
  return out;
}

Status Relation::CreateIndex(const std::string& attribute_name) {
  auto idx = schema_.AttributeIndex(attribute_name);
  if (!idx.ok()) return idx.status();
  auto index = ColumnIndex::Build(columns_[*idx]);
  if (!index.ok()) return index.status();
  if (indexes_.size() < schema_.num_attributes()) {
    indexes_.resize(schema_.num_attributes());
  }
  indexes_[*idx] = std::make_unique<ColumnIndex>(std::move(*index));
  // An index changes the access path (probe vs scan counts), so cached
  // answers fingerprinted on the epoch must not survive it.
  BumpEpoch();
  return Status::OK();
}

std::vector<std::string> Relation::IndexedAttributes() const {
  std::vector<std::string> out;
  for (size_t pos = 0; pos < indexes_.size(); ++pos) {
    if (indexes_[pos] != nullptr) out.push_back(schema_.attribute(pos).name);
  }
  return out;
}

bool Relation::HasIndex(const std::string& attribute_name) const {
  return GetIndex(attribute_name) != nullptr;
}

const ColumnIndex* Relation::GetIndex(const std::string& attribute_name) const {
  auto idx = schema_.AttributeIndex(attribute_name);
  if (!idx.ok()) return nullptr;
  return IndexAt(*idx);
}

StorageBytes Relation::bytes() const {
  StorageBytes out;
  for (const Column& col : columns_) out.columns += col.bytes();
  out.primary_keys = pk_bits_.bytes();
  for (const auto& index : indexes_) {
    if (index == nullptr) continue;
    out.index_entries += index->entry_bytes();
    out.index_tids += index->tid_bytes();
    out.owned_runs += index->owned_bytes();
  }
  return out;
}

Result<std::span<const Tid>> Relation::LookupEqualsView(
    const std::string& attribute_name, const Value& key,
    std::vector<Tid>* scan_out, ExecutionContext* ctx) const {
  auto idx = schema_.AttributeIndex(attribute_name);
  if (!idx.ok()) return idx.status();
  if (const ColumnIndex* index = IndexAt(*idx)) {
    if (ctx != nullptr) {
      PRECIS_RETURN_NOT_OK(ctx->CheckFault(FaultSite::kIndexProbe));
    }
    CountIndexProbe(ctx);
    return index->Lookup(key);
  }
  if (ctx != nullptr) {
    PRECIS_RETURN_NOT_OK(ctx->CheckFault(FaultSite::kRelationScan));
  }
  CountSequentialScan(ctx);
  // Column scan: one contiguous pass over the attribute's bit vector, with
  // the match semantics of `ColumnValue(tid, *idx) == key` (NULL matches
  // NULL, NaN matches nothing, cross-type matches nothing).
  std::vector<Tid>& out = *scan_out;
  out.clear();
  const Column& col = columns_[*idx];
  if (key.is_null()) {
    for (Tid tid = 0; tid < col.size(); ++tid) {
      if (col.IsNull(tid)) out.push_back(tid);
    }
  } else if (auto key_bits = Column::KeyBits(key, col.type())) {
    col.ScanEquals(*key_bits, &out);  // SIMD-dispatched, scalar-identical
  }  // else a cross-type or NaN key: nothing can match
  return std::span<const Tid>(out);
}

Result<std::vector<Tid>> Relation::LookupEquals(
    const std::string& attribute_name, const Value& key,
    ExecutionContext* ctx) const {
  std::vector<Tid> scan;
  auto tids = LookupEqualsView(attribute_name, key, &scan, ctx);
  if (!tids.ok()) return tids.status();
  return std::vector<Tid>(tids->begin(), tids->end());
}

void Relation::PrefetchEquals(const std::string& attribute_name,
                              const Value& key) const {
  auto idx = schema_.AttributeIndex(attribute_name);
  if (!idx.ok()) return;
  if (const ColumnIndex* index = IndexAt(*idx)) index->Prefetch(key);
}

std::vector<Tid> Relation::AllTids() const {
  // Exact-size allocation up front; iota instead of an indexed loop.
  std::vector<Tid> out(num_tuples_);
  std::iota(out.begin(), out.end(), Tid{0});
  return out;
}

Result<std::vector<Value>> Relation::DistinctValues(
    const std::string& attribute_name) const {
  auto idx = schema_.AttributeIndex(attribute_name);
  if (!idx.ok()) return idx.status();
  std::unordered_set<Value, ValueHash> seen;
  // Reserve for the worst case (all values distinct) so neither the hash
  // set rehashes nor the output vector reallocates mid-scan.
  seen.reserve(num_tuples_);
  std::vector<Value> out;
  out.reserve(num_tuples_);
  const Column& col = columns_[*idx];
  for (Tid tid = 0; tid < col.size(); ++tid) {
    Value v = col.GetValue(tid);
    if (seen.insert(v).second) out.push_back(v);
  }
  return out;
}

}  // namespace precis
