#include "storage/relation.h"

#include <algorithm>
#include <numeric>
#include <unordered_set>

namespace precis {

const std::vector<Tid> ColumnIndex::kEmpty;

Result<Tid> Relation::Insert(const Tuple& tuple) {
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
  if (schema_.primary_key()) {
    size_t pk = *schema_.primary_key();
    const Value& key = tuple[pk];
    if (key.is_null()) {
      return Status::ConstraintViolation("NULL primary key in relation '" +
                                         name() + "'");
    }
    // pk_values_ holds the key column's values, so uniqueness is O(1)
    // whether or not an index exists on the key attribute.
    if (pk_values_.count(key) > 0) {
      return Status::ConstraintViolation(
          "duplicate primary key " + key.ToString() + " in relation '" +
          name() + "'");
    }
    pk_values_.insert(key);
  }
  Tid tid = num_tuples_++;
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

void Relation::ProjectRows(const Tid* tids, size_t n,
                           const std::vector<size_t>& projection, Value* out,
                           ExecutionContext* ctx) const {
  CountTupleFetches(n, ctx);
  const size_t width = projection.size();
  for (size_t j = 0; j < width; ++j) {
    columns_[projection[j]].Gather(tids, n, out + j, width);
  }
}

Status Relation::CreateIndex(const std::string& attribute_name) {
  auto idx = schema_.AttributeIndex(attribute_name);
  if (!idx.ok()) return idx.status();
  if (indexes_.size() < schema_.num_attributes()) {
    indexes_.resize(schema_.num_attributes());
  }
  auto index = std::make_unique<ColumnIndex>(schema_.attribute(*idx).type);
  const Column& col = columns_[*idx];
  for (Tid tid = 0; tid < num_tuples_; ++tid) {
    index->Insert(col.GetValue(tid), tid);
  }
  indexes_[*idx] = std::move(index);
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
  auto idx = schema_.AttributeIndex(attribute_name);
  if (!idx.ok()) return false;
  return IndexAt(*idx) != nullptr;
}

Result<std::vector<Tid>> Relation::LookupEquals(
    const std::string& attribute_name, const Value& key,
    ExecutionContext* ctx) const {
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
  std::vector<Tid> out;
  const Column& col = columns_[*idx];
  if (key.is_null()) {
    for (Tid tid = 0; tid < col.size(); ++tid) {
      if (col.IsNull(tid)) out.push_back(tid);
    }
    return out;
  }
  auto key_bits = Column::KeyBits(key, col.type());
  if (!key_bits) return out;  // cross-type or NaN key: nothing can match
  col.ScanEquals(*key_bits, &out);  // SIMD-dispatched, scalar-identical
  return out;
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
