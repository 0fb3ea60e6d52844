#include "precis/tuple_weights.h"

#include <algorithm>

namespace precis {

Status TupleWeightStore::SetWeights(const Database& db,
                                    const std::string& relation,
                                    std::vector<double> weights) {
  auto rel = db.GetRelation(relation);
  if (!rel.ok()) return rel.status();
  if (weights.size() != (*rel)->num_tuples()) {
    return Status::InvalidArgument(
        "weight count " + std::to_string(weights.size()) +
        " != tuple count " + std::to_string((*rel)->num_tuples()) +
        " for relation '" + relation + "'");
  }
  for (double w : weights) {
    if (w < 0.0 || w > 1.0) {
      return Status::InvalidArgument("tuple weight " + std::to_string(w) +
                                     " outside [0, 1]");
    }
  }
  weights_[relation] = std::move(weights);
  return Status::OK();
}

double TupleWeightStore::Weight(const std::string& relation, Tid tid) const {
  auto it = weights_.find(relation);
  if (it == weights_.end()) return 1.0;
  if (tid >= it->second.size()) return 1.0;
  return it->second[tid];
}

Status WeightsFromNumericAttribute(const Database& db,
                                   const std::string& relation,
                                   const std::string& attribute,
                                   TupleWeightStore* store, double lo,
                                   double hi) {
  if (store == nullptr) {
    return Status::InvalidArgument("null weight store");
  }
  if (lo < 0.0 || hi > 1.0 || lo > hi) {
    return Status::InvalidArgument(
        "normalization range must satisfy 0 <= lo <= hi <= 1");
  }
  auto rel = db.GetRelation(relation);
  if (!rel.ok()) return rel.status();
  auto idx = (*rel)->schema().AttributeIndex(attribute);
  if (!idx.ok()) return idx.status();
  DataType type = (*rel)->schema().attribute(*idx).type;
  if (type == DataType::kString) {
    return Status::InvalidArgument("attribute '" + attribute +
                                   "' is not numeric");
  }

  auto numeric = [&](const Value& v) -> double {
    if (v.is_int64()) return static_cast<double>(v.AsInt64());
    if (v.is_double()) return v.AsDouble();
    return 0.0;  // NULL handled below
  };

  double min = 0.0;
  double max = 0.0;
  bool any = false;
  for (Tid tid = 0; tid < (*rel)->num_tuples(); ++tid) {
    const Value v = (*rel)->ColumnValue(tid, *idx);
    if (v.is_null()) continue;
    double x = numeric(v);
    if (!any || x < min) min = x;
    if (!any || x > max) max = x;
    any = true;
  }

  std::vector<double> weights((*rel)->num_tuples(), lo);
  if (any) {
    double span = max - min;
    for (Tid tid = 0; tid < (*rel)->num_tuples(); ++tid) {
      const Value v = (*rel)->ColumnValue(tid, *idx);
      if (v.is_null()) continue;
      double frac = span > 0.0 ? (numeric(v) - min) / span : 1.0;
      weights[tid] = lo + (hi - lo) * frac;
    }
  }
  return store->SetWeights(db, relation, std::move(weights));
}

}  // namespace precis
