#include "sql/select.h"

#include <sstream>

#include "common/retry.h"

namespace precis {
namespace {

// True when fault checks can actually fire for this query — the retry
// wrappers below are skipped entirely otherwise, so the fault-free hot path
// stays a direct call (the < 5% zero-fault-overhead gate, DESIGN.md §12).
bool FaultsArmed(const ExecutionContext* ctx) {
  return ctx != nullptr && ctx->fault_injector() != nullptr &&
         ctx->fault_injector()->armed();
}

}  // namespace

Tuple ProjectTuple(const Tuple& tuple, const std::vector<size_t>& projection) {
  Tuple out;
  out.reserve(projection.size());
  for (size_t idx : projection) out.push_back(tuple[idx]);
  return out;
}

Result<std::vector<size_t>> ResolveProjection(
    const RelationSchema& schema, const std::vector<std::string>& attributes) {
  std::vector<size_t> out;
  out.reserve(attributes.size());
  for (const std::string& name : attributes) {
    auto idx = schema.AttributeIndex(name);
    if (!idx.ok()) return idx.status();
    out.push_back(*idx);
  }
  return out;
}

Result<std::vector<Row>> FetchByTids(const Relation& relation,
                                     const std::vector<Tid>& tids,
                                     const std::vector<size_t>& projection,
                                     std::optional<size_t> limit,
                                     ExecutionContext* ctx) {
  relation.CountStatement(ctx);
  std::vector<Row> rows;
  size_t max_rows = limit.value_or(tids.size());
  rows.reserve(std::min(max_rows, tids.size()));
  // Identity projections (every attribute, schema order) keep the tuple Get
  // materialized instead of rebuilding it value by value.
  const bool identity =
      IsIdentityProjection(projection, relation.schema().num_attributes());
  const bool faults = FaultsArmed(ctx);
  for (Tid tid : tids) {
    if (rows.size() >= max_rows) break;
    if (ctx != nullptr && ctx->ShouldStop()) break;
    auto tuple = faults ? RetryWithBackoff(ctx->retry_policy(), ctx,
                                           FaultSite::kTupleFetch,
                                           [&] { return relation.Get(tid, ctx); })
                        : relation.Get(tid, ctx);
    if (!tuple.ok()) return tuple.status();
    rows.push_back(Row{tid, identity ? std::move(*tuple)
                                     : ProjectTuple(*tuple, projection)});
  }
  return rows;
}

Result<std::vector<Row>> FetchByJoinValues(
    const Relation& relation, const std::string& attribute,
    const std::vector<Value>& keys, const std::vector<size_t>& projection,
    std::optional<size_t> limit, ExecutionContext* ctx) {
  relation.CountStatement(ctx);
  std::vector<Row> rows;
  size_t max_rows = limit.value_or(SIZE_MAX);
  // Lower-bound guess: at least one row per probed key (the common 1:N
  // join yields more; growth then doubles from a sensible start instead of
  // reallocating through the small sizes).
  rows.reserve(std::min(max_rows, keys.size()));
  const bool identity =
      IsIdentityProjection(projection, relation.schema().num_attributes());
  const bool faults = FaultsArmed(ctx);
  for (size_t k = 0; k < keys.size(); ++k) {
    const Value& key = keys[k];
    if (rows.size() >= max_rows) break;
    if (ctx != nullptr && ctx->ShouldStop()) break;
    // Rolling software prefetch of the index slot a few probes ahead — a
    // pure cache hint, so truncation points and access charges are
    // untouched (byte-identity stays intact).
    if (k + 4 < keys.size()) relation.PrefetchEquals(attribute, keys[k + 4]);
    // The per-key lookup is one retriable unit: the join-value fault gate
    // plus the probe/scan behind it, so a transient fault on either retries
    // the whole key instead of leaving a half-consumed check sequence.
    auto tids = faults
                    ? RetryWithBackoff(
                          ctx->retry_policy(), ctx, FaultSite::kJoinValueLookup,
                          [&]() -> Result<std::vector<Tid>> {
                            PRECIS_RETURN_NOT_OK(
                                ctx->CheckFault(FaultSite::kJoinValueLookup));
                            return relation.LookupEquals(attribute, key, ctx);
                          })
                    : relation.LookupEquals(attribute, key, ctx);
    if (!tids.ok()) return tids.status();
    for (Tid tid : *tids) {
      if (rows.size() >= max_rows) break;
      if (ctx != nullptr && ctx->ShouldStop()) break;
      auto tuple =
          faults ? RetryWithBackoff(ctx->retry_policy(), ctx,
                                    FaultSite::kTupleFetch,
                                    [&] { return relation.Get(tid, ctx); })
                 : relation.Get(tid, ctx);
      if (!tuple.ok()) return tuple.status();
      rows.push_back(Row{tid, identity ? std::move(*tuple)
                                       : ProjectTuple(*tuple, projection)});
    }
  }
  return rows;
}

Result<PerValueScanSet> PerValueScanSet::Open(const Relation& relation,
                                              const std::string& attribute,
                                              std::vector<Value> keys,
                                              std::vector<size_t> projection,
                                              ExecutionContext* ctx) {
  PerValueScanSet set;
  set.relation_ = &relation;
  set.ctx_ = ctx;
  set.attribute_ = attribute;
  set.keys_ = std::move(keys);
  set.projection_ = std::move(projection);
  set.scans_.reserve(set.keys_.size());
  const bool faults = FaultsArmed(ctx);
  for (size_t k = 0; k < set.keys_.size(); ++k) {
    const Value& key = set.keys_[k];
    // Charge-free slot prefetch a few probes ahead (see FetchByJoinValues).
    if (k + 4 < set.keys_.size()) {
      relation.PrefetchEquals(attribute, set.keys_[k + 4]);
    }
    if (ctx != nullptr && ctx->ShouldStop()) {
      // Budget/deadline hit mid-open: the remaining scans open drained so
      // the set stays structurally complete (key(i) etc. remain valid).
      set.scans_.emplace_back();
      continue;
    }
    // Each per-value scan is its own parameterized statement (cursor).
    relation.CountStatement(ctx);
    auto tids =
        faults ? RetryWithBackoff(
                     ctx->retry_policy(), ctx, FaultSite::kJoinValueLookup,
                     [&]() -> Result<std::vector<Tid>> {
                       PRECIS_RETURN_NOT_OK(
                           ctx->CheckFault(FaultSite::kJoinValueLookup));
                       return relation.LookupEquals(attribute, key, ctx);
                     },
                     &set.retries_)
               : relation.LookupEquals(attribute, key, ctx);
    if (!tids.ok()) {
      if (!tids.status().IsUnavailable()) return tids.status();
      // Retries exhausted on an injected fault: this key's scan opens
      // drained and the degradation is reported, not fatal — the paper's
      // constraints already give partial answers well-defined semantics.
      ++set.failed_opens_;
      set.scans_.emplace_back();
      continue;
    }
    set.scans_.push_back(std::move(*tids));
  }
  set.positions_.assign(set.scans_.size(), 0);
  return set;
}

bool PerValueScanSet::AllClosed() const {
  for (size_t i = 0; i < scans_.size(); ++i) {
    if (IsOpen(i)) return false;
  }
  return true;
}

std::optional<Row> PerValueScanSet::Next(size_t i) {
  if (!IsOpen(i)) return std::nullopt;
  Tid tid = scans_[i][positions_[i]++];
  auto tuple = FaultsArmed(ctx_)
                   ? RetryWithBackoff(ctx_->retry_policy(), ctx_,
                                      FaultSite::kTupleFetch,
                                      [&] { return relation_->Get(tid, ctx_); },
                                      &retries_)
                   : relation_->Get(tid, ctx_);
  if (!tuple.ok()) {
    // An exhausted transient fault drops this one tuple (counted, surfaced
    // in the DegradationReport); the scan itself stays usable. Tids in
    // scans_ came from the relation's own index, so a non-fault failure
    // cannot happen for valid scans.
    if (tuple.status().IsUnavailable()) ++dropped_fetches_;
    return std::nullopt;
  }
  return Row{tid, ProjectTuple(*tuple, projection_)};
}

std::string PerValueScanSet::ToSql(const Relation& relation) const {
  std::ostringstream os;
  for (const Value& key : keys_) {
    os << RenderInListSql(relation.schema(), attribute_, {key}, projection_,
                          std::nullopt)
       << ";\n";
  }
  return os.str();
}

std::string RenderInListSql(const RelationSchema& schema,
                            const std::string& attribute,
                            const std::vector<Value>& keys,
                            const std::vector<size_t>& projection,
                            std::optional<size_t> limit) {
  std::ostringstream os;
  os << "SELECT ";
  for (size_t i = 0; i < projection.size(); ++i) {
    if (i > 0) os << ", ";
    os << schema.attribute(projection[i]).name;
  }
  if (projection.empty()) os << "*";
  os << " FROM " << schema.name() << " WHERE " << attribute << " IN (";
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i > 0) os << ", ";
    if (keys[i].is_string()) {
      os << "'" << keys[i].ToString() << "'";
    } else {
      os << keys[i].ToString();
    }
  }
  os << ")";
  if (limit) os << " AND RowNum <= " << *limit;
  return os.str();
}

}  // namespace precis
