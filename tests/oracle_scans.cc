#include "oracle_scans.h"

#include "common/retry.h"
#include "precis/dbgen_common.h"

namespace precis {

using dbgen_internal::FaultsArmed;

Tuple ProjectTuple(const Tuple& tuple, const std::vector<size_t>& projection) {
  Tuple out;
  out.reserve(projection.size());
  for (size_t idx : projection) out.push_back(tuple[idx]);
  return out;
}

Result<PerValueScanSet> PerValueScanSet::Open(const Relation& relation,
                                              const std::string& attribute,
                                              std::vector<Value> keys,
                                              std::vector<size_t> projection,
                                              ExecutionContext* ctx) {
  PerValueScanSet set;
  set.relation_ = &relation;
  set.ctx_ = ctx;
  set.keys_ = std::move(keys);
  set.projection_ = std::move(projection);
  set.scans_.reserve(set.keys_.size());
  const bool faults = FaultsArmed(ctx);
  for (size_t k = 0; k < set.keys_.size(); ++k) {
    const Value& key = set.keys_[k];
    // Charge-free prefetch of the index slot a few probes ahead.
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

}  // namespace precis
