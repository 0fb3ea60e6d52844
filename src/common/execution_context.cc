#include "common/execution_context.h"

#include <cmath>

namespace precis {

const char* StopReasonToString(StopReason reason) {
  switch (reason) {
    case StopReason::kNone:
      return "none";
    case StopReason::kDeadlineExceeded:
      return "deadline exceeded";
    case StopReason::kAccessBudgetExhausted:
      return "access budget exhausted";
    case StopReason::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

void ExecutionContext::SetDeadlineAfter(double seconds) {
  // A span that is not positive, is NaN, or ends past the clock's last
  // tick (infinity included) sets no deadline. Every double below 2^63
  // converts to a tick count, so the range check below is exact.
  const Clock::time_point now = Clock::now();
  const double ticks =
      std::chrono::duration<double, Clock::period>(
          std::chrono::duration<double>(seconds))
          .count();
  if (!(seconds > 0.0) || !(ticks < 0x1p63)) {
    ClearDeadline();
    return;
  }
  const Clock::duration span(static_cast<Clock::rep>(ticks));
  if (span >= Clock::time_point::max() - now) {
    ClearDeadline();
    return;
  }
  SetDeadline(now + span);
}

std::optional<double> ExecutionContext::RemainingSeconds() const {
  int64_t deadline = deadline_ns_.load(std::memory_order_relaxed);
  if (deadline == kNoDeadline) return std::nullopt;
  int64_t now = Clock::now().time_since_epoch().count();
  return std::chrono::duration<double>(Clock::duration(deadline - now))
      .count();
}

Status ExecutionContext::SetBudgetFromResponseTime(
    const CostParameters& params, double cost_m_seconds) {
  if (cost_m_seconds < 0.0) {
    return Status::InvalidArgument("response-time target must be >= 0");
  }
  double per_tuple = params.PerTupleCost();
  if (per_tuple <= 0.0) {
    return Status::InvalidArgument(
        "cost parameters must have positive per-tuple cost");
  }
  // Formula 3: the target buys cost_m / (IndexTime + TupleTime) tuples;
  // each costs one probe + one fetch here.
  double tuples = std::floor(cost_m_seconds / per_tuple);
  SetAccessBudget(static_cast<uint64_t>(tuples) * 2);
  return Status::OK();
}

bool ExecutionContext::ShouldStop() const {
  if (stop_reason() != StopReason::kNone) return true;
  if (cancelled_.load(std::memory_order_relaxed)) {
    LatchStop(StopReason::kCancelled);
    return true;
  }
  uint64_t budget = access_budget_.load(std::memory_order_relaxed);
  if (budget != 0 && accesses_charged() >= budget) {
    LatchStop(StopReason::kAccessBudgetExhausted);
    return true;
  }
  int64_t deadline = deadline_ns_.load(std::memory_order_relaxed);
  if (deadline != kNoDeadline &&
      Clock::now().time_since_epoch().count() >= deadline) {
    LatchStop(StopReason::kDeadlineExceeded);
    return true;
  }
  return false;
}

void ExecutionContext::LatchStop(StopReason reason) const {
  uint8_t expected = 0;
  stop_reason_.compare_exchange_strong(
      expected, static_cast<uint8_t>(reason), std::memory_order_relaxed);
}

std::vector<TraceSpan> ExecutionContext::spans() const {
  std::lock_guard<std::mutex> lock(spans_mutex_);
  return spans_;
}

void ExecutionContext::RecordSpan(TraceSpan span) {
  std::lock_guard<std::mutex> lock(spans_mutex_);
  spans_.push_back(std::move(span));
}

ScopedSpan::ScopedSpan(ExecutionContext* ctx, std::string name)
    : ctx_(ctx), name_(std::move(name)) {
  if (ctx_ == nullptr) return;
  start_ = ExecutionContext::Clock::now();
  const AccessStats& s = ctx_->stats();
  index_probes_ = s.index_probes.load(std::memory_order_relaxed);
  tuple_fetches_ = s.tuple_fetches.load(std::memory_order_relaxed);
  sequential_scans_ = s.sequential_scans.load(std::memory_order_relaxed);
  statements_ = s.statements.load(std::memory_order_relaxed);
}

void ScopedSpan::Close() {
  if (ctx_ == nullptr) return;
  TraceSpan span;
  span.name = std::move(name_);
  span.seconds = std::chrono::duration<double>(
                     ExecutionContext::Clock::now() - start_)
                     .count();
  const AccessStats& s = ctx_->stats();
  span.index_probes =
      s.index_probes.load(std::memory_order_relaxed) - index_probes_;
  span.tuple_fetches =
      s.tuple_fetches.load(std::memory_order_relaxed) - tuple_fetches_;
  span.sequential_scans =
      s.sequential_scans.load(std::memory_order_relaxed) - sequential_scans_;
  span.statements =
      s.statements.load(std::memory_order_relaxed) - statements_;
  ctx_->RecordSpan(std::move(span));
  ctx_ = nullptr;
}

}  // namespace precis
