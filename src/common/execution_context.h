// ExecutionContext: per-query deadline, budget, attribution and tracing.
//
// The paper's cost model (§6) exists to bound per-query work: Formula 3
// derives a cardinality constraint from a response-time target. This class
// is the runtime half of that idea — a handle created per query and threaded
// through every pipeline layer (sql, storage, generators, engine,
// translator) so that one query among many concurrent ones can be
//
//   * attributed: every index probe / tuple fetch / statement it causes is
//     counted into its own AccessStats (in addition to the Database's
//     global, cross-query counters);
//   * bounded: an access budget (max instrumented accesses, derivable from
//     CostParameters via Formula 3) and a wall-clock deadline stop the
//     generators early — they return the partial, well-formed answer built
//     so far;
//   * cancelled: a cooperative flag another thread may set;
//   * traced: named spans record wall-clock duration and counter deltas per
//     pipeline stage.
//
// Thread-safety: one context belongs to one query, but Cancel() and the
// read accessors may be called from other threads (a service watchdog, a
// metrics scraper); all mutable state is atomic or mutex-guarded.

#ifndef PRECIS_COMMON_EXECUTION_CONTEXT_H_
#define PRECIS_COMMON_EXECUTION_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/fault_injection.h"
#include "common/status.h"
#include "storage/access_stats.h"

namespace precis {

/// \brief Why a query's pipeline stopped before completing.
enum class StopReason : uint8_t {
  kNone = 0,
  kDeadlineExceeded = 1,
  kAccessBudgetExhausted = 2,
  kCancelled = 3,
};

const char* StopReasonToString(StopReason reason);

/// \brief One recorded pipeline stage: name, wall-clock duration, and the
/// access-counter deltas incurred while the span was open.
struct TraceSpan {
  std::string name;
  double seconds = 0.0;
  uint64_t index_probes = 0;
  uint64_t tuple_fetches = 0;
  uint64_t sequential_scans = 0;
  uint64_t statements = 0;
};

/// \brief Per-query execution state threaded through the pipeline.
class ExecutionContext {
 public:
  using Clock = std::chrono::steady_clock;

  ExecutionContext() = default;
  // Its address is handed out across layers (and possibly threads);
  // neither copyable nor movable.
  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;

  // --- Deadline -----------------------------------------------------------

  void SetDeadline(Clock::time_point deadline) {
    deadline_ns_.store(deadline.time_since_epoch().count(),
                       std::memory_order_relaxed);
  }
  /// Deadline `seconds` from now. A span <= 0, NaN, or past the clock's
  /// range (infinity included) clears it.
  void SetDeadlineAfter(double seconds);
  void ClearDeadline() {
    deadline_ns_.store(kNoDeadline, std::memory_order_relaxed);
  }
  bool has_deadline() const {
    return deadline_ns_.load(std::memory_order_relaxed) != kNoDeadline;
  }
  /// Seconds until the deadline (negative if past); nullopt if none set.
  std::optional<double> RemainingSeconds() const;

  // --- Access budget ------------------------------------------------------

  /// Caps the number of instrumented accesses (index probes + tuple fetches
  /// + sequential scans) this query may perform. 0 means unbounded.
  void SetAccessBudget(uint64_t max_accesses) {
    access_budget_.store(max_accesses, std::memory_order_relaxed);
  }

  /// Derives the access budget from a response-time target via the paper's
  /// Formula 3: the target buys cost_m / (IndexTime + TupleTime) tuples,
  /// and each tuple costs one index probe plus one tuple fetch in this
  /// engine's instrumentation, so the budget is twice that count.
  Status SetBudgetFromResponseTime(const CostParameters& params,
                                   double cost_m_seconds);

  uint64_t access_budget() const {
    return access_budget_.load(std::memory_order_relaxed);
  }
  /// Instrumented accesses charged so far: the sum of the three budgeted
  /// stat counters. Derived rather than stored so every Charge* is exactly
  /// one relaxed fetch_add — the counters are what concurrent subtree
  /// expansion hammers, and a second "budget" counter per charge would
  /// double the contention for no information.
  uint64_t accesses_charged() const {
    return stats_.index_probes.load(std::memory_order_relaxed) +
           stats_.tuple_fetches.load(std::memory_order_relaxed) +
           stats_.sequential_scans.load(std::memory_order_relaxed);
  }

  // --- Cooperative cancellation -------------------------------------------

  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  // --- Combined stop check (the generators' hot-path call) ----------------

  /// True once the query should stop doing new work: cancelled, past the
  /// deadline, or out of access budget. The first observed cause is latched
  /// as stop_reason() and never overwritten.
  bool ShouldStop() const;

  StopReason stop_reason() const {
    return static_cast<StopReason>(
        stop_reason_.load(std::memory_order_relaxed));
  }

  /// Latches `reason` as the stop reason if none is set yet. Public so a
  /// deterministic planner can charge budget against a *simulated* access
  /// sequence and latch kAccessBudgetExhausted itself; the latch is
  /// monotone — the first reason wins and is never overwritten, so a stop
  /// observed by one worker stops all.
  void LatchStop(StopReason reason) const;

  // --- Accounting (called by the storage layer) ---------------------------

  // Each charge is a single relaxed fetch_add on its own counter (no
  // mutex, no shadow budget counter) so concurrent subtree expansion does
  // not serialize on accounting.
  void ChargeIndexProbe() {
    stats_.index_probes.fetch_add(1, std::memory_order_relaxed);
  }
  void ChargeTupleFetch() {
    stats_.tuple_fetches.fetch_add(1, std::memory_order_relaxed);
  }
  /// Bulk variant used by the columnar fetch+project kernel: one relaxed
  /// fetch_add for a whole chunk. Indistinguishable from n single charges
  /// (charging has no per-call side effect beyond the counter).
  void ChargeTupleFetches(uint64_t n) {
    stats_.tuple_fetches.fetch_add(n, std::memory_order_relaxed);
  }
  void ChargeSequentialScan() {
    stats_.sequential_scans.fetch_add(1, std::memory_order_relaxed);
  }
  /// Statements carry no I/O of their own in the cost model (Formula 1);
  /// they are attributed but not charged against the budget.
  void ChargeStatement() {
    stats_.statements.fetch_add(1, std::memory_order_relaxed);
  }

  /// This query's own access counters.
  const AccessStats& stats() const { return stats_; }

  // --- Per-query arena (DESIGN.md §13) ------------------------------------

  /// Scratch arena whose lifetime is this query: the generators draw tid
  /// snapshots, projection buffers and chunk outputs from it, and the
  /// whole pool is freed at context teardown (or explicitly via
  /// arena().Reset()). Internally locked, so chunk tasks on pool threads
  /// may allocate concurrently with the planner.
  Arena& arena() { return arena_; }
  ArenaStats arena_stats() const { return arena_.stats(); }

  // --- Fault injection (DESIGN.md §12) ------------------------------------

  /// Attaches a fault injector. Not owned; must outlive the query. Set
  /// before the query starts (same single-writer contract as the deadline
  /// and budget setters) — the storage and sql layers read it on the hot
  /// path without synchronization.
  void SetFaultInjector(FaultInjector* injector) {
    fault_injector_ = injector;
  }
  FaultInjector* fault_injector() const { return fault_injector_; }

  /// One fault decision at `site`. OK when no injector is attached.
  Status CheckFault(FaultSite site) const {
    return fault_injector_ != nullptr ? fault_injector_->Check(site)
                                      : Status::OK();
  }

  /// Backoff parameters used by the retry wrappers (common/retry.h).
  void set_retry_policy(const RetryPolicy& policy) { retry_policy_ = policy; }
  const RetryPolicy& retry_policy() const { return retry_policy_; }

  // --- Trace spans --------------------------------------------------------

  /// Spans recorded so far, in completion order (snapshot).
  std::vector<TraceSpan> spans() const;

 private:
  friend class ScopedSpan;

  static constexpr int64_t kNoDeadline =
      std::numeric_limits<int64_t>::max();

  void RecordSpan(TraceSpan span);

  AccessStats stats_;
  Arena arena_;
  FaultInjector* fault_injector_ = nullptr;  // not owned
  RetryPolicy retry_policy_;
  std::atomic<uint64_t> access_budget_{0};  // 0 = unbounded
  std::atomic<int64_t> deadline_ns_{kNoDeadline};
  std::atomic<bool> cancelled_{false};
  // Latched by ShouldStop(), which is logically const.
  mutable std::atomic<uint8_t> stop_reason_{0};

  mutable std::mutex spans_mutex_;
  std::vector<TraceSpan> spans_;
};

/// \brief RAII trace span. Inert when constructed with a null context, so
/// pipeline stages can write `ScopedSpan span(ctx, "db_gen");`
/// unconditionally.
class ScopedSpan {
 public:
  ScopedSpan(ExecutionContext* ctx, std::string name);
  ~ScopedSpan() { Close(); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Records the span now instead of at destruction (idempotent).
  void Close();

 private:
  ExecutionContext* ctx_;
  std::string name_;
  ExecutionContext::Clock::time_point start_;
  // Counter snapshot at open, for the delta.
  uint64_t index_probes_;
  uint64_t tuple_fetches_;
  uint64_t sequential_scans_;
  uint64_t statements_;
};

}  // namespace precis

#endif  // PRECIS_COMMON_EXECUTION_CONTEXT_H_
