// Bounded, deadline-aware exponential-backoff retry for transient faults.
//
// RetryWithBackoff wraps a callable returning Status or Result<T>. Only
// StatusCode::kUnavailable — the code the FaultInjector produces for
// transient/permanent storage faults — is retried; every other error (and
// success) passes straight through. Between attempts the wrapper sleeps an
// exponentially growing backoff, but never past the ExecutionContext's
// deadline: when the remaining time cannot cover the next backoff the
// wrapper gives up immediately and returns the last error, so a query under
// deadline pressure degrades instead of burning its remaining budget
// sleeping (DESIGN.md §12).
//
// Determinism note: the retry *decision* sequence (how many attempts each
// operation makes) is a pure function of the injector's deterministic fault
// sequence and the policy's max_attempts — backoff sleeps affect wall-clock
// only, never which attempt succeeds. That is what lets the parallel
// generator replay retries bit-exactly via CheckFaultWithRetry below.
//
// Jitter (DESIGN.md §17): each sleep is shaved by a seed-derived fraction in
// [0, policy.backoff_jitter] so the retries of many concurrent queries
// hitting the same recovering shard decorrelate instead of stampeding in
// lockstep. The jitter factor is a pure function of (injector seed, fault
// site, attempt) through the same splitmix64 mixer the injector uses — and
// it scales only the sleep, never the give-up comparison, so the decision
// sequence is exactly the unjittered one.

#ifndef PRECIS_COMMON_RETRY_H_
#define PRECIS_COMMON_RETRY_H_

#include <chrono>
#include <cstdint>
#include <thread>
#include <utility>

#include "common/execution_context.h"
#include "common/fault_injection.h"
#include "common/result.h"
#include "common/status.h"

namespace precis {
namespace retry_internal {

inline const Status& StatusOf(const Status& s) { return s; }
template <typename T>
inline const Status& StatusOf(const Result<T>& r) {
  return r.status();
}

/// The seed-derived fraction of one backoff sleep to shave off: a pure
/// function of (seed, site-derived stream, attempt) in [0, jitter].
inline double JitterFraction(double jitter, uint64_t seed,
                             uint64_t jitter_stream, int attempt) {
  if (jitter <= 0.0) return 0.0;
  const uint64_t h = FaultMix(seed ^ FaultMix(jitter_stream) ^
                              FaultMix(static_cast<uint64_t>(attempt)));
  return jitter * (static_cast<double>(h >> 11) * 0x1.0p-53);
}

template <typename Fn>
auto RetryWithBackoffImpl(const RetryPolicy& policy, ExecutionContext* ctx,
                          uint64_t jitter_stream, Fn&& fn, uint64_t* retries)
    -> decltype(fn()) {
  const int max_attempts = policy.max_attempts < 1 ? 1 : policy.max_attempts;
  const uint64_t jitter_seed =
      ctx != nullptr && ctx->fault_injector() != nullptr
          ? ctx->fault_injector()->seed()
          : 0;
  uint64_t backoff_ns = policy.initial_backoff_ns;
  for (int attempt = 1;; ++attempt) {
    auto result = fn();
    const Status& status = retry_internal::StatusOf(result);
    if (status.ok() || !status.IsUnavailable() || attempt >= max_attempts) {
      return result;
    }
    // Give up early when the query is already cancelled or out of time:
    // sleeping toward a missed deadline helps nobody. Compared against the
    // *unjittered* backoff so the give-up decision ignores jitter.
    if (ctx != nullptr) {
      if (ctx->cancelled()) return result;
      if (auto remaining = ctx->RemainingSeconds()) {
        const double backoff_seconds = static_cast<double>(backoff_ns) * 1e-9;
        if (*remaining <= backoff_seconds) return result;
      }
    }
    if (retries != nullptr) ++*retries;
    if (backoff_ns > 0) {
      const double shaved = JitterFraction(policy.backoff_jitter, jitter_seed,
                                           jitter_stream, attempt);
      const uint64_t sleep_ns =
          backoff_ns -
          static_cast<uint64_t>(static_cast<double>(backoff_ns) * shaved);
      if (sleep_ns > 0) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(sleep_ns));
      }
    }
    const double next =
        static_cast<double>(backoff_ns) * policy.backoff_multiplier;
    backoff_ns = next >= static_cast<double>(policy.max_backoff_ns)
                     ? policy.max_backoff_ns
                     : static_cast<uint64_t>(next);
  }
}

}  // namespace retry_internal

/// \brief Runs `fn` up to policy.max_attempts times, retrying only
/// Unavailable errors with capped exponential backoff that never overshoots
/// the context deadline. `retries`, when non-null, is incremented once per
/// retry actually performed (attempts beyond the first). This overload
/// draws jitter from a site-less stream; call sites that know their fault
/// site should use the FaultSite overload so their jitter streams diverge.
template <typename Fn>
auto RetryWithBackoff(const RetryPolicy& policy, ExecutionContext* ctx,
                      Fn&& fn, uint64_t* retries = nullptr) -> decltype(fn()) {
  return retry_internal::RetryWithBackoffImpl(policy, ctx, /*jitter_stream=*/0,
                                              std::forward<Fn>(fn), retries);
}

/// \brief Site-aware variant: the jitter stream is derived from `site`, so
/// retries at different sites (and thus against different resources)
/// decorrelate from each other as well as across attempts.
template <typename Fn>
auto RetryWithBackoff(const RetryPolicy& policy, ExecutionContext* ctx,
                      FaultSite site, Fn&& fn, uint64_t* retries = nullptr)
    -> decltype(fn()) {
  return retry_internal::RetryWithBackoffImpl(
      policy, ctx, static_cast<uint64_t>(site) + 1, std::forward<Fn>(fn),
      retries);
}

/// \brief A retried fault check: the unit the Fig. 5 planner uses to
/// *replay* the classic walk's per-Get fault/retry sequence without
/// touching storage (its chunk tasks project through ProjectRows, which
/// never consults the injector). Consumes exactly the same injector check
/// indices as `RetryWithBackoff(policy, ctx, [&]{ return Get(...); })`
/// would.
inline Status CheckFaultWithRetry(ExecutionContext* ctx, FaultSite site,
                                  const RetryPolicy& policy,
                                  uint64_t* retries = nullptr) {
  if (ctx == nullptr || ctx->fault_injector() == nullptr) return Status::OK();
  return RetryWithBackoff(
      policy, ctx, site, [ctx, site] { return ctx->CheckFault(site); },
      retries);
}

}  // namespace precis

#endif  // PRECIS_COMMON_RETRY_H_
