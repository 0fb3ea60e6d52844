// Per-shard fault-domain health (DESIGN.md §17).
//
// ShardHealthTracker is the engine-lifetime state: one CircuitBreaker per
// shard plus a latency window per shard that derives the hedging delay
// (~p99 of recent stall waits, clamped). ShardQueryFaultPlan is
// the per-query decision derived from it on the calling thread before
// generation starts: which shards participate, which are skipped (open
// circuit, or kShardSubquery probe failed after retries), and what injected
// stall each participating shard must serve.
//
// Determinism: the plan is decided shard-by-shard in ascending order on the
// coordinator thread, so the injector's per-(site, domain) check streams
// advance in a reproducible order for a reproducible query sequence. A
// permanently dead shard (latched kShardSubquery domain) is excluded on
// every query regardless of whether the breaker skipped it or the probe
// failed — which is why degraded answer bytes do not depend on breaker
// timing, only the telemetry does.

#ifndef PRECIS_SHARD_SHARD_HEALTH_H_
#define PRECIS_SHARD_SHARD_HEALTH_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/circuit_breaker.h"
#include "common/execution_context.h"
#include "common/fault_injection.h"
#include "common/retry.h"
#include "common/status.h"

namespace precis {

/// \brief Fault-domain tuning; member defaults are the serving defaults.
struct ShardHealthPolicy {
  CircuitBreakerPolicy breaker;
  /// Hedging delay bounds: the p99-derived delay is clamped into
  /// [hedge_min_delay_ns, hedge_max_delay_ns]; before the latency window
  /// has any samples, hedge_default_delay_ns is used.
  uint64_t hedge_min_delay_ns = 500'000;        // 0.5 ms
  uint64_t hedge_max_delay_ns = 50'000'000;     // 50 ms
  uint64_t hedge_default_delay_ns = 2'000'000;  // 2 ms
  /// Per-shard latency samples retained for the p99 estimate.
  size_t latency_window = 64;
};

/// \brief Engine-lifetime per-shard health: breakers, hedge-delay windows,
/// and lifetime counters. Thread-safe; shared by concurrent queries.
class ShardHealthTracker {
 public:
  explicit ShardHealthTracker(size_t num_shards,
                              ShardHealthPolicy policy = ShardHealthPolicy())
      : policy_(policy), rings_(num_shards) {
    breakers_.reserve(num_shards);
    for (size_t s = 0; s < num_shards; ++s) {
      breakers_.push_back(std::make_unique<CircuitBreaker>(policy.breaker));
    }
  }

  size_t num_shards() const { return breakers_.size(); }
  const ShardHealthPolicy& policy() const { return policy_; }

  CircuitBreaker& breaker(size_t shard) { return *breakers_[shard]; }
  const CircuitBreaker& breaker(size_t shard) const {
    return *breakers_[shard];
  }

  /// Records one stall wait of shard `shard`.
  void RecordLatency(size_t shard, uint64_t ns) {
    Ring& ring = rings_[shard];
    std::lock_guard<std::mutex> lock(ring.mu);
    if (ring.samples.size() < policy_.latency_window) {
      ring.samples.push_back(ns);
    } else {
      ring.samples[ring.next % policy_.latency_window] = ns;
    }
    ++ring.next;
  }

  /// The delay after which a stall of `shard` is hedged: ~p99 of the
  /// recent latency window, clamped into the policy bounds (the default
  /// before any sample lands).
  uint64_t HedgeDelayNs(size_t shard) const {
    uint64_t p99 = 0;
    {
      Ring& ring = rings_[shard];
      std::lock_guard<std::mutex> lock(ring.mu);
      if (ring.samples.empty()) return policy_.hedge_default_delay_ns;
      std::vector<uint64_t> sorted = ring.samples;
      std::sort(sorted.begin(), sorted.end());
      p99 = sorted[(sorted.size() * 99) / 100 >= sorted.size()
                       ? sorted.size() - 1
                       : (sorted.size() * 99) / 100];
    }
    return std::max(policy_.hedge_min_delay_ns,
                    std::min(policy_.hedge_max_delay_ns, p99));
  }

  /// Lifetime counters (exported via /metrics and shell `stats`).
  std::atomic<uint64_t> hedged_subqueries{0};  ///< hedges fired
  std::atomic<uint64_t> hedge_wins{0};         ///< hedges that beat the primary
  std::atomic<uint64_t> shard_skips{0};        ///< per-query shard exclusions

 private:
  struct Ring {
    mutable std::mutex mu;
    std::vector<uint64_t> samples;
    size_t next = 0;
  };

  ShardHealthPolicy policy_;
  std::vector<std::unique_ptr<CircuitBreaker>> breakers_;
  mutable std::vector<Ring> rings_;
};

/// \brief One query's fault-domain decisions, made up front on the
/// coordinator thread and read-only afterwards.
struct ShardQueryFaultPlan {
  std::vector<uint8_t> live;       ///< [num_shards]; 1 = participates
  std::vector<uint64_t> stall_ns;  ///< [num_shards]; injected stall to serve
  std::vector<uint32_t> skipped;   ///< excluded shard ids, ascending
  uint64_t probe_retries = 0;      ///< kShardSubquery probe retries performed
  uint64_t breaker_rejects = 0;    ///< shards skipped without probing
  ShardHealthTracker* health = nullptr;
  bool hedging = false;            ///< stalls may be hedged

  bool any_skipped() const { return !skipped.empty(); }
};

/// \brief Decides which shards this query contacts. Per shard, in ascending
/// order: an open breaker skips the shard outright (no probe, no injector
/// check); otherwise the kShardSubquery domain check runs under the retry
/// policy (the simulated "can we reach this shard" probe) and its outcome
/// feeds the breaker. A reachable shard then consults kShardTimeout for an
/// injected stall, which the planner serves as each join edge opens — an
/// *erroring* kShardTimeout schedule counts as a probe failure too.
inline ShardQueryFaultPlan DecideShardFaultPlan(size_t num_shards,
                                                ShardHealthTracker* health,
                                                ExecutionContext* ctx,
                                                bool hedging) {
  ShardQueryFaultPlan plan;
  plan.live.assign(num_shards, 1);
  plan.stall_ns.assign(num_shards, 0);
  plan.health = health;
  plan.hedging = hedging;
  FaultInjector* injector = ctx != nullptr ? ctx->fault_injector() : nullptr;
  const bool armed = injector != nullptr && injector->armed();
  for (uint32_t s = 0; s < num_shards; ++s) {
    CircuitBreaker* breaker =
        health != nullptr ? &health->breaker(s) : nullptr;
    if (breaker != nullptr && !breaker->Allow()) {
      plan.live[s] = 0;
      plan.skipped.push_back(s);
      ++plan.breaker_rejects;
      if (health != nullptr) {
        health->shard_skips.fetch_add(1, std::memory_order_relaxed);
      }
      continue;
    }
    Status probe = Status::OK();
    if (armed) {
      probe = RetryWithBackoff(
          ctx->retry_policy(), ctx, FaultSite::kShardSubquery,
          [injector, s] {
            return injector->CheckDomain(FaultSite::kShardSubquery, s);
          },
          &plan.probe_retries);
      if (probe.ok()) {
        uint64_t stall = 0;
        Status timeout =
            injector->CheckDomain(FaultSite::kShardTimeout, s, &stall);
        if (!timeout.ok()) {
          probe = timeout;
        } else {
          plan.stall_ns[s] = stall;
        }
      }
    }
    if (probe.ok()) {
      if (breaker != nullptr) breaker->RecordSuccess();
    } else {
      if (breaker != nullptr) breaker->RecordFailure();
      plan.live[s] = 0;
      plan.skipped.push_back(s);
      if (health != nullptr) {
        health->shard_skips.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  return plan;
}

}  // namespace precis

#endif  // PRECIS_SHARD_SHARD_HEALTH_H_
