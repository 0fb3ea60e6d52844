// Deterministic, seed-driven fault injection for the storage stack.
//
// A FaultInjector is attached to an ExecutionContext (one per query, or one
// shared across a workload) and consulted at named *fault sites* — the
// storage- and translator-layer operations a production deployment would see
// fail: index probes, tuple fetches by tid, join-value lookups, relation
// scans, and translator catalog lookups. Each site carries an independent
// FaultSchedule that decides, purely as a function of (seed, site, check
// index), whether a given check injects a transient error, a permanent
// error, or a latency spike. Because the decision depends only on that
// triple, a rerun with the same seed and the same sequence of checks
// reproduces the same faults bit-for-bit — which is what lets the chaos
// suite assert byte-identical answers across reruns, parallelism and
// partition counts (DESIGN.md §12).
//
// Determinism contract with the result-database generator: fault checks
// fire only on the planner thread. Chunk tasks project through
// Relation::ProjectRows, which never consults the injector, and the
// planner replays the fault-check sequence at exactly the positions the
// classic tuple-at-a-time walk would issue Gets — the same mechanism that
// replays budget charges (`sim_charges`).
//
// Thread safety: Check() is safe to call concurrently (per-site atomic
// counters). Configuration (SetSchedule/Reset/Reseed) must not race with
// in-flight checks — reconfigure between queries, the same contract the
// engine's set_* toggles follow.

#ifndef PRECIS_COMMON_FAULT_INJECTION_H_
#define PRECIS_COMMON_FAULT_INJECTION_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace precis {

/// \brief Named operations where a fault can be injected.
enum class FaultSite : uint8_t {
  kIndexProbe = 0,      ///< Relation::LookupEquals via an inverted index.
  kTupleFetch = 1,      ///< Relation::Get (fetch tuple by tid).
  kJoinValueLookup = 2, ///< Per-join-key lookup in the sql layer.
  kRelationScan = 3,    ///< Relation::LookupEquals via sequential scan.
  kTranslatorCatalog = 4, ///< Template catalog lookup while rendering.
  kShardSubquery = 5,   ///< One shard's sub-query (domain = shard id).
  kShardTimeout = 6,    ///< One shard stalling (domain = shard id).
};

inline constexpr size_t kNumFaultSites = 7;

/// \brief "index_probe", "tuple_fetch", ... (stable, used in reports/JSON).
const char* FaultSiteToString(FaultSite site);

/// \brief Parses a site name; accepts both the canonical names above and the
/// shell short forms (probe, fetch, join, scan, catalog, shard, stall).
Result<FaultSite> ParseFaultSite(const std::string& name);

/// \brief splitmix64 finalizer — the mixer every seed-derived deterministic
/// decision in the tree shares (fault schedules, retry jitter), exposed so
/// those decisions stay pure functions of their mixed inputs.
uint64_t FaultMix(uint64_t x);

/// \brief When a site's schedule decides to fire.
enum class FaultMode : uint8_t {
  kOff = 0,         ///< Never fires.
  kProbability,     ///< Fires on ~p of checks (deterministic per seed).
  kEveryNth,        ///< Fires on check indices N, 2N, 3N, ...
  kSteps,           ///< Fires exactly on an explicit list of check indices.
};

/// \brief What a firing check does.
enum class FaultKind : uint8_t {
  kTransientError = 0, ///< Status::Unavailable — retryable.
  kPermanentError,     ///< First firing latches the site: every later check
                       ///< fails too (models a dead shard / lost file).
  kLatencySpike,       ///< Sleeps latency_spike_ns, then succeeds.
};

/// \brief Per-site schedule: mode + kind + parameters.
struct FaultSchedule {
  FaultMode mode = FaultMode::kOff;
  FaultKind kind = FaultKind::kTransientError;
  double probability = 0.0;       ///< kProbability: p in [0, 1].
  uint64_t every_nth = 0;         ///< kEveryNth: period (>= 1).
  std::vector<uint64_t> steps;    ///< kSteps: sorted 1-based check indices.
  uint64_t latency_spike_ns = 100'000;  ///< kLatencySpike sleep.
  /// Restricts the schedule to these fault domains (shard ids) on
  /// CheckDomain() sites; empty = every domain. Plain Check() ignores it.
  std::vector<uint32_t> domains;

  static FaultSchedule Off() { return FaultSchedule{}; }
  static FaultSchedule Probability(double p,
                                   FaultKind kind = FaultKind::kTransientError);
  static FaultSchedule EveryNth(uint64_t n,
                                FaultKind kind = FaultKind::kTransientError);
  static FaultSchedule Steps(std::vector<uint64_t> steps,
                             FaultKind kind = FaultKind::kTransientError);
};

/// \brief Bounded, deadline-aware exponential backoff parameters.
///
/// Lives here (not retry.h) so ExecutionContext can hold one without a
/// circular include: retry.h needs ExecutionContext for deadline awareness.
struct RetryPolicy {
  /// Total attempts including the first (so 4 = 1 try + 3 retries).
  int max_attempts = 4;
  uint64_t initial_backoff_ns = 2'000;
  double backoff_multiplier = 2.0;
  uint64_t max_backoff_ns = 1'000'000;
  /// Fraction of each backoff sleep that seed-derived jitter may shave off
  /// (sleep in [(1-jitter) * backoff, backoff]), decorrelating the retry
  /// stampede a recovering shard would otherwise see. The jitter factor is
  /// a pure function of (injector seed, fault site, attempt) — wall-clock
  /// only, never which attempt succeeds — so the retry decision sequence
  /// stays bit-reproducible. 0 disables.
  double backoff_jitter = 0.5;
};

/// \brief Counters for one site, snapshot via FaultInjector::site_stats().
struct FaultSiteStats {
  uint64_t checks = 0;          ///< Decisions taken at this site.
  uint64_t injected = 0;        ///< Checks that returned an error.
  uint64_t latency_spikes = 0;  ///< Checks that slept instead.
};

/// \brief Deterministic fault source, scoped through ExecutionContext.
class FaultInjector {
 public:
  explicit FaultInjector(uint64_t seed = 0);

  /// Replaces one site's schedule. Must not race with Check().
  void SetSchedule(FaultSite site, FaultSchedule schedule);
  /// Replaces every *storage/translator* site's schedule with `schedule`
  /// (kIndexProbe through kTranslatorCatalog). The shard fault-domain sites
  /// (kShardSubquery, kShardTimeout) are untouched: SetAll's contract is
  /// "storage chaos", under which a sharded run stays byte-identical to the
  /// single-engine run — shard-kill chaos is opt-in via SetSchedule.
  void SetAll(FaultSchedule schedule);
  /// All sites off, counters and permanent-failure latches cleared.
  /// The seed is preserved.
  void Reset();
  /// Clears counters/latches and installs a new seed; schedules survive.
  void Reseed(uint64_t seed);

  /// True when at least one site has a non-kOff schedule. This is the
  /// cache-taint predicate: an answer generated while armed() is tainted
  /// even if no fault actually fired (DESIGN.md §12).
  bool armed() const {
    return armed_mask_.load(std::memory_order_relaxed) != 0;
  }

  /// One fault decision. OK, or Status::Unavailable when the schedule
  /// fires (or the site is permanently tripped). Hot path: a single
  /// relaxed load when the site is off.
  Status Check(FaultSite site) {
    if ((armed_mask_.load(std::memory_order_relaxed) &
         (1u << static_cast<unsigned>(site))) == 0) {
      return Status::OK();
    }
    return CheckArmed(site);
  }

  /// One fault decision on an independent per-(site, domain) check stream —
  /// the shard-level fault primitive: domain d (a shard id) has its own
  /// 1-based check indices and its own permanent latch, so "kill shard 3"
  /// (a kPermanentError schedule with domains={3}) takes down exactly that
  /// shard no matter how concurrent queries interleave their checks. When
  /// the schedule names domains, other domains never fire (their checks
  /// still count). A firing kLatencySpike schedule sleeps inline unless
  /// `stall_ns` is non-null, in which case the spike is *returned* for the
  /// caller to serve wherever it wants (the query's fault plan decides, the
  /// planner sleeps as each edge opens). Hot path: a single relaxed load
  /// when the site is off.
  Status CheckDomain(FaultSite site, uint32_t domain,
                     uint64_t* stall_ns = nullptr) {
    if (stall_ns != nullptr) *stall_ns = 0;
    if ((armed_mask_.load(std::memory_order_relaxed) &
         (1u << static_cast<unsigned>(site))) == 0) {
      return Status::OK();
    }
    return CheckDomainArmed(site, domain, stall_ns);
  }

  FaultSiteStats site_stats(FaultSite site) const;
  uint64_t total_injected() const;
  uint64_t seed() const { return seed_; }

  /// Multi-line human summary of the active schedules (shell `show`).
  std::string DescribeSchedules() const;

 private:
  struct DomainState {
    uint64_t checks = 0;
    bool tripped = false;  ///< per-domain kPermanentError latch
  };

  struct SiteState {
    FaultSchedule schedule;
    std::atomic<uint64_t> checks{0};
    std::atomic<uint64_t> injected{0};
    std::atomic<uint64_t> latency_spikes{0};
    std::atomic<bool> tripped{false};  ///< kPermanentError latch.
    /// Per-domain check streams (CheckDomain sites only). Mutex-guarded:
    /// domain checks are per-query per-shard, far off the storage hot path.
    std::mutex domains_mu;
    std::map<uint32_t, DomainState> domains;
  };

  Status CheckArmed(FaultSite site);
  Status CheckDomainArmed(FaultSite site, uint32_t domain, uint64_t* stall_ns);
  void RecomputeArmedMask();

  uint64_t seed_;
  std::atomic<uint32_t> armed_mask_{0};
  std::array<SiteState, kNumFaultSites> sites_;
};

}  // namespace precis

#endif  // PRECIS_COMMON_FAULT_INJECTION_H_
