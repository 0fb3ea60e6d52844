// Instrumentation counters mirroring the paper's cost model (§6, Formula 1):
//
//   Cost(D') = sum_i card(R'_i) * (IndexTime + TupleTime)
//
// Every index probe and every tuple fetch performed by the engine increments
// a counter here, so the cost-model validation bench can compare the model's
// predicted access counts against what the generator actually did.
//
// Counters are atomic (relaxed): reads are logically const operations that
// several threads may run against one Database concurrently; the counters
// must not turn that into a data race. Copies snapshot the current values.

#ifndef PRECIS_STORAGE_ACCESS_STATS_H_
#define PRECIS_STORAGE_ACCESS_STATS_H_

#include <atomic>
#include <cstdint>

namespace precis {

/// \brief Cumulative access counters for one Database. Thread-safe;
/// snapshot by copying.
struct AccessStats {
  /// Number of index lookups (one per probed key value).
  std::atomic<uint64_t> index_probes{0};
  /// Number of tuples fetched by rowid.
  std::atomic<uint64_t> tuple_fetches{0};
  /// Number of full-relation scans that had to fall back to sequential
  /// access because no index existed on the probed attribute.
  std::atomic<uint64_t> sequential_scans{0};
  /// Number of statements submitted to the engine. A NaiveQ IN-list query
  /// is one statement; RoundRobin opens one per-value scan (cursor) per
  /// probe key, each counting as a statement — the per-statement overhead
  /// is what makes RoundRobin costlier than NaiveQ on a real DBMS (paper
  /// Fig. 9).
  std::atomic<uint64_t> statements{0};

  AccessStats() = default;
  AccessStats(const AccessStats& o) { *this = o; }
  AccessStats& operator=(const AccessStats& o) {
    index_probes.store(o.index_probes.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    tuple_fetches.store(o.tuple_fetches.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
    sequential_scans.store(
        o.sequential_scans.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    statements.store(o.statements.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    return *this;
  }

  void Reset() {
    index_probes.store(0, std::memory_order_relaxed);
    tuple_fetches.store(0, std::memory_order_relaxed);
    sequential_scans.store(0, std::memory_order_relaxed);
    statements.store(0, std::memory_order_relaxed);
  }

  AccessStats& operator+=(const AccessStats& o) {
    index_probes.fetch_add(o.index_probes.load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
    tuple_fetches.fetch_add(
        o.tuple_fetches.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    sequential_scans.fetch_add(
        o.sequential_scans.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    statements.fetch_add(o.statements.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
    return *this;
  }
};

/// \brief Per-access latency parameters for the paper's cost formulas.
///
/// The paper measured wall-clock IndexTime and TupleTime on Oracle; here they
/// are free parameters of the model (calibrated from a measurement run by the
/// cost-model bench) used to turn access counts into predicted seconds and to
/// derive cardinality constraints from a response-time target (Formula 3).
struct CostParameters {
  double index_time_seconds = 0.0;
  double tuple_time_seconds = 0.0;

  double PerTupleCost() const {
    return index_time_seconds + tuple_time_seconds;
  }
};

}  // namespace precis

#endif  // PRECIS_STORAGE_ACCESS_STATS_H_
