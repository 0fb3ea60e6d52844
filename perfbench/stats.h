// Statistics the benchmark reports, kept free of I/O so the unit tests can
// drive them with synthetic data: the percentile rule and the open-loop
// capacity search.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <functional>
#include <optional>
#include <vector>

namespace perfbench {

/// Samples that must lie beyond a percentile before it is reported: p99
/// needs 1000 samples, p50 needs 20.
inline constexpr double kMinSamplesBeyond = 10.0;

/// The p-quantile (0 < p < 1, linear interpolation between closest ranks,
/// the estimator PrecisService::metrics() uses), or nullopt when fewer than
/// kMinSamplesBeyond samples lie beyond it.
std::optional<double> Percentile(std::vector<double> samples, double p);

/// Arithmetic mean; 0 for no samples.
double Mean(const std::vector<double>& samples);

/// One step of an open-loop rate ramp.
struct RampStep {
  double offered_qps = 0;
  /// Answered requests over the step's wall time.
  double achieved_qps = 0;
  /// p99 (failed and refused requests counted as over the limit) within
  /// the latency limit, and no growing backlog at the end of the step.
  bool within_limit = false;
  /// The generator, not the server, fell behind its schedule; the step
  /// says nothing about the server and never counts toward capacity.
  bool generator_behind = false;

  bool passed() const { return within_limit && !generator_behind; }
};

struct CapacityResult {
  /// Achieved rate of the highest passing step; 0 when none passed.
  double capacity_qps = 0;
  std::vector<RampStep> steps;
};

/// Highest rate whose step passes. Coarse geometric steps from
/// `start_qps` (x `growth` up while steps pass, / `growth` down while the
/// first ones fail) bracket the knee, then `refinements` log-space
/// bisections narrow it. At most `max_steps` steps run in total.
CapacityResult SearchCapacity(double start_qps, double growth,
                              int refinements, int max_steps,
                              const std::function<RampStep(double)>& run_step);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
