#include "stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

std::optional<double> Percentile(std::vector<double> samples, double p) {
  const double n = static_cast<double>(samples.size());
  // The epsilon keeps n = 1000, p = 0.99 (10.000000000000009) admissible.
  if (samples.empty() || n * (1.0 - p) < kMinSamplesBeyond - 1e-9) {
    return std::nullopt;
  }
  std::sort(samples.begin(), samples.end());
  const double rank = p * (n - 1);
  const size_t lo = static_cast<size_t>(rank);
  if (lo + 1 >= samples.size()) return samples.back();
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + frac * (samples[lo + 1] - samples[lo]);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

CapacityResult SearchCapacity(double start_qps, double growth,
                              int refinements, int max_steps,
                              const std::function<RampStep(double)>& run_step) {
  CapacityResult result;
  std::optional<RampStep> best;  // highest passing step so far
  std::vector<double> failed;    // offered rates of steps that did not pass
  auto run = [&](double qps) {
    RampStep step = run_step(qps);
    step.offered_qps = qps;
    result.steps.push_back(step);
    if (step.passed()) {
      if (!best || qps > best->offered_qps) best = step;
    } else {
      failed.push_back(qps);
    }
    return step.passed();
  };
  // Lowest failure above the best pass: the bracket's upper end.
  auto ceiling = [&]() -> std::optional<double> {
    std::optional<double> hi;
    for (double qps : failed) {
      if (qps > best->offered_qps && (!hi || qps < *hi)) hi = qps;
    }
    return hi;
  };
  auto budget_left = [&] {
    return static_cast<int>(result.steps.size()) < max_steps;
  };

  // Bracket: walk up while passing, or down while failing.
  double qps = start_qps;
  const bool first_passed = run(qps);
  while (budget_left()) {
    if (first_passed) {
      qps *= growth;
      if (!run(qps)) break;
    } else {
      qps /= growth;
      if (run(qps)) break;
    }
  }
  // Refine between the best pass and the lowest failure above it.
  for (int i = 0; i < refinements && budget_left() && best; ++i) {
    std::optional<double> hi = ceiling();
    if (!hi) break;
    run(std::sqrt(best->offered_qps * *hi));
  }
  if (best) result.capacity_qps = best->achieved_qps;
  return result;
}

}  // namespace perfbench
