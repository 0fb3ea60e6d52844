// Fault tolerance: service throughput and degradation under injected faults.
//
// Drives PrecisService over a Zipf-skewed movies workload at increasing
// storage fault rates (DESIGN.md §12) and reports, per rate: throughput,
// latency percentiles, and the degradation counters (retries, dropped
// tuples, degraded answers, injector firings). Two gates make it a CI
// correctness check rather than a chart generator:
//
//   1. Zero-fault-overhead gate: the fault machinery must be free when
//      disabled. A service with a present-but-disarmed injector may cost at
//      most 5% more CPU time per query than a service with no injector at
//      all (median over interleaved one-worker trial pairs). A regression
//      means a fault check leaked onto the disarmed hot path.
//   2. Robustness gate: at every fault rate, every response is OK (faults
//      degrade answers, they never fail queries) and the metrics add up
//      (failures == 0, degraded answers reported iff tuples were lost).
//
// Standalone (own main) with a JSON report, exits non-zero when a gate
// fails. ci.sh runs it in smoke mode:
//
//   PRECIS_BENCH_MOVIES=300 PRECIS_BENCH_SMOKE=1 ./fault_tolerance
//
// Knobs: PRECIS_BENCH_MOVIES (dataset size), PRECIS_BENCH_QUERIES (queries
// per fault-rate run), PRECIS_BENCH_OUT (report path, default
// BENCH_fault_tolerance.json).

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/fault_injection.h"
#include "common/random.h"
#include "datagen/movies_dataset.h"
#include "datagen/workload.h"
#include "precis/engine.h"
#include "service/precis_service.h"

namespace precis {
namespace {

using bench::EnvSize;

struct RunResult {
  double qps = 0.0;
  double cpu_us_per_query = 0.0;  // CPU time of the service's threads
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  PrecisService::Metrics metrics;
};

std::vector<ServiceRequest> MakeWorkload(const std::vector<std::string>& pool,
                                         size_t num_queries, uint64_t seed) {
  ZipfSampler zipf(pool.size(), /*s=*/1.2);
  Rng rng(seed);
  std::vector<ServiceRequest> workload;
  workload.reserve(num_queries);
  for (size_t i = 0; i < num_queries; ++i) {
    ServiceRequest request;
    request.query.tokens = {pool[zipf.Sample(&rng)]};
    request.min_path_weight = 0.5;
    request.tuples_per_relation = 10;
    workload.push_back(std::move(request));
  }
  return workload;
}

double CpuSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

// CPU time of every thread but the caller's: the service's workers. The
// caller only waits on futures.
double ServiceCpuSeconds() {
  return CpuSeconds(CLOCK_PROCESS_CPUTIME_ID) -
         CpuSeconds(CLOCK_THREAD_CPUTIME_ID);
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n == 0 ? 0.0 : n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::unique_ptr<PrecisService> MakeService(const PrecisEngine* engine,
                                           FaultInjector* injector,
                                           size_t workers) {
  PrecisService::Options options;
  options.num_workers = workers;
  options.fault_injector = injector;  // may be nullptr (no machinery at all)
  options.retry_policy.initial_backoff_ns = 1'000;
  auto service = PrecisService::Create(engine, options);
  if (!service.ok()) {
    std::fprintf(stderr, "service: %s\n", service.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(*service);
}

// Runs `workload` through `service` and waits for every answer. Metrics
// are the service's totals, so a fresh service gives per-run figures.
RunResult RunBatch(PrecisService* service,
                   std::vector<ServiceRequest> workload) {
  const size_t num_queries = workload.size();
  const double cpu_start = ServiceCpuSeconds();
  auto start = std::chrono::steady_clock::now();
  auto futures = service->SubmitBatch(std::move(workload));
  // Newest first: the caller sleeps until the last query is done instead
  // of waking once per query beside the workers.
  for (auto it = futures.rbegin(); it != futures.rend(); ++it) {
    ServiceResponse response = it->get();
    if (!response.status.ok()) {
      std::fprintf(stderr, "ROBUSTNESS GATE: query failed under faults: %s\n",
                   response.status.ToString().c_str());
      std::exit(1);
    }
  }
  double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const double cpu_seconds = ServiceCpuSeconds() - cpu_start;
  RunResult result;
  result.cpu_us_per_query =
      cpu_seconds * 1e6 / static_cast<double>(num_queries);
  result.metrics = service->metrics();
  result.qps = seconds > 0 ? static_cast<double>(num_queries) / seconds : 0;
  result.p50_ms = result.metrics.p50_latency_seconds * 1e3;
  result.p99_ms = result.metrics.p99_latency_seconds * 1e3;
  return result;
}

int Main() {
  const bool smoke = std::getenv("PRECIS_BENCH_SMOKE") != nullptr;
  const size_t num_queries =
      EnvSize("PRECIS_BENCH_QUERIES", smoke ? 200 : 1024);
  // Overhead trials: many short interleaved pairs, so that slow drift in
  // the host's speed hits both sides alike and the medians resolve a few
  // percent (about 0.1 s of CPU per smoke trial at 300 films).
  const size_t overhead_queries = smoke ? 500 : 1000;
  const size_t overhead_trials = smoke ? 80 : 120;
  const std::string out_path =
      bench::EnvString("PRECIS_BENCH_OUT", "BENCH_fault_tolerance.json");

  MoviesConfig config;
  config.num_movies = bench::BenchMovieCount();
  auto ds = MoviesDataset::Create(config);
  if (!ds.ok()) {
    std::fprintf(stderr, "dataset: %s\n", ds.status().ToString().c_str());
    return 1;
  }
  MoviesDataset dataset = std::move(*ds);
  auto created = PrecisEngine::Create(&dataset.db(), &dataset.graph());
  if (!created.ok()) {
    std::fprintf(stderr, "engine: %s\n", created.status().ToString().c_str());
    return 1;
  }
  PrecisEngine engine = std::move(*created);

  std::vector<std::string> pool;
  Rng rng(23);
  for (int i = 0; i < 40; ++i) {
    auto token = RandomToken(dataset.db(), "DIRECTOR", "dname", &rng);
    if (!token.ok()) std::abort();
    pool.push_back(std::move(*token));
  }
  for (int i = 0; i < 12; ++i) {
    auto token = RandomToken(dataset.db(), "GENRE", "genre", &rng);
    if (!token.ok()) std::abort();
    pool.push_back(std::move(*token));
  }

  // --- Gate 1: zero-fault overhead, as the service's CPU time per query
  // (the idiom of perfbench's cpu_ms_per_query). Throughput of short trials
  // swings with the scheduler by more than the 5% the gate must resolve;
  // CPU time counts only the work done, and one service worker keeps
  // workers from contending with each other. Baseline (no injector) and
  // disarmed (injector present, every site off) trials run in pairs over
  // the same workload, alternating which side runs first, and the gate
  // takes the median of the pairs' CPU ratios.
  FaultInjector disarmed(99);  // never armed
  // Both sides run on this thread's CPU (their workers inherit the mask),
  // so neither gains from landing on a less contended vCPU; each side keeps
  // one long-lived service, so no trial pays thread start-up.
  cpu_set_t all_cpus;
  const int cpu = sched_getcpu();
  const bool pinned =
      cpu >= 0 && sched_getaffinity(0, sizeof(all_cpus), &all_cpus) == 0;
  if (pinned) {
    cpu_set_t one_cpu;
    CPU_ZERO(&one_cpu);
    CPU_SET(cpu, &one_cpu);
    sched_setaffinity(0, sizeof(one_cpu), &one_cpu);
  }
  auto baseline_service = MakeService(&engine, nullptr, /*workers=*/1);
  auto disarmed_service = MakeService(&engine, &disarmed, /*workers=*/1);
  std::vector<double> baseline_cpu;
  std::vector<double> disarmed_cpu;
  std::vector<double> pair_ratios;  // disarmed / baseline, same workload
  double best_baseline = 0.0;
  double best_disarmed = 0.0;
  for (size_t t = 0; t < overhead_trials; ++t) {
    for (int side = 0; side < 2; ++side) {
      const bool with_injector = (side == 0) == (t % 2 == 1);
      const RunResult run = RunBatch(
          with_injector ? disarmed_service.get() : baseline_service.get(),
          MakeWorkload(pool, overhead_queries, 300 + t));
      (with_injector ? disarmed_cpu : baseline_cpu)
          .push_back(run.cpu_us_per_query);
      double& best = with_injector ? best_disarmed : best_baseline;
      best = std::max(best, run.qps);
    }
    pair_ratios.push_back(disarmed_cpu.back() / baseline_cpu.back());
  }
  baseline_service.reset();
  disarmed_service.reset();
  if (pinned) sched_setaffinity(0, sizeof(all_cpus), &all_cpus);
  const double baseline_us = Median(baseline_cpu);
  const double disarmed_us = Median(disarmed_cpu);
  const double overhead = Median(pair_ratios) - 1.0;
  std::printf("zero-fault overhead: %.2f%% (median disarmed/baseline CPU "
              "ratio of %zu trial pairs of %zu queries; medians %.2f vs "
              "%.2f us/query, best %.1f vs %.1f qps)\n",
              overhead * 100.0, overhead_trials, overhead_queries,
              disarmed_us, baseline_us, best_disarmed, best_baseline);

  // --- Fault-rate sweep.
  const std::vector<double> rates = {0.0, 0.01, 0.1};
  std::ostringstream json;
  json << "{\n  \"bench\": \"fault_tolerance\",\n"
       << "  \"movies\": " << config.num_movies << ",\n"
       << "  \"queries\": " << num_queries << ",\n"
       << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
       << "  \"baseline_qps\": " << best_baseline << ",\n"
       << "  \"disarmed_qps\": " << best_disarmed << ",\n"
       << "  \"baseline_cpu_us_per_query\": " << baseline_us << ",\n"
       << "  \"disarmed_cpu_us_per_query\": " << disarmed_us << ",\n"
       << "  \"disarmed_overhead\": " << overhead << ",\n  \"runs\": [\n";

  std::printf("%-8s %12s %9s %9s %10s %10s %10s %10s\n", "p", "qps", "p50ms",
              "p99ms", "degraded", "retries", "dropped", "injected");
  bool gate_failed = false;
  uint64_t injected_at_max_rate = 0;
  for (size_t r = 0; r < rates.size(); ++r) {
    const double p = rates[r];
    FaultInjector injector(1234 + r);
    if (p > 0) {
      // Storage sites only: the translator is not on the service path.
      injector.SetSchedule(FaultSite::kIndexProbe,
                           FaultSchedule::Probability(p));
      injector.SetSchedule(FaultSite::kTupleFetch,
                           FaultSchedule::Probability(p));
      injector.SetSchedule(FaultSite::kJoinValueLookup,
                           FaultSchedule::Probability(p));
      injector.SetSchedule(FaultSite::kRelationScan,
                           FaultSchedule::Probability(p));
    }
    RunResult run =
        RunBatch(MakeService(&engine, &injector, /*workers=*/4).get(),
                 MakeWorkload(pool, num_queries, 700));
    const uint64_t injected = injector.total_injected();
    if (p >= 0.1) injected_at_max_rate = injected;
    std::printf("%-8.3f %12.1f %9.2f %9.2f %10llu %10llu %10llu %10llu\n", p,
                run.qps, run.p50_ms, run.p99_ms,
                static_cast<unsigned long long>(run.metrics.degraded_answers),
                static_cast<unsigned long long>(run.metrics.retries_total),
                static_cast<unsigned long long>(
                    run.metrics.dropped_tuples_total),
                static_cast<unsigned long long>(injected));
    if (run.metrics.failures != 0) {
      std::fprintf(stderr, "ROBUSTNESS GATE: %llu failures at p=%g\n",
                   static_cast<unsigned long long>(run.metrics.failures), p);
      gate_failed = true;
    }
    if (p == 0.0 && (run.metrics.degraded_answers != 0 ||
                     run.metrics.retries_total != 0)) {
      std::fprintf(stderr,
                   "ROBUSTNESS GATE: phantom degradation at p=0 "
                   "(degraded=%llu retries=%llu)\n",
                   static_cast<unsigned long long>(
                       run.metrics.degraded_answers),
                   static_cast<unsigned long long>(run.metrics.retries_total));
      gate_failed = true;
    }
    json << "    {\"p\": " << p << ", \"qps\": " << run.qps
         << ", \"p50_ms\": " << run.p50_ms << ", \"p99_ms\": " << run.p99_ms
         << ",\n     \"degraded_answers\": " << run.metrics.degraded_answers
         << ", \"retries\": " << run.metrics.retries_total
         << ", \"dropped_tuples\": " << run.metrics.dropped_tuples_total
         << ", \"injected\": " << injected << "}"
         << (r + 1 < rates.size() ? ",\n" : "\n");
  }
  json << "  ]\n}\n";

  std::ofstream out(out_path, std::ios::trunc);
  out << json.str();
  out.close();
  std::printf("report: %s\n", out_path.c_str());

  if (injected_at_max_rate == 0) {
    std::fprintf(stderr,
                 "ROBUSTNESS GATE: injector never fired at p=0.1 — the "
                 "fault sites are not wired\n");
    gate_failed = true;
  }
  if (overhead > 0.05) {
    std::fprintf(stderr,
                 "OVERHEAD GATE: disarmed fault machinery costs %.2f%% "
                 "(> 5%%) more CPU per query than the baseline\n",
                 overhead * 100.0);
    gate_failed = true;
  }
  if (gate_failed) return 1;
  std::printf("gates passed: overhead %.2f%% <= 5%%, all responses OK, "
              "faults degrade without failing\n",
              overhead * 100.0);
  return 0;
}

}  // namespace
}  // namespace precis

int main() { return precis::Main(); }
