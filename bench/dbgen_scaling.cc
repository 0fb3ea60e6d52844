// Result-database generation scaling: the Fig. 5 planner run inline vs the
// same plan with its chunk tasks spread `width` ways, in the two shapes the
// engine serves (DESIGN.md §11, §15):
//
//   * pooled: one partition (the database read in place) with chunk tasks
//     on a work-stealing TaskPool of that width (parallelism = width);
//   * partitioned: `width` hash partitions of the same database behind a
//     healthy ShardedSource, which reads it in place, with chunk tasks on a
//     pool of that width (parallelism 1: the width comes from the
//     partitions). The two shapes should cost the same.
//
// Sweep: width in {2, 4, 8} x {pooled, partitioned} x {cpu, sim-io} x
// cardinality points. The inline run is what PrecisEngine runs over a
// database read in place, so speedup = inline_ms / ms compares real
// serving shapes.
//
//   * cpu: materialization is pure compute; speedup is bounded by the core
//     count and the serial planning fraction (Amdahl).
//   * sim-io: every accepted tuple also pays PRECIS_BENCH_LATENCY_NS of
//     simulated storage latency (the paper's §6 setting) as sleeps, which
//     chunk tasks overlap like outstanding reads — a modelled speedup, real
//     even on one core.
//
// Every run is byte-compared (storage/serialization) against the inline
// database, and its report fields (total tuples, executed edges,
// truncations) must match too; any mismatch exits non-zero, so the bench
// doubles as the generation determinism gate ci.sh runs in smoke mode:
//
//   PRECIS_BENCH_MOVIES=300 PRECIS_BENCH_SMOKE=1 ./dbgen_scaling
//
// Knobs: PRECIS_BENCH_MOVIES, PRECIS_BENCH_LATENCY_NS (default 20000),
// PRECIS_BENCH_OUT (default BENCH_dbgen_scaling.json).
//
// Full mode additionally gates on the headline claims at width 8 on the
// largest cardinality point: >= 2x sim-io speedup for both shapes, and
// >= 2x cpu-mode speedup at 8 partitions when the machine has >= 8 hardware
// threads (pure compute cannot speed up past the core count; on a smaller
// machine the cpu number is reported but not gated).

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/task_pool.h"
#include "precis/constraints.h"
#include "precis/database_generator.h"
#include "shard/sharded_source.h"

namespace precis {
namespace {

bool SameOutput(const bench::TimedGeneration& a,
                const bench::TimedGeneration& b) {
  return a.bytes == b.bytes &&
         a.report.total_tuples == b.report.total_tuples &&
         a.report.executed_edges == b.report.executed_edges &&
         a.report.truncated_relations == b.report.truncated_relations;
}

int Main() {
  const bool smoke = std::getenv("PRECIS_BENCH_SMOKE") != nullptr;
  const uint64_t latency_ns = bench::EnvSize("PRECIS_BENCH_LATENCY_NS", 20000);
  const std::string out_path =
      bench::EnvString("PRECIS_BENCH_OUT", "BENCH_dbgen_scaling.json");

  const MoviesDataset& dataset = bench::SharedDataset();

  const bench::DbGenCase director = bench::DirectorCase(dataset, smoke);
  const size_t num_seeds = director.seeds.begin()->second.size();

  const std::vector<size_t> cardinalities =
      smoke ? std::vector<size_t>{200, 800}
            : std::vector<size_t>{1000, 4000, 16000, 64000};
  const std::vector<size_t> widths = {2, 4, 8};
  const char* const shapes[] = {"pooled", "partitioned"};

  // Count the partitions once per width (that cost is engine construction,
  // not per-query work); one pool per width serves both shapes.
  const DatabaseSource in_place(&dataset.db());
  std::map<size_t, std::unique_ptr<SourcePartitions>> partitions;
  std::map<size_t, std::unique_ptr<TaskPool>> pools;
  for (size_t w : widths) {
    partitions[w] = std::make_unique<SourcePartitions>(&dataset.db(), w);
    pools[w] = std::make_unique<TaskPool>(w);
  }

  size_t mismatches = 0;
  // [shape][mode] speedup at width 8 on the largest cardinality.
  double headline[2][2] = {{0.0, 0.0}, {0.0, 0.0}};

  std::ostringstream json;
  json << "{\n  \"bench\": \"dbgen_scaling\",\n"
       << "  \"movies\": " << dataset.config().num_movies << ",\n"
       << "  \"seeds\": " << num_seeds << ",\n"
       << "  \"latency_ns\": " << latency_ns << ",\n"
       << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
       << "  \"hardware_threads\": " << std::thread::hardware_concurrency()
       << ",\n  \"rows\": [\n";

  std::printf("%-8s %-7s %8s %10s", "mode", "c", "tuples", "inline_ms");
  for (const char* shape : {"pool", "part"}) {
    for (size_t w : widths) std::printf(" %6s%zu", shape, w);
  }
  std::printf("   (speedup)\n");

  bool first_row = true;
  for (int m = 0; m < 2; ++m) {
    const char* mode = m == 0 ? "cpu" : "sim-io";
    for (size_t c : cardinalities) {
      auto cardinality = MaxTuplesPerRelation(c);
      DbGenOptions options;
      options.strategy = SubsetStrategy::kRoundRobin;
      options.simulated_access_latency_ns = m == 1 ? latency_ns : 0;
      options.parallelism = 1;

      bench::TimedGeneration inline_run = bench::TimeGenerate(
          ResultDatabaseGenerator(&dataset.db()), director, *cardinality,
          options);

      std::vector<double> speedups[2];
      if (!first_row) json << ",\n";
      first_row = false;
      json << "    {\"mode\": \"" << mode << "\", \"c\": " << c
           << ", \"tuples\": " << inline_run.report.total_tuples
           << ", \"inline_ms\": " << inline_run.ms;
      for (int shape = 0; shape < 2; ++shape) {
        json << ", \"" << shapes[shape] << "\": [";
        for (size_t i = 0; i < widths.size(); ++i) {
          const size_t w = widths[i];
          DbGenOptions run_options = options;
          run_options.pool = pools[w].get();
          bench::TimedGeneration run;
          if (shape == 0) {
            run_options.parallelism = w;
            run = bench::TimeGenerate(ResultDatabaseGenerator(&dataset.db()),
                                      director, *cardinality, run_options);
          } else {
            const ShardedSource source(&in_place, partitions.at(w).get());
            run = bench::TimeGenerate(ResultDatabaseGenerator(&source),
                                      director, *cardinality, run_options);
          }
          if (!SameOutput(run, inline_run)) {
            std::fprintf(stderr,
                         "MISMATCH: mode=%s c=%zu %s width=%zu emitted a "
                         "different database or report than the inline "
                         "run\n",
                         mode, c, shapes[shape], w);
            ++mismatches;
          }
          const double speedup = run.ms > 0 ? inline_run.ms / run.ms : 0.0;
          speedups[shape].push_back(speedup);
          json << (i > 0 ? ", " : "") << "{\"width\": " << w
               << ", \"ms\": " << run.ms << ", \"speedup\": " << speedup
               << "}";
        }
        json << "]";
        if (c == cardinalities.back()) {
          headline[shape][m] = speedups[shape].back();
        }
      }
      json << "}";

      std::printf("%-8s %-7zu %8zu %10.2f", mode, c,
                  inline_run.report.total_tuples, inline_run.ms);
      for (int shape = 0; shape < 2; ++shape) {
        for (double s : speedups[shape]) std::printf(" %6.2fx", s);
      }
      std::printf("\n");
    }
  }

  json << "\n  ],\n  \"mismatches\": " << mismatches
       << ",\n  \"speedup_w8_largest_c\": {\"pooled\": {\"cpu\": "
       << headline[0][0] << ", \"sim_io\": " << headline[0][1]
       << "}, \"partitioned\": {\"cpu\": " << headline[1][0]
       << ", \"sim_io\": " << headline[1][1] << "}}\n}\n";

  std::ofstream out(out_path, std::ios::trunc);
  if (!out.is_open()) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << json.str();
  std::printf("mismatches=%zu sim-io w8: pooled %.2fx partitioned %.2fx; "
              "cpu w8: pooled %.2fx partitioned %.2fx -> %s\n",
              mismatches, headline[0][1], headline[1][1], headline[0][0],
              headline[1][0], out_path.c_str());

  // Gates. Byte-identity always; the >= 2x headlines only in full mode
  // (smoke datasets are too small for stable timing).
  if (mismatches != 0) {
    std::fprintf(stderr, "FAIL: %zu runs differ from the inline run\n",
                 mismatches);
    return 1;
  }
  if (smoke) return 0;
  int status = 0;
  for (int shape = 0; shape < 2; ++shape) {
    if (headline[shape][1] < 2.0) {
      std::fprintf(stderr,
                   "FAIL: %s sim-io speedup at width 8 on the largest "
                   "cardinality is %.2fx (< 2x)\n",
                   shapes[shape], headline[shape][1]);
      status = 1;
    }
  }
  const unsigned cores = std::thread::hardware_concurrency();
  if (cores >= 8 && headline[1][0] < 2.0) {
    std::fprintf(stderr,
                 "FAIL: cpu-mode speedup at 8 partitions on the largest "
                 "cardinality is %.2fx (< 2x on %u hardware threads)\n",
                 headline[1][0], cores);
    status = 1;
  }
  if (cores < 8) {
    std::fprintf(stderr,
                 "note: cpu-mode 2x gate skipped (%u hardware threads < 8; "
                 "pure compute cannot beat the core count)\n",
                 cores);
  }
  return status;
}

}  // namespace
}  // namespace precis

int main() { return precis::Main(); }
