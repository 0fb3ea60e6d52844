// Sharded scatter-gather result-database generation: the Fig. 5 planner
// over one unpartitioned database, run inline, vs the same planner over N
// hash partitions (a ShardedSource, DESIGN.md §15).
//
// Sweep: shards in {1, 2, 4, 8} x {cpu, sim-io} x cardinality points.
// The shards=1 row IS the inline one-partition generator (what PrecisEngine
// runs over a database read in place), so speedup_N = seq_ms / shardN_ms
// compares real serving shapes.
//
//   * cpu: materialization is pure compute; the scatter wins by running
//     per-shard columnar kernels and posting-list merges on the pool while
//     the coordinator replays the plan.
//   * sim-io: every accepted tuple also pays PRECIS_BENCH_LATENCY_NS of
//     simulated storage latency (the paper's §6 setting), overlapped
//     across shard chunk tasks.
//
// Every sharded run is byte-compared (storage/serialization) against the
// single-engine database, and the report fields (total tuples, executed
// edges, truncations) must match too: the bench doubles as the shard
// determinism gate ci.sh runs in smoke mode:
//
//   PRECIS_BENCH_MOVIES=300 PRECIS_BENCH_SMOKE=1 ./shard_scaling
//
// Knobs: PRECIS_BENCH_MOVIES, PRECIS_BENCH_LATENCY_NS (default 20000),
// PRECIS_BENCH_OUT (default BENCH_shard.json).
//
// Full mode additionally gates on the headline claims at 8 shards on the
// largest cardinality point: >= 2x sim-io speedup always, and >= 2x
// cpu-mode speedup when the machine has >= 8 hardware threads (pure
// compute cannot speed up past the core count; on a smaller machine the
// cpu number is reported but not gated).

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
#include "shard/sharded_database.h"
#include "shard/sharded_source.h"

namespace precis {
namespace {

int Main() {
  const bool smoke = std::getenv("PRECIS_BENCH_SMOKE") != nullptr;
  const uint64_t latency_ns = bench::EnvSize("PRECIS_BENCH_LATENCY_NS", 20000);
  const std::string out_path =
      bench::EnvString("PRECIS_BENCH_OUT", "BENCH_shard.json");

  const MoviesDataset& dataset = bench::SharedDataset();

  const bench::DbGenCase director = bench::DirectorCase(dataset, smoke);
  const size_t num_seeds = director.seeds.begin()->second.size();

  const std::vector<size_t> cardinalities =
      smoke ? std::vector<size_t>{200, 800}
            : std::vector<size_t>{1000, 4000, 16000, 64000};
  const std::vector<size_t> shard_counts = {2, 4, 8};

  // Partition once per shard count (that cost is engine construction, not
  // per-query work) and give each its own matching pool.
  std::map<size_t, ShardedDatabase> partitions;
  std::map<size_t, std::unique_ptr<TaskPool>> pools;
  for (size_t n : shard_counts) {
    auto partitioned = ShardedDatabase::Partition(dataset.db(), n);
    if (!partitioned.ok()) {
      std::fprintf(stderr, "partition(%zu): %s\n", n,
                   partitioned.status().ToString().c_str());
      return 1;
    }
    partitions.emplace(n, std::move(*partitioned));
    pools[n] = std::make_unique<TaskPool>(n);
  }

  size_t mismatches = 0;
  double speedup_8s_largest_cpu = 0.0;
  double speedup_8s_largest_io = 0.0;

  std::ostringstream json;
  json << "{\n  \"bench\": \"shard_scaling\",\n"
       << "  \"movies\": " << dataset.config().num_movies << ",\n"
       << "  \"seeds\": " << num_seeds << ",\n"
       << "  \"latency_ns\": " << latency_ns << ",\n"
       << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
       << "  \"rows\": [\n";

  std::printf("%-8s %-7s %8s %10s", "mode", "c", "tuples", "s1_ms");
  for (size_t n : shard_counts) std::printf(" %7s%zu", "sh", n);
  for (size_t n : shard_counts) std::printf(" %6s%zu", "spd", n);
  std::printf("\n");

  bool first_row = true;
  for (const char* mode : {"cpu", "sim-io"}) {
    const bool io = std::string(mode) == "sim-io";
    for (size_t c : cardinalities) {
      auto cardinality = MaxTuplesPerRelation(c);
      DbGenOptions options;
      options.strategy = SubsetStrategy::kRoundRobin;
      options.simulated_access_latency_ns = io ? latency_ns : 0;
      options.parallelism = 1;  // scatter width comes from the shard count

      bench::TimedGeneration seq = bench::TimeGenerate(
          ResultDatabaseGenerator(&dataset.db()), director, *cardinality,
          options);

      std::vector<double> shard_ms;
      std::vector<double> speedups;
      for (size_t n : shard_counts) {
        DbGenOptions shard_options = options;
        shard_options.pool = pools[n].get();
        ShardedSource source(&partitions.at(n));
        bench::TimedGeneration sharded =
            bench::TimeGenerate(ResultDatabaseGenerator(&source), director,
                                *cardinality, shard_options);
        if (sharded.bytes != seq.bytes ||
            sharded.report.total_tuples != seq.report.total_tuples ||
            sharded.report.executed_edges != seq.report.executed_edges ||
            sharded.report.truncated_relations !=
                seq.report.truncated_relations) {
          std::fprintf(stderr,
                       "MISMATCH: mode=%s c=%zu shards=%zu emitted a "
                       "different database or report than the "
                       "single-engine run\n",
                       mode, c, n);
          ++mismatches;
        }
        shard_ms.push_back(sharded.ms);
        speedups.push_back(sharded.ms > 0 ? seq.ms / sharded.ms : 0.0);
      }
      if (c == cardinalities.back()) {
        (io ? speedup_8s_largest_io : speedup_8s_largest_cpu) =
            speedups.back();
      }

      std::printf("%-8s %-7zu %8zu %10.2f", mode, c, seq.report.total_tuples,
                  seq.ms);
      for (double ms : shard_ms) std::printf(" %8.2f", ms);
      for (double s : speedups) std::printf(" %6.2fx", s);
      std::printf("\n");

      if (!first_row) json << ",\n";
      first_row = false;
      json << "    {\"mode\": \"" << mode << "\", \"c\": " << c
           << ", \"tuples\": " << seq.report.total_tuples
           << ", \"shards1_ms\": " << seq.ms << ", \"sharded\": [";
      for (size_t i = 0; i < shard_counts.size(); ++i) {
        json << (i > 0 ? ", " : "") << "{\"shards\": " << shard_counts[i]
             << ", \"ms\": " << shard_ms[i] << ", \"speedup\": " << speedups[i]
             << "}";
      }
      json << "]}";
    }
  }

  json << "\n  ],\n  \"mismatches\": " << mismatches
       << ",\n  \"speedup_8s_largest_c_cpu\": " << speedup_8s_largest_cpu
       << ",\n  \"speedup_8s_largest_c_sim_io\": " << speedup_8s_largest_io
       << ",\n  \"hardware_threads\": "
       << std::thread::hardware_concurrency() << "\n}\n";

  std::ofstream out(out_path, std::ios::trunc);
  if (!out.is_open()) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << json.str();
  std::printf("mismatches=%zu cpu_speedup_8s=%0.2fx io_speedup_8s=%0.2fx "
              "-> %s\n",
              mismatches, speedup_8s_largest_cpu, speedup_8s_largest_io,
              out_path.c_str());

  // Gates. Byte-identity always; the >= 2x headlines only in full mode
  // (smoke datasets are too small for stable timing).
  if (mismatches != 0) {
    std::fprintf(stderr, "FAIL: %zu sharded/single-engine mismatches\n",
                 mismatches);
    return 1;
  }
  if (!smoke && speedup_8s_largest_io < 2.0) {
    std::fprintf(stderr,
                 "FAIL: sim-io speedup at 8 shards on the largest "
                 "cardinality is %.2fx (< 2x)\n",
                 speedup_8s_largest_io);
    return 1;
  }
  const unsigned cores = std::thread::hardware_concurrency();
  if (!smoke && cores >= 8 && speedup_8s_largest_cpu < 2.0) {
    std::fprintf(stderr,
                 "FAIL: cpu-mode speedup at 8 shards on the largest "
                 "cardinality is %.2fx (< 2x on %u hardware threads)\n",
                 speedup_8s_largest_cpu, cores);
    return 1;
  }
  if (!smoke && cores < 8) {
    std::fprintf(stderr,
                 "note: cpu-mode 2x gate skipped (%u hardware threads < 8; "
                 "pure compute cannot beat the core count)\n",
                 cores);
  }
  return 0;
}

}  // namespace
}  // namespace precis

int main() { return precis::Main(); }
