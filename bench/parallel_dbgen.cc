// Intra-query parallel result-database generation: the Fig. 5 planner with
// its per-tuple work run inline (parallelism 1) vs the same plan with that
// work fanned out on a work-stealing TaskPool (DESIGN.md §11).
//
// Two timing modes per cardinality point:
//
//   * cpu: materialization cost is pure compute (tuple projection + copy +
//     emit). Speedup here is bounded by the machine's core count and by
//     the serial planning fraction (Amdahl), so on a small container it
//     can be modest.
//   * sim-io: every accepted tuple additionally pays
//     PRECIS_BENCH_LATENCY_NS of simulated storage latency — the paper's
//     setting, where the DBMS round-trip dominates (its §6 cost model
//     prices IndexTime/TupleTime in I/O terms). An inline run pays the
//     latency serially (one sleep per chunk); a pooled run overlaps it
//     across chunk tasks, so the speedup is real even on one core —
//     exactly like overlapping outstanding reads against a real storage
//     engine.
//
// Every pooled run is byte-compared (storage/serialization) against the
// inline one and the program exits non-zero on ANY mismatch: this
// bench doubles as the determinism gate ci.sh runs in smoke mode:
//
//   PRECIS_BENCH_MOVIES=300 PRECIS_BENCH_SMOKE=1 ./parallel_dbgen
//
// Knobs: PRECIS_BENCH_MOVIES (dataset size), PRECIS_BENCH_LATENCY_NS
// (simulated per-tuple latency, default 20000), PRECIS_BENCH_OUT (report
// path, default BENCH_parallel_dbgen.json).
//
// Full mode additionally gates on the headline claim: >= 2x sim-io
// speedup at parallelism 8 on the largest cardinality point.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/task_pool.h"
#include "precis/constraints.h"
#include "precis/database_generator.h"

namespace precis {
namespace {

int Main() {
  const bool smoke = std::getenv("PRECIS_BENCH_SMOKE") != nullptr;
  const uint64_t latency_ns = bench::EnvSize("PRECIS_BENCH_LATENCY_NS", 20000);
  const std::string out_path =
      bench::EnvString("PRECIS_BENCH_OUT", "BENCH_parallel_dbgen.json");

  const MoviesDataset& dataset = bench::SharedDataset();

  const bench::DbGenCase director = bench::DirectorCase(dataset, smoke);
  const size_t num_seeds = director.seeds.begin()->second.size();

  const std::vector<size_t> cardinalities =
      smoke ? std::vector<size_t>{200, 800}
            : std::vector<size_t>{1000, 4000, 16000, 64000};
  const std::vector<size_t> parallelisms = {2, 4, 8};

  // One pool per parallelism level, sized to match, reused across rows.
  std::map<size_t, std::unique_ptr<TaskPool>> pools;
  for (size_t p : parallelisms) pools[p] = std::make_unique<TaskPool>(p);

  size_t mismatches = 0;
  double speedup_8t_largest_io = 0.0;

  std::ostringstream json;
  json << "{\n  \"bench\": \"parallel_dbgen\",\n"
       << "  \"movies\": " << dataset.config().num_movies << ",\n"
       << "  \"seeds\": " << num_seeds << ",\n"
       << "  \"latency_ns\": " << latency_ns << ",\n"
       << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
       << "  \"rows\": [\n";

  std::printf("%-8s %-7s %8s %10s", "mode", "c", "tuples", "seq_ms");
  for (size_t p : parallelisms) std::printf(" %7s%zu", "par", p);
  for (size_t p : parallelisms) std::printf(" %6s%zu", "spd", p);
  std::printf("\n");

  bool first_row = true;
  for (const char* mode : {"cpu", "sim-io"}) {
    const bool io = std::string(mode) == "sim-io";
    for (size_t c : cardinalities) {
      auto cardinality = MaxTuplesPerRelation(c);
      DbGenOptions base;
      base.strategy = SubsetStrategy::kRoundRobin;
      base.simulated_access_latency_ns = io ? latency_ns : 0;

      DbGenOptions seq_options = base;
      seq_options.parallelism = 1;
      bench::TimedGeneration seq = bench::TimeGenerate(
          ResultDatabaseGenerator(&dataset.db()), director, *cardinality,
          seq_options);

      std::vector<double> par_ms;
      std::vector<double> speedups;
      for (size_t p : parallelisms) {
        DbGenOptions par_options = base;
        par_options.parallelism = p;
        par_options.pool = pools[p].get();
        bench::TimedGeneration par = bench::TimeGenerate(
            ResultDatabaseGenerator(&dataset.db()), director, *cardinality,
            par_options);
        if (par.bytes != seq.bytes) {
          std::fprintf(stderr,
                       "MISMATCH: mode=%s c=%zu parallelism=%zu emitted a "
                       "different database than the inline run\n",
                       mode, c, p);
          ++mismatches;
        }
        par_ms.push_back(par.ms);
        speedups.push_back(par.ms > 0 ? seq.ms / par.ms : 0.0);
      }
      if (io && c == cardinalities.back()) {
        speedup_8t_largest_io = speedups.back();
      }

      std::printf("%-8s %-7zu %8zu %10.2f", mode, c, seq.report.total_tuples,
                  seq.ms);
      for (double ms : par_ms) std::printf(" %8.2f", ms);
      for (double s : speedups) std::printf(" %6.2fx", s);
      std::printf("\n");

      if (!first_row) json << ",\n";
      first_row = false;
      json << "    {\"mode\": \"" << mode << "\", \"c\": " << c
           << ", \"tuples\": " << seq.report.total_tuples
           << ", \"seq_ms\": " << seq.ms << ", \"parallel\": [";
      for (size_t i = 0; i < parallelisms.size(); ++i) {
        json << (i > 0 ? ", " : "") << "{\"threads\": " << parallelisms[i]
             << ", \"ms\": " << par_ms[i] << ", \"speedup\": " << speedups[i]
             << "}";
      }
      json << "]}";
    }
  }

  json << "\n  ],\n  \"mismatches\": " << mismatches
       << ",\n  \"speedup_8t_largest_c_sim_io\": " << speedup_8t_largest_io
       << "\n}\n";

  std::ofstream out(out_path, std::ios::trunc);
  if (!out.is_open()) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << json.str();
  std::printf("mismatches=%zu sim_io_speedup_8t=%0.2fx -> %s\n", mismatches,
              speedup_8t_largest_io, out_path.c_str());

  // Gates. Byte-identity always; the >= 2x headline only in full mode
  // (smoke datasets are too small for stable timing).
  if (mismatches != 0) {
    std::fprintf(stderr, "FAIL: %zu pooled/inline mismatches\n",
                 mismatches);
    return 1;
  }
  if (!smoke && speedup_8t_largest_io < 2.0) {
    std::fprintf(stderr,
                 "FAIL: sim-io speedup at 8 threads on the largest "
                 "cardinality is %.2fx (< 2x)\n",
                 speedup_8t_largest_io);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace precis

int main() { return precis::Main(); }
