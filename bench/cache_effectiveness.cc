// Cache effectiveness: Zipf-skewed query mix, caches off vs on.
//
// A précis feature on a real site sees a heavily skewed query stream: a few
// celebrities dominate while the long tail is asked once (the usual web
// query-log shape). This bench drives PrecisService with a Zipf-distributed
// token mix over several worker-pool sizes and reports throughput and
// latency percentiles with all cache levels (token / schema / answer,
// DESIGN.md §10) disabled vs enabled, plus per-level hit/miss/eviction
// counters. It then interleaves inserts with cached queries and verifies —
// by JSON equality against a from-scratch uncached answer — that epoch
// invalidation never serves a stale answer.
//
// Unlike the google-benchmark experiments, this is a standalone program
// with a machine-readable JSON report (BENCH_cache.json) and a non-zero
// exit code when the cache is ineffective (zero answer-cache hits on a
// repeating workload) or, worse, wrong (any stale answer). ci.sh runs it
// in smoke mode over a tiny dataset:
//
//   PRECIS_BENCH_MOVIES=300 PRECIS_BENCH_SMOKE=1 ./cache_effectiveness
//
// Knobs: PRECIS_BENCH_MOVIES (dataset size), PRECIS_BENCH_QUERIES (queries
// per run), PRECIS_BENCH_OUT (report path, default BENCH_cache.json).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "datagen/movies_dataset.h"
#include "datagen/workload.h"
#include "precis/constraints.h"
#include "precis/engine.h"
#include "precis/json_export.h"
#include "service/precis_service.h"

namespace precis {
namespace {

using bench::AppendCacheJson;
using bench::CacheStatsDelta;
using bench::EnvSize;

struct RunResult {
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

/// Zipf-skewed request stream: rank r of the token pool is asked with
/// probability ~ 1/r^s, like a web query log.
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

RunResult RunOnce(const PrecisEngine* engine, size_t workers,
                  std::vector<ServiceRequest> workload) {
  PrecisService::Options options;
  options.num_workers = workers;
  auto service = PrecisService::Create(engine, options);
  if (!service.ok()) {
    std::fprintf(stderr, "service: %s\n",
                 service.status().ToString().c_str());
    std::exit(1);
  }
  const size_t num_queries = workload.size();
  auto start = std::chrono::steady_clock::now();
  auto futures = (*service)->SubmitBatch(std::move(workload));
  for (auto& future : futures) {
    ServiceResponse response = future.get();
    if (!response.status.ok()) {
      std::fprintf(stderr, "query: %s\n",
                   response.status.ToString().c_str());
      std::exit(1);
    }
  }
  double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  PrecisService::Metrics metrics = (*service)->metrics();
  RunResult result;
  result.qps = seconds > 0 ? static_cast<double>(num_queries) / seconds : 0;
  result.p50_ms = metrics.p50_latency_seconds * 1e3;
  result.p99_ms = metrics.p99_latency_seconds * 1e3;
  return result;
}

/// Interleaves inserts (epoch bumps) with cached queries and compares every
/// cached-path answer against a from-scratch uncached one. Returns the
/// number of mismatches (stale answers served); 0 is the only right answer.
/// Exits non-zero when a warmed token never hits.
size_t StaleCheck(MoviesDataset* dataset, PrecisEngine* engine,
                  const std::vector<std::string>& pool, size_t rounds) {
  engine->set_caches_enabled(true);
  auto degree = MinPathWeight(0.5);
  auto cardinality = MaxTuplesPerRelation(10);
  DbGenOptions options;
  auto genre = dataset->db().GetRelation("GENRE");
  auto movie = dataset->db().GetRelation("MOVIE");
  if (!genre.ok() || !movie.ok() || (*movie)->num_tuples() == 0) {
    std::fprintf(stderr, "stale check: GENRE/MOVIE missing\n");
    std::exit(1);
  }
  size_t mismatches = 0;
  for (size_t round = 0; round < rounds; ++round) {
    const std::string& token = pool[round % pool.size()];
    PrecisQuery query{{token}};
    // Warm the cache with this token until a call hits: its first sight is
    // turned away at the door and its second stores it, so the insert
    // below must invalidate an entry the cache really holds.
    const uint64_t hits = engine->answer_cache_stats().hits;
    for (int call = 0; engine->answer_cache_stats().hits == hits; ++call) {
      if (call == 3) {
        std::fprintf(stderr, "stale check: token '%s' never hit\n",
                     token.c_str());
        std::exit(1);
      }
      auto warm = engine->AnswerShared(query, *degree, *cardinality, options);
      if (!warm.ok()) std::exit(1);
    }
    // Mutate: a new GENRE tuple joining an existing movie. This bumps the
    // database epoch, so every cached answer must become unreachable.
    int64_t mid = (*movie)->tuple(round % (*movie)->num_tuples())[0].AsInt64();
    auto inserted = (*genre)->Insert(
        {int64_t{900000000} + static_cast<int64_t>(round), mid, "Benchwave"});
    if (!inserted.ok()) std::exit(1);
    // Cached path vs from-scratch: must be byte-identical JSON.
    auto cached = engine->AnswerShared(query, *degree, *cardinality, options);
    auto fresh = engine->Answer(query, *degree, *cardinality, options);
    if (!cached.ok() || !fresh.ok()) std::exit(1);
    if (AnswerToJson(**cached) != AnswerToJson(*fresh)) {
      std::fprintf(stderr, "STALE answer for token '%s' after insert %zu\n",
                   token.c_str(), round);
      ++mismatches;
    }
  }
  return mismatches;
}

int Main() {
  const bool smoke = std::getenv("PRECIS_BENCH_SMOKE") != nullptr;
  const size_t num_queries =
      EnvSize("PRECIS_BENCH_QUERIES", smoke ? 160 : 1024);
  const std::string out_path =
      bench::EnvString("PRECIS_BENCH_OUT", "BENCH_cache.json");

  // A mutable dataset (the stale check inserts into it), not the shared
  // read-only fixture the google-benchmark experiments use.
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
    std::fprintf(stderr, "engine: %s\n",
                 created.status().ToString().c_str());
    return 1;
  }
  PrecisEngine engine = std::move(*created);

  // Token pool: mostly multi-word director names (they exercise the phrase
  // path and the token cache) plus a few one-word genres.
  std::vector<std::string> pool;
  Rng rng(17);
  for (int i = 0; i < 48; ++i) {
    auto token = RandomToken(dataset.db(), "DIRECTOR", "dname", &rng);
    if (!token.ok()) std::abort();
    pool.push_back(std::move(*token));
  }
  for (int i = 0; i < 16; ++i) {
    auto token = RandomToken(dataset.db(), "GENRE", "genre", &rng);
    if (!token.ok()) std::abort();
    pool.push_back(std::move(*token));
  }

  const std::vector<size_t> worker_counts =
      smoke ? std::vector<size_t>{2} : std::vector<size_t>{1, 2, 4, 8};

  std::ostringstream json;
  json << "{\n  \"bench\": \"cache_effectiveness\",\n"
       << "  \"movies\": " << config.num_movies << ",\n"
       << "  \"queries\": " << num_queries << ",\n"
       << "  \"zipf_s\": 1.2,\n  \"smoke\": " << (smoke ? "true" : "false")
       << ",\n  \"runs\": [\n";

  std::printf("%-8s %12s %12s %9s %9s %9s %9s %9s\n", "workers", "qps_off",
              "qps_on", "speedup", "p50off", "p50on", "p99off", "p99on");
  double best_speedup = 0.0;
  for (size_t w = 0; w < worker_counts.size(); ++w) {
    size_t workers = worker_counts[w];
    // Same workload (same seed) for both configurations of this row.
    // Disabling clears every level, so each row starts cold.
    engine.set_caches_enabled(false);
    RunResult off =
        RunOnce(&engine, workers, MakeWorkload(pool, num_queries, 100 + w));
    engine.set_caches_enabled(true);
    LruCacheStats token_before = engine.token_cache_stats();
    LruCacheStats schema_before = engine.schema_cache_stats();
    LruCacheStats answer_before = engine.answer_cache_stats();
    RunResult on =
        RunOnce(&engine, workers, MakeWorkload(pool, num_queries, 100 + w));
    LruCacheStats token_stats =
        CacheStatsDelta(engine.token_cache_stats(), token_before);
    LruCacheStats schema_stats =
        CacheStatsDelta(engine.schema_cache_stats(), schema_before);
    LruCacheStats answer_stats =
        CacheStatsDelta(engine.answer_cache_stats(), answer_before);

    double speedup = off.qps > 0 ? on.qps / off.qps : 0;
    best_speedup = std::max(best_speedup, speedup);
    std::printf("%-8zu %12.1f %12.1f %8.2fx %7.2fms %7.2fms %7.2fms "
                "%7.2fms\n",
                workers, off.qps, on.qps, speedup, off.p50_ms, on.p50_ms,
                off.p99_ms, on.p99_ms);

    json << "    {\"workers\": " << workers << ", \"qps_off\": " << off.qps
         << ", \"qps_on\": " << on.qps << ", \"speedup\": " << speedup
         << ",\n     \"p50_off_ms\": " << off.p50_ms
         << ", \"p50_on_ms\": " << on.p50_ms
         << ", \"p99_off_ms\": " << off.p99_ms
         << ", \"p99_on_ms\": " << on.p99_ms << ",\n     \"caches\": {\n";
    AppendCacheJson(&json, "token", token_stats);
    json << ",\n";
    AppendCacheJson(&json, "schema", schema_stats);
    json << ",\n";
    AppendCacheJson(&json, "answer", answer_stats);
    json << "\n     }}" << (w + 1 < worker_counts.size() ? "," : "") << "\n";
  }

  // Correctness gate: interleave inserts with cached queries.
  size_t stale = StaleCheck(&dataset, &engine, pool, smoke ? 4 : 8);
  LruCacheStats total_answer = engine.answer_cache_stats();

  json << "  ],\n  \"stale_mismatches\": " << stale
       << ",\n  \"answer_cache_total\": {\"hits\": " << total_answer.hits
       << ", \"misses\": " << total_answer.misses
       << ", \"hit_rate\": " << total_answer.hit_rate() << "},\n"
       << "  \"best_speedup\": " << best_speedup << "\n}\n";

  std::ofstream out(out_path, std::ios::trunc);
  if (!out.is_open()) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << json.str();
  std::printf("stale_mismatches=%zu answer_hit_rate=%.2f best_speedup=%.2fx"
              " -> %s\n",
              stale, total_answer.hit_rate(), best_speedup,
              out_path.c_str());

  // Gates: a repeating Zipf workload that never hits the answer cache means
  // the cache is broken; a stale answer means the invalidation is broken.
  if (total_answer.hits == 0) {
    std::fprintf(stderr, "FAIL: zero answer-cache hits on a Zipf workload\n");
    return 1;
  }
  if (stale != 0) {
    std::fprintf(stderr, "FAIL: %zu stale answers served\n", stale);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace precis

int main() { return precis::Main(); }
