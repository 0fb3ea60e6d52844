// Shared fixtures for the experiment benches.
//
// The paper's prototype ran against an IMDB dump with "over 34k films" on
// Oracle 9i; these benches run against the synthetic movies dataset at a
// comparable scale (override with PRECIS_BENCH_MOVIES).

#ifndef PRECIS_BENCH_BENCH_UTIL_H_
#define PRECIS_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/lru_cache.h"
#include "common/random.h"
#include "datagen/movies_dataset.h"
#include "datagen/workload.h"
#include "precis/database_generator.h"
#include "precis/schema_generator.h"
#include "storage/serialization.h"

namespace precis {
namespace bench {

/// Positive-integer environment knob with a fallback (shared by every
/// standalone bench: PRECIS_BENCH_MOVIES, PRECIS_BENCH_QUERIES, ...).
inline size_t EnvSize(const char* name, size_t fallback) {
  const char* env = std::getenv(name);
  if (env != nullptr) {
    long v = std::atol(env);
    if (v > 0) return static_cast<size_t>(v);
  }
  return fallback;
}

/// String environment knob with a fallback (report paths).
inline std::string EnvString(const char* name, const char* fallback) {
  const char* env = std::getenv(name);
  return std::string(env != nullptr ? env : fallback);
}

inline size_t BenchMovieCount() {
  return EnvSize("PRECIS_BENCH_MOVIES", 20000);
}

/// Percentile by linear interpolation between closest ranks (the same
/// estimator PrecisService::metrics() uses). The old nearest-rank rounding
/// degenerated for small n — with two samples every p < 0.75 collapsed to
/// the minimum — which matters for smoke runs that collect a handful of
/// latencies. n=1 returns the sample; empty input returns 0.0.
inline double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  if (p <= 0.0) return samples.front();
  if (p >= 1.0) return samples.back();
  double rank = p * static_cast<double>(samples.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  if (lo + 1 >= samples.size()) return samples.back();
  double frac = rank - static_cast<double>(lo);
  return samples[lo] + frac * (samples[lo + 1] - samples[lo]);
}

/// Counter deltas between two snapshots of one cache level (entries and
/// the byte figures report the 'after' state: they are gauges, not
/// counters).
inline LruCacheStats CacheStatsDelta(const LruCacheStats& after,
                                     const LruCacheStats& before) {
  LruCacheStats d;
  d.hits = after.hits - before.hits;
  d.misses = after.misses - before.misses;
  d.inserts = after.inserts - before.inserts;
  d.rejected = after.rejected - before.rejected;
  d.evictions = after.evictions - before.evictions;
  d.entries = after.entries;
  d.charge_bytes = after.charge_bytes;
  d.doorkeeper_bytes = after.doorkeeper_bytes;
  return d;
}

/// One cache level as a JSON object field: `"<level>": {...}` (no trailing
/// comma or newline; the caller owns the surrounding layout).
inline void AppendCacheJson(std::ostream* os, const char* level,
                            const LruCacheStats& s) {
  *os << "      \"" << level << "\": {\"hits\": " << s.hits
      << ", \"misses\": " << s.misses << ", \"inserts\": " << s.inserts
      << ", \"rejected\": " << s.rejected
      << ", \"evictions\": " << s.evictions
      << ", \"hit_rate\": " << s.hit_rate() << "}";
}

/// The shared benchmark dataset, built once per process.
inline const MoviesDataset& SharedDataset() {
  static const MoviesDataset* dataset = [] {
    MoviesConfig config;
    config.num_movies = BenchMovieCount();
    auto ds = MoviesDataset::Create(config);
    if (!ds.ok()) {
      std::fprintf(stderr, "failed to build bench dataset: %s\n",
                   ds.status().ToString().c_str());
      std::abort();
    }
    return new MoviesDataset(std::move(*ds));
  }();
  return *dataset;
}

/// One Result Database Generator workload case: a result schema over a
/// connected set of relations plus random seed tuples of its start relation
/// (the paper's Fig. 8 / Fig. 9 methodology).
struct DbGenCase {
  ResultSchema schema;
  SeedTids seeds;
};

/// Builds `num_chains * num_seed_sets` cases over connected sets of
/// `num_relations` relations, with `seeds_per_set` random seed tuples each.
inline std::vector<DbGenCase> MakeDbGenCases(const MoviesDataset& dataset,
                                             size_t num_relations,
                                             uint64_t seed, size_t num_chains,
                                             size_t num_seed_sets,
                                             size_t seeds_per_set) {
  std::vector<DbGenCase> cases;
  Rng rng(seed);
  for (size_t c = 0; c < num_chains; ++c) {
    auto chain = RandomJoinChain(dataset.graph(), &rng, num_relations);
    if (!chain.ok()) std::abort();
    auto schema = SchemaForChain(dataset.graph(), *chain);
    if (!schema.ok()) std::abort();
    const std::string& start_name =
        dataset.graph().relation_name(chain->start);
    for (size_t s = 0; s < num_seed_sets; ++s) {
      auto tids =
          RandomSeedTids(dataset.db(), start_name, &rng, seeds_per_set);
      if (!tids.ok()) std::abort();
      cases.push_back(DbGenCase{*schema, {{chain->start, *tids}}});
    }
  }
  return cases;
}

/// The case the generation scaling bench (dbgen_scaling) times: one wide
/// result schema rooted at DIRECTOR — the paper's "précis of a director"
/// shape, deep enough (w >= 0.5) that the walk crosses several to-N joins
/// and the result database carries real volume — seeded with the first 16
/// (smoke) or 1024 directors.
inline DbGenCase DirectorCase(const MoviesDataset& dataset, bool smoke) {
  ResultSchemaGenerator schema_gen(&dataset.graph());
  auto schema =
      schema_gen.Generate({std::string("DIRECTOR")}, *MinPathWeight(0.5));
  auto director = dataset.db().GetRelation("DIRECTOR");
  if (!schema.ok() || !director.ok()) std::abort();
  const RelationNodeId director_id = *dataset.graph().RelationId("DIRECTOR");
  const size_t num_seeds =
      std::min<size_t>((*director)->num_tuples(), smoke ? 16 : 1024);
  DbGenCase out{std::move(*schema), {}};
  for (Tid tid = 0; tid < num_seeds; ++tid) {
    out.seeds[director_id].push_back(tid);
  }
  return out;
}

/// One timed generation run, serialized for byte comparison.
struct TimedGeneration {
  double ms = 0.0;
  std::string bytes;  // SaveDatabase text of the materialized result
  DbGenReport report;
};

/// Times `gen.Generate` on `dbgen_case`; exits the bench on any error.
inline TimedGeneration TimeGenerate(ResultDatabaseGenerator gen,
                                    const DbGenCase& dbgen_case,
                                    const CardinalityConstraint& c,
                                    const DbGenOptions& options,
                                    const PartitionedQuery& partitioned = {}) {
  const auto start = std::chrono::steady_clock::now();
  auto result = gen.Generate(dbgen_case.schema, dbgen_case.seeds, c, options,
                             /*ctx=*/nullptr, partitioned);
  TimedGeneration out;
  out.ms = std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
               .count();
  std::ostringstream os;
  Status saved = result.status();
  if (saved.ok()) {
    auto db = result->Materialize();
    saved = db.ok() ? SaveDatabase(*db, &os) : db.status();
  }
  if (!saved.ok()) {
    std::fprintf(stderr, "generate: %s\n", saved.ToString().c_str());
    std::exit(1);
  }
  out.bytes = os.str();
  out.report = gen.last_report();
  return out;
}

}  // namespace bench
}  // namespace precis

#endif  // PRECIS_BENCH_BENCH_UTIL_H_
