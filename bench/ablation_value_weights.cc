// Ablation: data-value weights (§7's "weights on data values", implemented
// as ranked subset selection) vs the paper's arbitrary-subset strategies.
//
// Setup: précis answers about directors, MOVIE tuples weighted by recency
// (year, min-max normalized). Measured per budget c_R: the mean normalized
// weight ("importance") of the movie tuples each strategy keeps, and the
// time it costs. Expected shape: ranked selection keeps clearly heavier
// tuples whenever the budget truncates, converging with the baselines as
// c_R grows past the neighbourhood size; its latency overhead is the extra
// candidate collection + sort.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "precis/constraints.h"
#include "precis/schema_generator.h"
#include "precis/tuple_weights.h"

namespace precis {
namespace {

const TupleWeightStore& RecencyWeights() {
  static const TupleWeightStore* store = [] {
    auto* s = new TupleWeightStore();
    if (!WeightsFromNumericAttribute(bench::SharedDataset().db(), "MOVIE",
                                     "year", s)
             .ok()) {
      std::abort();
    }
    return s;
  }();
  return *store;
}

/// Director-rooted workload cases (DIRECTOR -> MOVIE -> ... schema).
const std::vector<bench::DbGenCase>& Cases() {
  static const std::vector<bench::DbGenCase>* cases = [] {
    auto* out = new std::vector<bench::DbGenCase>();
    const MoviesDataset& dataset = bench::SharedDataset();
    ResultSchemaGenerator schema_gen(&dataset.graph());
    auto schema = schema_gen.Generate({std::string("DIRECTOR")},
                                      *MinPathWeight(0.9));
    if (!schema.ok()) std::abort();
    Rng rng(31);
    RelationNodeId director = *dataset.graph().RelationId("DIRECTOR");
    for (int i = 0; i < 40; ++i) {
      auto tids = RandomSeedTids(dataset.db(), "DIRECTOR", &rng, 3);
      if (!tids.ok()) std::abort();
      out->push_back(bench::DbGenCase{*schema, {{director, *tids}}});
    }
    return out;
  }();
  return *cases;
}

/// Mean recency weight of the MOVIE tuples in a result database (its
/// tids are the source's, which the weights are keyed on).
double MeanMovieWeight(const ResultDatabase& result) {
  const ResultRelation* movie = result.relation("MOVIE");
  if (movie == nullptr || movie->tids.empty()) return 0.0;
  double total = 0.0;
  for (Tid tid : movie->tids) total += RecencyWeights().Weight("MOVIE", tid);
  return total / static_cast<double>(movie->tids.size());
}

void RunSelection(benchmark::State& state, bool ranked) {
  const MoviesDataset& dataset = bench::SharedDataset();
  auto constraint =
      MaxTuplesPerRelation(static_cast<size_t>(state.range(0)));
  DbGenOptions options;
  if (ranked) options.tuple_weights = &RecencyWeights();

  size_t run = 0;
  double weight_sum = 0.0;
  size_t runs = 0;
  for (auto _ : state) {
    const bench::DbGenCase& c = Cases()[run++ % Cases().size()];
    ResultDatabaseGenerator generator(&dataset.db());
    auto result = generator.Generate(c.schema, c.seeds, *constraint, options);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      break;
    }
    state.PauseTiming();
    weight_sum += MeanMovieWeight(*result);
    state.ResumeTiming();
    ++runs;
  }
  if (runs > 0) {
    state.counters["mean_importance"] =
        weight_sum / static_cast<double>(runs);
  }
}

void BM_ArbitrarySubset(benchmark::State& state) {
  RunSelection(state, /*ranked=*/false);
}

void BM_RankedSubset(benchmark::State& state) {
  RunSelection(state, /*ranked=*/true);
}

BENCHMARK(BM_ArbitrarySubset)
    ->ArgName("c_R")
    ->Arg(2)
    ->Arg(5)
    ->Arg(10)
    ->Arg(25)
    ->Arg(100);
BENCHMARK(BM_RankedSubset)
    ->ArgName("c_R")
    ->Arg(2)
    ->Arg(5)
    ->Arg(10)
    ->Arg(25)
    ->Arg(100);

}  // namespace
}  // namespace precis

BENCHMARK_MAIN();
