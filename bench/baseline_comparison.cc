// §2 comparison: précis queries vs DISCOVER/DBXplorer-style keyword search.
//
// The paper's qualitative claim: existing keyword-search systems return
// flattened (relation, attribute) matches or joined rows, whereas a précis
// also assembles the information *around* the matches into a sub-database.
// This bench makes the comparison quantitative on the same token workload:
// answer latency, and how much connected context each paradigm returns.

#include <benchmark/benchmark.h>

#include <memory>

#include "baseline/keyword_search.h"
#include "bench/bench_util.h"
#include "common/random.h"
#include "datagen/workload.h"
#include "precis/engine.h"

namespace precis {
namespace {

/// A mixed workload of single-token queries drawn from the data.
const std::vector<std::string>& Tokens() {
  static const std::vector<std::string>* tokens = [] {
    auto* out = new std::vector<std::string>();
    Rng rng(77);
    const Database& db = bench::SharedDataset().db();
    for (int i = 0; i < 8; ++i) {
      out->push_back(*RandomToken(db, "DIRECTOR", "dname", &rng));
      out->push_back(*RandomToken(db, "MOVIE", "title", &rng));
      out->push_back(*RandomToken(db, "ACTOR", "aname", &rng));
    }
    out->push_back("Woody Allen");
    return out;
  }();
  return *tokens;
}

PrecisEngine* SharedPrecisEngine() {
  static PrecisEngine* engine = [] {
    auto e = PrecisEngine::Create(&bench::SharedDataset().db(),
                                  &bench::SharedDataset().graph());
    if (!e.ok()) std::abort();
    return new PrecisEngine(std::move(*e));
  }();
  return engine;
}

KeywordSearchBaseline* SharedBaseline() {
  static KeywordSearchBaseline* engine = [] {
    auto e = KeywordSearchBaseline::Create(&bench::SharedDataset().db(),
                                           &bench::SharedDataset().graph());
    if (!e.ok()) std::abort();
    return new KeywordSearchBaseline(std::move(*e));
  }();
  return engine;
}

void BM_PrecisAnswer(benchmark::State& state) {
  PrecisEngine* engine = SharedPrecisEngine();
  auto d = MinPathWeight(0.9);
  auto c = MaxTuplesPerRelation(static_cast<size_t>(state.range(0)));
  size_t run = 0;
  size_t total_tuples = 0;
  size_t total_relations = 0;
  size_t runs = 0;
  for (auto _ : state) {
    const std::string& token = Tokens()[run++ % Tokens().size()];
    auto answer = engine->Answer(PrecisQuery{{token}}, *d, *c);
    if (!answer.ok()) {
      state.SkipWithError(answer.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(answer);
    total_tuples += answer->database.TotalTuples();
    total_relations += answer->database.relations().size();
    ++runs;
  }
  if (runs > 0) {
    state.counters["tuples"] =
        static_cast<double>(total_tuples) / static_cast<double>(runs);
    state.counters["relations"] =
        static_cast<double>(total_relations) / static_cast<double>(runs);
  }
}

void BM_KeywordSearch(benchmark::State& state) {
  KeywordSearchBaseline* engine = SharedBaseline();
  KeywordSearchOptions options;
  options.top_k = static_cast<size_t>(state.range(0));
  size_t run = 0;
  size_t total_results = 0;
  size_t runs = 0;
  for (auto _ : state) {
    const std::string& token = Tokens()[run++ % Tokens().size()];
    auto results = engine->Search({token}, options);
    if (!results.ok()) {
      state.SkipWithError(results.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(results);
    total_results += results->size();
    ++runs;
  }
  if (runs > 0) {
    state.counters["results"] =
        static_cast<double>(total_results) / static_cast<double>(runs);
    // Keyword answers are flat matches: zero surrounding relations.
    state.counters["relations"] = 1;
  }
}

BENCHMARK(BM_PrecisAnswer)->ArgName("c_R")->Arg(3)->Arg(10)->Arg(50);
BENCHMARK(BM_KeywordSearch)->ArgName("top_k")->Arg(3)->Arg(10)->Arg(50);

}  // namespace
}  // namespace precis

BENCHMARK_MAIN();
