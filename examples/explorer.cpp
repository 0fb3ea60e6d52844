// Interactive exploration from the command line (paper §3.1):
//
// "Weights may be set by the user at query time using an appropriate user
//  interface. This option enables interactive exploration of the contents
//  of a database. ... The user may explore different regions of the
//  database starting, for example, from those containing objects closely
//  related to the topic of a query and progressively expanding to parts of
//  the database containing objects more loosely related to it."
//
// Usage:
//   explorer [options] TOKEN [TOKEN...]
// Options:
//   --movies N            dataset size (default 500)
//   --min-weight W        degree constraint: path weight >= W (default 0.9)
//   --max-attrs R         degree constraint: top-R projections instead
//   --tuples-per-rel C    cardinality constraint (default 5)
//   --strategy S          auto | naiveq | roundrobin
//   --join FROM TO W      override one join-edge weight at query time
//   --proj REL ATTR W     override one projection-edge weight
//   --rank-by-year        weight MOVIE tuples by recency (ranked selection)
//   --trace-sql           print the statements the generator submits
//   --dot FILE            write the result schema as Graphviz DOT to FILE
//
// Example:
//   explorer --min-weight 0.6 --join MOVIE GENRE 0.2 "Woody Allen"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include <fstream>

#include "datagen/movies_dataset.h"
#include "datagen/movies_templates.h"
#include "precis/dot_export.h"
#include "precis/engine.h"
#include "precis/tuple_weights.h"
#include "translator/translator.h"

namespace {

using namespace precis;

int Fail(const std::string& message) {
  std::cerr << "explorer: " << message << "\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  size_t movies = 500;
  double min_weight = 0.9;
  long max_attrs = -1;
  size_t tuples_per_rel = 5;
  SubsetStrategy strategy = SubsetStrategy::kAuto;
  bool rank_by_year = false;
  bool trace_sql = false;
  std::string dot_path;
  struct JoinOverride {
    std::string from, to;
    double w;
  };
  struct ProjOverride {
    std::string rel, attr;
    double w;
  };
  std::vector<JoinOverride> join_overrides;
  std::vector<ProjOverride> proj_overrides;
  std::vector<std::string> tokens;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto need = [&](int n) { return i + n < argc; };
    if (arg == "--movies" && need(1)) {
      movies = static_cast<size_t>(std::atol(argv[++i]));
    } else if (arg == "--min-weight" && need(1)) {
      min_weight = std::atof(argv[++i]);
    } else if (arg == "--max-attrs" && need(1)) {
      max_attrs = std::atol(argv[++i]);
    } else if (arg == "--tuples-per-rel" && need(1)) {
      tuples_per_rel = static_cast<size_t>(std::atol(argv[++i]));
    } else if (arg == "--strategy" && need(1)) {
      std::string s = argv[++i];
      if (s == "naiveq") {
        strategy = SubsetStrategy::kNaiveQ;
      } else if (s == "roundrobin") {
        strategy = SubsetStrategy::kRoundRobin;
      } else if (s == "auto") {
        strategy = SubsetStrategy::kAuto;
      } else {
        return Fail("unknown strategy '" + s + "'");
      }
    } else if (arg == "--join" && need(3)) {
      JoinOverride o;
      o.from = argv[++i];
      o.to = argv[++i];
      o.w = std::atof(argv[++i]);
      join_overrides.push_back(o);
    } else if (arg == "--proj" && need(3)) {
      ProjOverride o;
      o.rel = argv[++i];
      o.attr = argv[++i];
      o.w = std::atof(argv[++i]);
      proj_overrides.push_back(o);
    } else if (arg == "--rank-by-year") {
      rank_by_year = true;
    } else if (arg == "--trace-sql") {
      trace_sql = true;
    } else if (arg == "--dot" && need(1)) {
      dot_path = argv[++i];
    } else if (arg.rfind("--", 0) == 0) {
      return Fail("unknown or incomplete option '" + arg + "'");
    } else {
      tokens.push_back(arg);
    }
  }
  if (tokens.empty()) {
    return Fail("no query tokens; try: explorer \"Woody Allen\"");
  }

  MoviesConfig config;
  config.num_movies = movies;
  auto dataset = MoviesDataset::Create(config);
  if (!dataset.ok()) return Fail(dataset.status().ToString());

  // Query-time weight overrides.
  for (const auto& o : join_overrides) {
    if (auto s = dataset->graph().SetJoinWeight(o.from, o.to, o.w); !s.ok()) {
      return Fail(s.ToString());
    }
  }
  for (const auto& o : proj_overrides) {
    if (auto s = dataset->graph().SetProjectionWeight(o.rel, o.attr, o.w);
        !s.ok()) {
      return Fail(s.ToString());
    }
  }

  auto engine = PrecisEngine::Create(&dataset->db(), &dataset->graph());
  if (!engine.ok()) return Fail(engine.status().ToString());

  std::unique_ptr<DegreeConstraint> degree =
      max_attrs >= 0 ? MaxProjections(static_cast<size_t>(max_attrs))
                     : MinPathWeight(min_weight);
  auto cardinality = MaxTuplesPerRelation(tuples_per_rel);

  TupleWeightStore weights;
  DbGenOptions options;
  options.strategy = strategy;
  options.trace_sql = trace_sql;
  if (rank_by_year) {
    if (auto s = WeightsFromNumericAttribute(dataset->db(), "MOVIE", "year",
                                             &weights);
        !s.ok()) {
      return Fail(s.ToString());
    }
    options.tuple_weights = &weights;
  }

  PrecisQuery query{tokens};
  auto answer = engine->Answer(query, *degree, *cardinality, options);
  if (!answer.ok()) return Fail(answer.status().ToString());

  std::printf("degree: %s | cardinality: %s | strategy: %s\n\n",
              degree->ToString().c_str(), cardinality->ToString().c_str(),
              SubsetStrategyToString(strategy));
  if (answer->empty()) {
    std::printf("no occurrences of the given tokens.\n");
    return 0;
  }
  std::printf("result schema:\n%s\n", answer->schema.ToString().c_str());
  if (!dot_path.empty()) {
    std::ofstream dot(dot_path, std::ios::trunc);
    if (dot.is_open()) {
      dot << ResultSchemaToDot(answer->schema);
      std::printf("(result schema graph written to %s)\n\n",
                  dot_path.c_str());
    }
  }
  std::printf("result database:\n%s\n",
              answer->database.Materialize()->DescribeSchema().c_str());
  if (trace_sql) {
    std::printf("submitted statements:\n");
    for (const std::string& sql : answer->report.sql_trace) {
      std::printf("  %s;\n", sql.c_str());
    }
    std::printf("\n");
  }

  auto catalog = BuildMoviesTemplateCatalog();
  if (catalog.ok()) {
    Translator translator(&*catalog);
    auto text = translator.Render(*answer);
    if (text.ok() && !text->empty()) {
      std::printf("précis:\n%s\n", text->c_str());
    }
  }
  return 0;
}
