// §2 side by side: what a DISCOVER/DBXplorer-style keyword search returns
// vs what a précis query returns, for the same tokens.
//
// "The answer provided by existing approaches for 'Woody Allen' would be in
//  the form of relation-attribute pair ... On the contrary, the answer to a
//  précis query might also contain information found in other parts of the
//  database, e.g. movies directed by Woody Allen."

#include <cstdio>
#include <iostream>

#include "baseline/keyword_search.h"
#include "datagen/movies_dataset.h"
#include "datagen/movies_templates.h"
#include "precis/engine.h"
#include "translator/translator.h"

int main() {
  using namespace precis;

  MoviesConfig config;
  config.num_movies = 500;
  auto dataset = MoviesDataset::Create(config);
  if (!dataset.ok()) {
    std::cerr << dataset.status() << "\n";
    return 1;
  }

  std::printf("================ keyword search (DISCOVER-style) =========\n");
  auto baseline =
      KeywordSearchBaseline::Create(&dataset->db(), &dataset->graph());
  if (!baseline.ok()) {
    std::cerr << baseline.status() << "\n";
    return 1;
  }
  KeywordSearchOptions options;
  options.top_k = 5;
  auto flat = baseline->Search({"Woody Allen"}, options);
  if (!flat.ok()) {
    std::cerr << flat.status() << "\n";
    return 1;
  }
  for (const JoinedTupleTree& tree : *flat) {
    std::printf("  [%zu joins] %s\n", tree.num_joins,
                tree.ToString().c_str());
  }
  std::printf("(flat matches; nothing about the movies around them)\n\n");

  std::printf("================ precis query ============================\n");
  auto engine = PrecisEngine::Create(&dataset->db(), &dataset->graph());
  if (!engine.ok()) {
    std::cerr << engine.status() << "\n";
    return 1;
  }
  auto answer = engine->Answer(PrecisQuery{{"Woody Allen"}},
                               *MinPathWeight(0.9), *MaxTuplesPerRelation(3));
  if (!answer.ok()) {
    std::cerr << answer.status() << "\n";
    return 1;
  }
  std::printf("a whole sub-database:\n%s\n",
              answer->database.Materialize()->DescribeSchema().c_str());
  auto catalog = BuildMoviesTemplateCatalog();
  Translator translator(&*catalog);
  auto text = translator.Render(*answer);
  if (text.ok()) std::printf("and its narrative:\n%s\n", text->c_str());

  // Two-keyword case: the baseline shines at connecting two known values;
  // précis treats both as seeds of one synthesis.
  std::printf("\n========== two keywords: {Woody Allen, Match Point} ======\n");
  auto flat2 = baseline->Search({"Woody Allen", "Match Point"}, options);
  if (flat2.ok()) {
    for (const JoinedTupleTree& tree : *flat2) {
      std::printf("  [%zu joins] %s\n", tree.num_joins,
                  tree.ToString().c_str());
    }
  }
  return 0;
}
