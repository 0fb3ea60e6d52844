// Quickstart: the paper's running example, end to end.
//
// Builds the movies database (Fig. 1), asks the précis query
// Q = {"Woody Allen"} with the paper's constraints (projections of weight
// >= 0.9; up to three tuples per relation), and prints every stage: token
// occurrences, the result schema D', the result database D', and the
// natural-language précis.

#include <cstdio>
#include <iostream>

#include "datagen/movies_dataset.h"
#include "datagen/movies_templates.h"
#include "precis/engine.h"
#include "translator/translator.h"

int main() {
  using namespace precis;

  // 1. The source database and its annotated schema graph.
  MoviesConfig config;
  config.num_movies = 1000;
  auto dataset = MoviesDataset::Create(config);
  if (!dataset.ok()) {
    std::cerr << dataset.status() << "\n";
    return 1;
  }
  std::printf("Source database: %zu relations, %zu tuples\n\n",
              dataset->db().num_relations(), dataset->db().TotalTuples());

  // 2. The précis engine (inverted index + schema/database generators).
  auto engine = PrecisEngine::Create(&dataset->db(), &dataset->graph());
  if (!engine.ok()) {
    std::cerr << engine.status() << "\n";
    return 1;
  }

  // 3. Ask. Degree: only projections with weight >= 0.9. Cardinality: at
  //    most three tuples per relation (the paper's §5 running constraints).
  PrecisQuery query{{"Woody Allen"}};
  auto degree = MinPathWeight(0.9);
  auto cardinality = MaxTuplesPerRelation(3);
  auto answer = engine->Answer(query, *degree, *cardinality);
  if (!answer.ok()) {
    std::cerr << answer.status() << "\n";
    return 1;
  }

  std::printf("Token occurrences:\n");
  for (const TokenMatch& match : answer->matches) {
    for (const TokenOccurrence& occ : match.occurrences()) {
      std::printf("  \"%s\" found in %s.%s (%zu tuples)\n",
                  match.token.c_str(), occ.relation.c_str(),
                  occ.attribute.c_str(), occ.tids.size());
    }
  }

  std::printf("\nResult schema D' (Fig. 4):\n%s\n",
              answer->schema.ToString().c_str());
  std::printf("Result database D':\n%s\n",
              answer->database.Materialize()->DescribeSchema().c_str());

  // 4. Translate into the paper's narrative form (§5.3).
  auto catalog = BuildMoviesTemplateCatalog();
  if (!catalog.ok()) {
    std::cerr << catalog.status() << "\n";
    return 1;
  }
  Translator translator(&*catalog);
  auto text = translator.Render(*answer);
  if (!text.ok()) {
    std::cerr << text.status() << "\n";
    return 1;
  }
  std::printf("Précis:\n%s\n", text->c_str());
  return 0;
}
