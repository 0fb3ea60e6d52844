// Précis over a second domain: the bibliography database.
//
// The engine is schema-agnostic; this example runs the same pipeline as
// quickstart.cpp against the DBLP-like schema of
// datagen/bibliography_dataset.h — author, keyword, and venue queries, each
// rendered through the bibliography template catalog.

#include <cstdio>
#include <iostream>

#include "datagen/bibliography_dataset.h"
#include "precis/engine.h"
#include "translator/translator.h"

namespace {

using namespace precis;

void Ask(PrecisEngine* engine, const TemplateCatalog& catalog,
         const std::string& token, double threshold, size_t tuples) {
  auto answer = engine->Answer(PrecisQuery{{token}},
                               *MinPathWeight(threshold),
                               *MaxTuplesPerRelation(tuples));
  if (!answer.ok()) {
    std::cerr << answer.status() << "\n";
    return;
  }
  std::printf("Q = {\"%s\"}  (w >= %.2f, <= %zu tuples/relation)\n",
              token.c_str(), threshold, tuples);
  if (answer->empty()) {
    std::printf("  no occurrences.\n\n");
    return;
  }
  std::printf("%s\n",
              answer->database.Materialize()->DescribeSchema().c_str());
  Translator translator(&catalog);
  auto text = translator.Render(*answer);
  if (text.ok() && !text->empty()) std::printf("%s\n\n", text->c_str());
}

}  // namespace

int main() {
  BibliographyConfig config;
  config.num_papers = 400;
  auto dataset = BibliographyDataset::Create(config);
  if (!dataset.ok()) {
    std::cerr << dataset.status() << "\n";
    return 1;
  }
  std::printf("Bibliography database: %zu tuples\n\n",
              dataset->db().TotalTuples());

  auto engine = PrecisEngine::Create(&dataset->db(), &dataset->graph());
  if (!engine.ok()) {
    std::cerr << engine.status() << "\n";
    return 1;
  }
  auto catalog = BuildBibliographyTemplateCatalog();
  if (!catalog.ok()) {
    std::cerr << catalog.status() << "\n";
    return 1;
  }

  Ask(&*engine, *catalog, "Ada Codd", 0.8, 5);      // an author
  Ask(&*engine, *catalog, "btree", 0.9, 4);         // a keyword
  Ask(&*engine, *catalog, "SIGMOD", 0.7, 3);        // a venue
  return 0;
}
