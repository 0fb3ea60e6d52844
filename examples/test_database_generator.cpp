// The paper's second motivating use case (§1): carving a small, consistent
// database out of a large one.
//
// "Given large databases, enterprises often need smaller subsets that
//  conform to the original schema and satisfy all of its constraints in
//  order to perform realistic tests of new applications before deploying
//  them to production. ... Generating such databases with current
//  relational technology, one relation at a time and manually deriving the
//  appropriate constraints, is not acceptable."
//
// A précis query does it in one shot: seed with a handful of tuples, cover
// the whole schema with a permissive degree constraint, cap the size with a
// cardinality constraint, and the generator emits a sub-database whose
// declared foreign keys are guaranteed to hold.

#include <cstdio>
#include <iostream>

#include "datagen/movies_dataset.h"
#include "datagen/workload.h"
#include "precis/database_generator.h"
#include "precis/schema_generator.h"
#include "storage/serialization.h"

int main() {
  using namespace precis;

  // The "production" database: sizeable.
  MoviesConfig config;
  config.num_movies = 10000;
  auto dataset = MoviesDataset::Create(config);
  if (!dataset.ok()) {
    std::cerr << dataset.status() << "\n";
    return 1;
  }
  std::printf("Production database:\n%s\n",
              dataset->db().DescribeSchema().c_str());

  // Seed with a few random movies; cover every relation reachable on the
  // schema graph (threshold 0 admits all edges).
  ResultSchemaGenerator schema_gen(&dataset->graph());
  auto schema =
      schema_gen.Generate({std::string("MOVIE")}, *MinPathWeight(0.0));
  if (!schema.ok()) {
    std::cerr << schema.status() << "\n";
    return 1;
  }

  Rng rng(7);
  auto seed_tids = RandomSeedTids(dataset->db(), "MOVIE", &rng, 25);
  if (!seed_tids.ok()) {
    std::cerr << seed_tids.status() << "\n";
    return 1;
  }
  SeedTids seeds = {
      {*dataset->graph().RelationId("MOVIE"), *seed_tids}};

  ResultDatabaseGenerator db_gen(&dataset->db());
  auto view = db_gen.Generate(*schema, seeds, *MaxTuplesPerRelation(200));
  if (!view.ok()) {
    std::cerr << view.status() << "\n";
    return 1;
  }
  // The answer is a view over the source; a test database to ship is a
  // copy of it.
  auto test_db = view->Materialize();
  if (!test_db.ok()) {
    std::cerr << test_db.status() << "\n";
    return 1;
  }

  std::printf("Derived test database (25 seed movies, <= 200 tuples per "
              "relation):\n%s\n",
              test_db->DescribeSchema().c_str());
  const DbGenReport& report = db_gen.last_report();
  std::printf("executed %zu joins; %zu tuples total\n",
              report.executed_edges.size(), report.total_tuples);
  if (!report.dropped_foreign_keys.empty()) {
    std::printf("foreign keys dropped by the cardinality cut:\n");
    for (const std::string& fk : report.dropped_foreign_keys) {
      std::printf("  %s\n", fk.c_str());
    }
  }

  // The headline guarantee: declared constraints actually hold.
  Status integrity = test_db->ValidateForeignKeys();
  std::printf("\nreferential integrity of the test database: %s\n",
              integrity.ToString().c_str());
  std::printf("shrink factor: %.1fx (%zu -> %zu tuples)\n",
              static_cast<double>(dataset->db().TotalTuples()) /
                  static_cast<double>(test_db->TotalTuples()),
              dataset->db().TotalTuples(), test_db->TotalTuples());

  // Ship it: dump the derived database to disk and verify it loads back.
  const std::string path = "/tmp/precis_test_database.pdb";
  if (auto s = SaveDatabaseToFile(*test_db, path); !s.ok()) {
    std::cerr << s << "\n";
    return 1;
  }
  auto reloaded = LoadDatabaseFromFile(path);
  if (!reloaded.ok()) {
    std::cerr << reloaded.status() << "\n";
    return 1;
  }
  std::printf("saved to %s and reloaded: %zu tuples, integrity %s\n",
              path.c_str(), reloaded->TotalTuples(),
              reloaded->ValidateForeignKeys().ToString().c_str());
  return integrity.ok() ? 0 : 1;
}
