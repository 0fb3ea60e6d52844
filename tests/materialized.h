// Test helpers: a result database (a view over its source) copied into a
// Database, for assertions written against the Database API.

#ifndef PRECIS_TESTS_MATERIALIZED_H_
#define PRECIS_TESTS_MATERIALIZED_H_

#include <gtest/gtest.h>

#include "common/result.h"
#include "precis/result_database.h"
#include "storage/database.h"

namespace precis {

/// The generated result database copied into a Database, or its error.
inline Result<Database> Materialized(const Result<ResultDatabase>& generated) {
  if (!generated.ok()) return generated.status();
  return generated->Materialize();
}

/// `view` copied into a Database; a failed copy fails the test.
inline Database Materialized(const ResultDatabase& view) {
  auto db = view.Materialize();
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return db.ok() ? std::move(*db) : Database();
}

}  // namespace precis

#endif  // PRECIS_TESTS_MATERIALIZED_H_
