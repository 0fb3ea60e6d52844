#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "storage/database.h"
#include "storage/relation.h"
#include "storage/schema.h"
#include "storage/value.h"

namespace precis {
namespace {

RelationSchema MovieSchema() {
  RelationSchema s("MOVIE", {{"mid", DataType::kInt64},
                             {"title", DataType::kString},
                             {"year", DataType::kInt64}});
  EXPECT_TRUE(s.SetPrimaryKey("mid").ok());
  return s;
}

// --- Value ---

TEST(ValueTest, NullByDefault) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.ToString(), "NULL");
}

TEST(ValueTest, TypedConstruction) {
  EXPECT_TRUE(Value(int64_t{4}).is_int64());
  EXPECT_TRUE(Value(2.5).is_double());
  EXPECT_TRUE(Value("abc").is_string());
  EXPECT_EQ(Value(int64_t{4}).AsInt64(), 4);
  EXPECT_DOUBLE_EQ(Value(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value("abc").AsString(), "abc");
}

TEST(ValueTest, EqualityIsTypeAware) {
  EXPECT_EQ(Value(int64_t{1}), Value(int64_t{1}));
  EXPECT_NE(Value(int64_t{1}), Value(1.0));
  EXPECT_NE(Value(int64_t{1}), Value("1"));
  EXPECT_EQ(Value(), Value::Null());
}

TEST(ValueTest, OrderingNullFirst) {
  EXPECT_LT(Value(), Value(int64_t{0}));
  EXPECT_LT(Value(int64_t{1}), Value(int64_t{2}));
  EXPECT_LT(Value("a"), Value("b"));
}

TEST(ValueTest, HashDistinguishesTypes) {
  EXPECT_NE(Value(int64_t{0}).Hash(), Value("").Hash());
  EXPECT_EQ(Value("x").Hash(), Value("x").Hash());
}

TEST(ValueTest, TypeMatchesNullIsWildcard) {
  EXPECT_TRUE(Value().TypeMatches(DataType::kInt64));
  EXPECT_TRUE(Value().TypeMatches(DataType::kString));
  EXPECT_TRUE(Value(int64_t{1}).TypeMatches(DataType::kInt64));
  EXPECT_FALSE(Value(int64_t{1}).TypeMatches(DataType::kString));
  EXPECT_FALSE(Value("a").TypeMatches(DataType::kDouble));
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value(int64_t{2005}).ToString(), "2005");
  EXPECT_EQ(Value("Match Point").ToString(), "Match Point");
}

// --- RelationSchema ---

TEST(SchemaTest, AttributeIndexLookup) {
  RelationSchema s = MovieSchema();
  EXPECT_EQ(*s.AttributeIndex("title"), 1u);
  EXPECT_TRUE(s.AttributeIndex("nope").status().IsNotFound());
  EXPECT_TRUE(s.HasAttribute("year"));
  EXPECT_FALSE(s.HasAttribute("director"));
}

TEST(SchemaTest, PrimaryKeySetAndRender) {
  RelationSchema s = MovieSchema();
  ASSERT_TRUE(s.primary_key().has_value());
  EXPECT_EQ(*s.primary_key(), 0u);
  EXPECT_EQ(s.ToString(), "MOVIE(mid*, title, year)");
}

TEST(SchemaTest, SetPrimaryKeyUnknownAttributeFails) {
  RelationSchema s = MovieSchema();
  EXPECT_TRUE(s.SetPrimaryKey("nope").IsNotFound());
}

TEST(SchemaTest, ForeignKeyToString) {
  ForeignKey fk{"MOVIE", "did", "DIRECTOR", "did"};
  EXPECT_EQ(fk.ToString(), "MOVIE.did -> DIRECTOR.did");
}

// --- Relation ---

TEST(RelationTest, InsertAndGet) {
  Relation r(MovieSchema());
  auto tid = r.Insert({int64_t{1}, "Match Point", int64_t{2005}});
  ASSERT_TRUE(tid.ok());
  EXPECT_EQ(*tid, 0u);
  auto t = r.Get(0);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)[1].AsString(), "Match Point");
  EXPECT_EQ(r.num_tuples(), 1u);
}

TEST(RelationTest, TidsAreSequential) {
  Relation r(MovieSchema());
  EXPECT_EQ(*r.Insert({int64_t{1}, "A", int64_t{2000}}), 0u);
  EXPECT_EQ(*r.Insert({int64_t{2}, "B", int64_t{2001}}), 1u);
  EXPECT_EQ(*r.Insert({int64_t{3}, "C", int64_t{2002}}), 2u);
}

TEST(RelationTest, ArityMismatchRejected) {
  Relation r(MovieSchema());
  EXPECT_TRUE(r.Insert({int64_t{1}, "A"}).status().IsInvalidArgument());
}

TEST(RelationTest, TypeMismatchRejected) {
  Relation r(MovieSchema());
  EXPECT_TRUE(
      r.Insert({"oops", "A", int64_t{2000}}).status().IsInvalidArgument());
}

TEST(RelationTest, NullsAllowedInNonKeyAttributes) {
  Relation r(MovieSchema());
  EXPECT_TRUE(r.Insert({int64_t{1}, Value::Null(), int64_t{2000}}).ok());
}

TEST(RelationTest, PrimaryKeyDuplicateRejectedWithoutIndex) {
  Relation r(MovieSchema());
  ASSERT_TRUE(r.Insert({int64_t{1}, "A", int64_t{2000}}).ok());
  EXPECT_TRUE(r.Insert({int64_t{1}, "B", int64_t{2001}})
                  .status()
                  .IsConstraintViolation());
}

TEST(RelationTest, PrimaryKeyDuplicateRejectedWithIndex) {
  Relation r(MovieSchema());
  ASSERT_TRUE(r.CreateIndex("mid").ok());
  ASSERT_TRUE(r.Insert({int64_t{1}, "A", int64_t{2000}}).ok());
  EXPECT_TRUE(r.Insert({int64_t{1}, "B", int64_t{2001}})
                  .status()
                  .IsConstraintViolation());
}

TEST(RelationTest, NullPrimaryKeyRejected) {
  Relation r(MovieSchema());
  EXPECT_TRUE(r.Insert({Value::Null(), "A", int64_t{2000}})
                  .status()
                  .IsConstraintViolation());
}

TEST(RelationTest, GetOutOfRange) {
  Relation r(MovieSchema());
  EXPECT_TRUE(r.Get(0).status().IsOutOfRange());
}

TEST(RelationTest, LookupEqualsUsesIndexWhenPresent) {
  AccessStats stats;
  Relation r(MovieSchema(), &stats);
  ASSERT_TRUE(r.Insert({int64_t{1}, "A", int64_t{2000}}).ok());
  ASSERT_TRUE(r.Insert({int64_t{2}, "B", int64_t{2000}}).ok());
  ASSERT_TRUE(r.Insert({int64_t{3}, "C", int64_t{2001}}).ok());
  ASSERT_TRUE(r.CreateIndex("year").ok());
  auto tids = r.LookupEquals("year", int64_t{2000});
  ASSERT_TRUE(tids.ok());
  EXPECT_EQ(*tids, (std::vector<Tid>{0, 1}));
  EXPECT_EQ(stats.index_probes, 1u);
  EXPECT_EQ(stats.sequential_scans, 0u);
}

TEST(RelationTest, LookupEqualsFallsBackToScan) {
  AccessStats stats;
  Relation r(MovieSchema(), &stats);
  ASSERT_TRUE(r.Insert({int64_t{1}, "A", int64_t{2000}}).ok());
  auto tids = r.LookupEquals("year", int64_t{2000});
  ASSERT_TRUE(tids.ok());
  EXPECT_EQ(tids->size(), 1u);
  EXPECT_EQ(stats.index_probes, 0u);
  EXPECT_EQ(stats.sequential_scans, 1u);
}

TEST(RelationTest, LookupEqualsMissingValueEmpty) {
  Relation r(MovieSchema());
  ASSERT_TRUE(r.CreateIndex("year").ok());
  ASSERT_TRUE(r.Insert({int64_t{1}, "A", int64_t{2000}}).ok());
  auto tids = r.LookupEquals("year", int64_t{1999});
  ASSERT_TRUE(tids.ok());
  EXPECT_TRUE(tids->empty());
}

TEST(RelationTest, IndexCreatedAfterInsertsCoversExistingTuples) {
  Relation r(MovieSchema());
  ASSERT_TRUE(r.Insert({int64_t{1}, "A", int64_t{2000}}).ok());
  ASSERT_TRUE(r.Insert({int64_t{2}, "B", int64_t{2000}}).ok());
  ASSERT_TRUE(r.CreateIndex("year").ok());
  EXPECT_EQ(r.LookupEquals("year", int64_t{2000})->size(), 2u);
  // ... and new inserts keep it maintained.
  ASSERT_TRUE(r.Insert({int64_t{3}, "C", int64_t{2000}}).ok());
  EXPECT_EQ(r.LookupEquals("year", int64_t{2000})->size(), 3u);
}

TEST(RelationTest, HasIndex) {
  Relation r(MovieSchema());
  EXPECT_FALSE(r.HasIndex("year"));
  ASSERT_TRUE(r.CreateIndex("year").ok());
  EXPECT_TRUE(r.HasIndex("year"));
  EXPECT_FALSE(r.HasIndex("nonexistent"));
}

TEST(RelationTest, CreateIndexOnUnknownAttributeFails) {
  Relation r(MovieSchema());
  EXPECT_TRUE(r.CreateIndex("nope").IsNotFound());
}

TEST(RelationTest, DistinctValues) {
  Relation r(MovieSchema());
  ASSERT_TRUE(r.Insert({int64_t{1}, "A", int64_t{2000}}).ok());
  ASSERT_TRUE(r.Insert({int64_t{2}, "B", int64_t{2000}}).ok());
  ASSERT_TRUE(r.Insert({int64_t{3}, "C", int64_t{2001}}).ok());
  auto vals = r.DistinctValues("year");
  ASSERT_TRUE(vals.ok());
  EXPECT_EQ(vals->size(), 2u);
  EXPECT_EQ((*vals)[0], Value(int64_t{2000}));
}

TEST(RelationTest, AllTids) {
  Relation r(MovieSchema());
  ASSERT_TRUE(r.Insert({int64_t{1}, "A", int64_t{2000}}).ok());
  ASSERT_TRUE(r.Insert({int64_t{2}, "B", int64_t{2001}}).ok());
  EXPECT_EQ(r.AllTids(), (std::vector<Tid>{0, 1}));
}

TEST(RelationTest, GetCountsTupleFetch) {
  AccessStats stats;
  Relation r(MovieSchema(), &stats);
  ASSERT_TRUE(r.Insert({int64_t{1}, "A", int64_t{2000}}).ok());
  ASSERT_TRUE(r.Get(0).ok());
  ASSERT_TRUE(r.Get(0).ok());
  EXPECT_EQ(stats.tuple_fetches, 2u);
}

// --- Database ---

Database MakeMoviesDb() {
  Database db("test");
  RelationSchema director("DIRECTOR", {{"did", DataType::kInt64},
                                       {"dname", DataType::kString}});
  EXPECT_TRUE(director.SetPrimaryKey("did").ok());
  EXPECT_TRUE(db.CreateRelation(std::move(director)).ok());
  EXPECT_TRUE(db.CreateRelation(MovieSchema()).ok());
  return db;
}

TEST(DatabaseTest, CreateAndGetRelation) {
  Database db = MakeMoviesDb();
  EXPECT_TRUE(db.HasRelation("MOVIE"));
  EXPECT_FALSE(db.HasRelation("GENRE"));
  EXPECT_TRUE(db.GetRelation("MOVIE").ok());
  EXPECT_TRUE(db.GetRelation("GENRE").status().IsNotFound());
  EXPECT_EQ(db.num_relations(), 2u);
}

TEST(DatabaseTest, DuplicateRelationRejected) {
  Database db = MakeMoviesDb();
  EXPECT_TRUE(db.CreateRelation(MovieSchema()).IsAlreadyExists());
}

TEST(DatabaseTest, EmptyRelationNameRejected) {
  Database db;
  EXPECT_TRUE(db.CreateRelation(RelationSchema("", {}))
                  .IsInvalidArgument());
}

TEST(DatabaseTest, DuplicateAttributeNamesRejected) {
  Database db;
  RelationSchema bad("R", {{"a", DataType::kInt64}, {"a", DataType::kInt64}});
  EXPECT_TRUE(db.CreateRelation(std::move(bad)).IsInvalidArgument());
}

TEST(DatabaseTest, RelationNamesSorted) {
  Database db = MakeMoviesDb();
  EXPECT_EQ(db.RelationNames(),
            (std::vector<std::string>{"DIRECTOR", "MOVIE"}));
}

TEST(DatabaseTest, TotalTuples) {
  Database db = MakeMoviesDb();
  auto movie = db.GetRelation("MOVIE");
  ASSERT_TRUE((*movie)->Insert({int64_t{1}, "A", int64_t{2000}}).ok());
  ASSERT_TRUE((*movie)->Insert({int64_t{2}, "B", int64_t{2001}}).ok());
  EXPECT_EQ(db.TotalTuples(), 2u);
}

TEST(DatabaseTest, ForeignKeyRequiresExistingEndpoints) {
  Database db = MakeMoviesDb();
  EXPECT_TRUE(
      db.AddForeignKey({"MOVIE", "mid", "GENRE", "mid"}).IsNotFound());
  EXPECT_TRUE(
      db.AddForeignKey({"MOVIE", "nope", "DIRECTOR", "did"}).IsNotFound());
}

TEST(DatabaseTest, ForeignKeyTypeMismatchRejected) {
  Database db = MakeMoviesDb();
  EXPECT_TRUE(db.AddForeignKey({"MOVIE", "title", "DIRECTOR", "did"})
                  .IsInvalidArgument());
}

TEST(DatabaseTest, ValidateForeignKeysDetectsDangling) {
  Database db = MakeMoviesDb();
  ASSERT_TRUE(db.AddForeignKey({"MOVIE", "mid", "DIRECTOR", "did"}).ok());
  auto director = db.GetRelation("DIRECTOR");
  auto movie = db.GetRelation("MOVIE");
  ASSERT_TRUE((*director)->Insert({int64_t{1}, "Allen"}).ok());
  ASSERT_TRUE((*movie)->Insert({int64_t{1}, "A", int64_t{2000}}).ok());
  EXPECT_TRUE(db.ValidateForeignKeys().ok());
  ASSERT_TRUE((*movie)->Insert({int64_t{9}, "B", int64_t{2001}}).ok());
  EXPECT_TRUE(db.ValidateForeignKeys().IsConstraintViolation());
}

TEST(DatabaseTest, ValidateForeignKeysIgnoresNullChildren) {
  Database db = MakeMoviesDb();
  // MOVIE.year -> DIRECTOR.did is nonsense semantically but types match.
  ASSERT_TRUE(db.AddForeignKey({"MOVIE", "year", "DIRECTOR", "did"}).ok());
  auto movie = db.GetRelation("MOVIE");
  ASSERT_TRUE((*movie)->Insert({int64_t{1}, "A", Value::Null()}).ok());
  EXPECT_TRUE(db.ValidateForeignKeys().ok());
}

TEST(DatabaseTest, CheckForeignKeyNamesTheDanglingValue) {
  Database db = MakeMoviesDb();
  auto director = db.GetRelation("DIRECTOR");
  auto movie = db.GetRelation("MOVIE");
  ASSERT_TRUE((*director)->Insert({int64_t{1}, "Allen"}).ok());
  ASSERT_TRUE((*movie)->Insert({int64_t{1}, "A", int64_t{2000}}).ok());
  ASSERT_TRUE((*movie)->Insert({int64_t{9}, "B", int64_t{2001}}).ok());
  // The check runs whether or not the key is declared.
  const ForeignKey fk{"MOVIE", "mid", "DIRECTOR", "did"};
  Status s = db.CheckForeignKey(fk);
  EXPECT_TRUE(s.IsConstraintViolation());
  EXPECT_NE(s.message().find("value 9 has no parent"), std::string::npos)
      << s.ToString();
  EXPECT_TRUE(db.ValidateForeignKeys().ok());  // nothing declared yet
  EXPECT_TRUE(db.CheckForeignKey({"MOVIE", "mid", "NOPE", "did"}).IsNotFound());
  EXPECT_TRUE(db.CheckForeignKey({"MOVIE", "title", "DIRECTOR", "did"})
                  .IsInvalidArgument());
}

// READING.sensor -> SENSOR.key, both DOUBLE: the edges of Value equality.
Database MakeDoubleKeyDb() {
  Database db("doubles");
  EXPECT_TRUE(
      db.CreateRelation(RelationSchema("SENSOR", {{"key", DataType::kDouble}}))
          .ok());
  EXPECT_TRUE(db.CreateRelation(
                    RelationSchema("READING", {{"sensor", DataType::kDouble}}))
                  .ok());
  EXPECT_TRUE(db.AddForeignKey({"READING", "sensor", "SENSOR", "key"}).ok());
  return db;
}

TEST(DatabaseTest, ForeignKeyNegativeZeroChildMatchesPositiveZeroParent) {
  Database db = MakeDoubleKeyDb();
  ASSERT_TRUE((*db.GetRelation("SENSOR"))->Insert({Value(0.0)}).ok());
  ASSERT_TRUE((*db.GetRelation("READING"))->Insert({Value(-0.0)}).ok());
  EXPECT_TRUE(db.ValidateForeignKeys().ok());
}

TEST(DatabaseTest, ForeignKeyNaNChildDangles) {
  Database db = MakeDoubleKeyDb();
  const Value nan(std::numeric_limits<double>::quiet_NaN());
  // Even a NaN parent: NaN equals nothing, itself included.
  ASSERT_TRUE((*db.GetRelation("SENSOR"))->Insert({nan}).ok());
  ASSERT_TRUE((*db.GetRelation("SENSOR"))->Insert({Value(1.0)}).ok());
  ASSERT_TRUE((*db.GetRelation("READING"))->Insert({Value(1.0)}).ok());
  EXPECT_TRUE(db.ValidateForeignKeys().ok());
  ASSERT_TRUE((*db.GetRelation("READING"))->Insert({nan}).ok());
  EXPECT_TRUE(db.ValidateForeignKeys().IsConstraintViolation());
}

TEST(DatabaseTest, StatsAggregateAcrossRelations) {
  Database db = MakeMoviesDb();
  auto movie = db.GetRelation("MOVIE");
  auto director = db.GetRelation("DIRECTOR");
  ASSERT_TRUE((*movie)->Insert({int64_t{1}, "A", int64_t{2000}}).ok());
  ASSERT_TRUE((*director)->Insert({int64_t{1}, "Allen"}).ok());
  ASSERT_TRUE((*movie)->Get(0).ok());
  ASSERT_TRUE((*director)->Get(0).ok());
  EXPECT_EQ(db.stats().tuple_fetches, 2u);
  db.ResetStats();
  EXPECT_EQ(db.stats().tuple_fetches, 0u);
}

TEST(DatabaseTest, StatsSurviveMove) {
  Database db = MakeMoviesDb();
  auto movie = db.GetRelation("MOVIE");
  ASSERT_TRUE((*movie)->Insert({int64_t{1}, "A", int64_t{2000}}).ok());
  Database moved = std::move(db);
  auto movie2 = moved.GetRelation("MOVIE");
  ASSERT_TRUE((*movie2)->Get(0).ok());
  EXPECT_EQ(moved.stats().tuple_fetches, 1u);
}

TEST(DatabaseTest, DescribeSchemaMentionsRelationsAndFks) {
  Database db = MakeMoviesDb();
  ASSERT_TRUE(db.AddForeignKey({"MOVIE", "mid", "DIRECTOR", "did"}).ok());
  std::string desc = db.DescribeSchema();
  EXPECT_NE(desc.find("MOVIE(mid*, title, year)"), std::string::npos);
  EXPECT_NE(desc.find("FK MOVIE.mid -> DIRECTOR.did"), std::string::npos);
}

}  // namespace
}  // namespace precis
