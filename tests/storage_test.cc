#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <unordered_set>

#include "datagen/movies_dataset.h"
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

// SENSOR(key* DOUBLE, label): primary-key uniqueness under Value equality.
RelationSchema DoubleKeySchema() {
  RelationSchema s("SENSOR", {{"key", DataType::kDouble},
                              {"label", DataType::kString}});
  EXPECT_TRUE(s.SetPrimaryKey("key").ok());
  return s;
}

TEST(RelationTest, DoublePrimaryKeyNegativeZeroDuplicatesPositiveZero) {
  Relation r(DoubleKeySchema());
  ASSERT_TRUE(r.Insert({Value(0.0), "a"}).ok());
  Status dup = r.Insert({Value(-0.0), "b"}).status();
  EXPECT_TRUE(dup.IsConstraintViolation());
  EXPECT_NE(dup.message().find("duplicate primary key -0 in relation 'SENSOR'"),
            std::string::npos)
      << dup.ToString();
  EXPECT_EQ(r.num_tuples(), 1u);
}

TEST(RelationTest, DoublePrimaryKeyNaNKeysBothInsert) {
  Relation r(DoubleKeySchema());
  const Value nan(std::numeric_limits<double>::quiet_NaN());
  // NaN equals nothing, itself included: never a duplicate.
  ASSERT_TRUE(r.Insert({nan, "a"}).ok());
  ASSERT_TRUE(r.Insert({nan, "b"}).ok());
  EXPECT_EQ(r.num_tuples(), 2u);
  ASSERT_TRUE(r.Insert({Value(1.5), "c"}).ok());
  EXPECT_TRUE(r.Insert({Value(1.5), "d"}).status().IsConstraintViolation());
}

TEST(RelationTest, PrimaryKeyWithAllBitsSetIsAnOrdinaryKey) {
  // int64 -1 is the all-ones bit pattern the flat key set reserves for
  // empty slots; it must still be a key like any other.
  Relation r(MovieSchema());
  ASSERT_TRUE(r.Insert({int64_t{-1}, "A", int64_t{2000}}).ok());
  ASSERT_TRUE(r.Insert({int64_t{0}, "B", int64_t{2000}}).ok());
  EXPECT_TRUE(r.Insert({int64_t{-1}, "C", int64_t{2001}})
                  .status()
                  .IsConstraintViolation());
  EXPECT_EQ(r.num_tuples(), 2u);
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

// The same FK checked against a keyed parent (probed in its primary-key
// set) and against a keyless copy of it (a key set built from the column):
// the verdicts and the named dangling value must agree.
void ExpectKeyedAndKeylessParentsAgree(const Database& db,
                                       const std::string& child,
                                       const std::string& child_attr,
                                       const std::string& parent_attr,
                                       const std::string& dangling) {
  const Status keyed =
      db.CheckForeignKey({child, child_attr, "KEYED", parent_attr});
  const Status keyless =
      db.CheckForeignKey({child, child_attr, "KEYLESS", parent_attr});
  EXPECT_EQ(keyed.ok(), keyless.ok()) << keyed.ToString() << " vs "
                                      << keyless.ToString();
  if (dangling.empty()) {
    EXPECT_TRUE(keyed.ok()) << keyed.ToString();
    return;
  }
  for (const Status& s : {keyed, keyless}) {
    EXPECT_TRUE(s.IsConstraintViolation());
    EXPECT_NE(s.message().find("value " + dangling + " has no parent"),
              std::string::npos)
        << s.ToString();
  }
}

TEST(DatabaseTest, ForeignKeyOnParentKeyAndNonKeyAttributeAgree) {
  Database db("fk");
  RelationSchema keyed("KEYED", {{"did", DataType::kInt64},
                                 {"dname", DataType::kString}});
  ASSERT_TRUE(keyed.SetPrimaryKey("did").ok());
  ASSERT_TRUE(db.CreateRelation(std::move(keyed)).ok());
  ASSERT_TRUE(db.CreateRelation(RelationSchema(
                    "KEYLESS", {{"did", DataType::kInt64},
                                {"dname", DataType::kString}}))
                  .ok());
  ASSERT_TRUE(db.CreateRelation(MovieSchema()).ok());
  for (const char* parent : {"KEYED", "KEYLESS"}) {
    auto rel = db.GetRelation(parent);
    for (int64_t did : {int64_t{-1}, int64_t{1}, int64_t{2}}) {
      ASSERT_TRUE((*rel)->Insert({did, "d" + std::to_string(did)}).ok());
    }
  }
  auto movie = db.GetRelation("MOVIE");
  ASSERT_TRUE((*movie)->Insert({int64_t{1}, "A", Value::Null()}).ok());
  ASSERT_TRUE((*movie)->Insert({int64_t{-1}, "B", int64_t{2}}).ok());
  ExpectKeyedAndKeylessParentsAgree(db, "MOVIE", "mid", "did", "");
  ExpectKeyedAndKeylessParentsAgree(db, "MOVIE", "year", "did", "");
  ASSERT_TRUE((*movie)->Insert({int64_t{7}, "C", int64_t{2001}}).ok());
  ExpectKeyedAndKeylessParentsAgree(db, "MOVIE", "mid", "did", "7");
  ExpectKeyedAndKeylessParentsAgree(db, "MOVIE", "year", "did", "2001");
}

TEST(DatabaseTest, DoubleForeignKeyOnParentKeyAndNonKeyAttributeAgree) {
  Database db("fk_doubles");
  RelationSchema keyed("KEYED", {{"key", DataType::kDouble}});
  ASSERT_TRUE(keyed.SetPrimaryKey("key").ok());
  ASSERT_TRUE(db.CreateRelation(std::move(keyed)).ok());
  ASSERT_TRUE(
      db.CreateRelation(RelationSchema("KEYLESS", {{"key", DataType::kDouble}}))
          .ok());
  ASSERT_TRUE(db.CreateRelation(
                    RelationSchema("READING", {{"sensor", DataType::kDouble}}))
                  .ok());
  const Value nan(std::numeric_limits<double>::quiet_NaN());
  for (const char* parent : {"KEYED", "KEYLESS"}) {
    auto rel = db.GetRelation(parent);
    for (const Value& key : {Value(0.0), nan, Value(2.5)}) {
      ASSERT_TRUE((*rel)->Insert({key}).ok());
    }
  }
  auto reading = db.GetRelation("READING");
  ASSERT_TRUE((*reading)->Insert({Value(-0.0)}).ok());
  ASSERT_TRUE((*reading)->Insert({Value::Null()}).ok());
  ASSERT_TRUE((*reading)->Insert({Value(2.5)}).ok());
  ExpectKeyedAndKeylessParentsAgree(db, "READING", "sensor", "key", "");
  // A NaN child dangles even though a NaN parent exists.
  ASSERT_TRUE((*reading)->Insert({nan}).ok());
  ExpectKeyedAndKeylessParentsAgree(db, "READING", "sensor", "key", "nan");
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

// --- Key-table layouts at 6,000 films ---
//
// Every primary-key set and every join index must hold the smaller of its
// two layouts for its keys, both sized here from the column: a bitmap's
// 64-bit words over the keys' range against the hash table's 8-byte slots
// (a power of two, at least 16, load at most 1/2); a direct table's 8-byte
// entries over the range against the 16-byte slot table (load at most
// 0.7). The keys' range is read as signed 64-bit numbers. A key table that
// hashed everything would fail here, not only in a memory benchmark.

size_t PowerOfTwoSlots(size_t keys, size_t load_num, size_t load_den) {
  size_t slots = 16;
  while (keys * load_den > slots * load_num) slots *= 2;
  return slots;
}

TEST(DatabaseBytesTest, KeyTablesHoldTheSmallerLayoutAtSixThousandFilms) {
  MoviesConfig config;
  config.num_movies = 6000;
  auto ds = MoviesDataset::Create(config);
  ASSERT_TRUE(ds.ok());
  const Database& db = ds->db();
  StorageBytes sum;
  size_t bitmaps = 0;
  size_t direct = 0;
  size_t indexes = 0;
  for (const std::string& name : db.RelationNames()) {
    SCOPED_TRACE(name);
    const Relation& rel = **db.GetRelation(name);
    sum += rel.bytes();

    const Column& pk = rel.column(*rel.schema().primary_key());
    int64_t lo = std::numeric_limits<int64_t>::max();
    int64_t hi = std::numeric_limits<int64_t>::min();
    for (Tid t = 0; t < pk.size(); ++t) {
      lo = std::min(lo, static_cast<int64_t>(pk.raw_bits(t)));
      hi = std::max(hi, static_cast<int64_t>(pk.raw_bits(t)));
    }
    // A set of at most 8 keys keeps its first 16-slot table.
    ASSERT_GT(pk.size(), 8u);
    const size_t words = static_cast<size_t>((hi >> 6) - (lo >> 6) + 1);
    const size_t slots = PowerOfTwoSlots(pk.size(), 1, 2);
    const FlatKeySet& set = rel.primary_key_set();
    EXPECT_EQ(set.size(), pk.size());
    EXPECT_EQ(set.bitmap(), words <= slots) << words << " words, " << slots
                                            << " slots";
    if (set.bitmap()) {
      ++bitmaps;
      // Spare words for growth, never past the table's size.
      EXPECT_GE(set.bytes(), 8 * words);
      EXPECT_LE(set.bytes(), 8 * slots);
    } else {
      EXPECT_EQ(set.bytes(), 8 * slots);
    }

    for (const std::string& attr : rel.IndexedAttributes()) {
      SCOPED_TRACE(attr);
      const Column& col = rel.column(*rel.schema().AttributeIndex(attr));
      std::unordered_set<int64_t> keys;
      for (Tid t = 0; t < col.size(); ++t) {
        if (!col.IsNull(t)) keys.insert(static_cast<int64_t>(col.raw_bits(t)));
      }
      ASSERT_FALSE(keys.empty());
      const auto [min, max] = std::minmax_element(keys.begin(), keys.end());
      const size_t entries = static_cast<size_t>(*max - *min + 1);
      const size_t slot_bytes = 16 * PowerOfTwoSlots(keys.size(), 7, 10);
      const bool direct_smaller = 8 * entries <= slot_bytes;
      const ColumnIndex* index = rel.GetIndex(attr);
      ASSERT_NE(index, nullptr);
      EXPECT_EQ(index->direct(), direct_smaller)
          << entries << " entries, " << slot_bytes << " slot bytes";
      EXPECT_EQ(index->entry_bytes(),
                direct_smaller ? 8 * entries : slot_bytes);
      EXPECT_EQ(index->tid_bytes(), 4 * col.size());  // a 32-bit tid a row
      EXPECT_EQ(index->owned_bytes(), 0u);
      ++indexes;
      if (index->direct()) ++direct;
    }
  }
  // The datagen's surrogate keys are dense: every primary-key set is a
  // bitmap, and only THEATRE.tid and PLAY.tid (122 theatre ids, the
  // paper's 1,000 below the synthetic ones) and AWARD.mid (1,099 of about
  // 7,000 film ids) stay hashed.
  EXPECT_EQ(bitmaps, db.num_relations());
  EXPECT_EQ(indexes, 15u);
  EXPECT_EQ(direct, 12u);

  // The database's report is its relations' reports summed by kind.
  const StorageBytes total = db.bytes();
  EXPECT_EQ(total.columns, sum.columns);
  EXPECT_EQ(total.primary_keys, sum.primary_keys);
  EXPECT_EQ(total.index_entries, sum.index_entries);
  EXPECT_EQ(total.index_tids, sum.index_tids);
  EXPECT_EQ(total.owned_runs, 0u);
  EXPECT_EQ(total.total(), sum.total());
  EXPECT_GE(total.columns, 8 * db.TotalTuples());
}

TEST(DatabaseBytesTest, InsertsAfterTheBuildReportOwnedRuns) {
  MoviesConfig config;
  config.num_movies = 300;
  auto ds = MoviesDataset::Create(config);
  ASSERT_TRUE(ds.ok());
  Relation* movie = *ds->db().GetRelation("MOVIE");
  const StorageBytes before = movie->bytes();
  EXPECT_EQ(before.owned_runs, 0u);
  // An existing director's run moves out of the built array.
  ASSERT_TRUE(movie->Insert({Value(int64_t{900000}), Value("Late Film"),
                             Value(int64_t{2026}), Value(int64_t{1000})})
                  .ok());
  const StorageBytes after = movie->bytes();
  EXPECT_GT(after.owned_runs, 0u);
  EXPECT_GE(after.columns, before.columns);
  EXPECT_EQ(ds->db().bytes().owned_runs, after.owned_runs);
}

}  // namespace
}  // namespace precis
