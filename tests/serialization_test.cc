#include <gtest/gtest.h>

#include <sstream>

#include "datagen/movies_dataset.h"
#include "storage/serialization.h"

namespace precis {
namespace {

Database SmallDb() {
  Database db("demo");
  RelationSchema d("DIRECTOR", {{"did", DataType::kInt64},
                                {"dname", DataType::kString},
                                {"rating", DataType::kDouble}});
  EXPECT_TRUE(d.SetPrimaryKey("did").ok());
  EXPECT_TRUE(db.CreateRelation(std::move(d)).ok());
  RelationSchema m("MOVIE", {{"mid", DataType::kInt64},
                             {"title", DataType::kString},
                             {"did", DataType::kInt64}});
  EXPECT_TRUE(m.SetPrimaryKey("mid").ok());
  EXPECT_TRUE(db.CreateRelation(std::move(m)).ok());
  EXPECT_TRUE(db.AddForeignKey({"MOVIE", "did", "DIRECTOR", "did"}).ok());

  auto dr = db.GetRelation("DIRECTOR");
  auto mr = db.GetRelation("MOVIE");
  EXPECT_TRUE((*dr)->Insert({int64_t{1}, "Woody Allen", 8.25}).ok());
  EXPECT_TRUE(
      (*dr)->Insert({int64_t{2}, "Tab\tNewline\nBackslash\\", 0.1}).ok());
  EXPECT_TRUE((*mr)->Insert({int64_t{1}, "Match Point", int64_t{1}}).ok());
  EXPECT_TRUE((*mr)->Insert({int64_t{2}, Value::Null(), int64_t{2}}).ok());
  EXPECT_TRUE((*mr)->CreateIndex("did").ok());
  return db;
}

Database RoundTrip(const Database& db) {
  std::ostringstream out;
  EXPECT_TRUE(SaveDatabase(db, &out).ok());
  std::istringstream in(out.str());
  auto loaded = LoadDatabase(&in);
  EXPECT_TRUE(loaded.ok()) << loaded.status();
  return std::move(*loaded);
}

TEST(TsvEscapeTest, RoundTripsSpecials) {
  for (const std::string s :
       {"plain", "tab\there", "nl\nthere", "cr\rx", "back\\slash", "",
        "\\N literal", "\t\n\\"}) {
    auto back = UnescapeTsvField(EscapeTsvField(s));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, s);
  }
}

TEST(TsvEscapeTest, BadEscapesRejected) {
  EXPECT_TRUE(UnescapeTsvField("dangling\\").status().IsInvalidArgument());
  EXPECT_TRUE(UnescapeTsvField("bad\\q").status().IsInvalidArgument());
}

TEST(SerializationTest, RoundTripPreservesSchema) {
  Database db = SmallDb();
  Database loaded = RoundTrip(db);
  EXPECT_EQ(loaded.name(), "demo");
  EXPECT_EQ(loaded.DescribeSchema(), db.DescribeSchema());
  auto movie = loaded.GetRelation("MOVIE");
  ASSERT_TRUE(movie.ok());
  EXPECT_TRUE((*movie)->schema().primary_key().has_value());
  EXPECT_TRUE((*movie)->HasIndex("did"));
}

TEST(SerializationTest, RoundTripPreservesData) {
  Database db = SmallDb();
  Database loaded = RoundTrip(db);
  auto orig = db.GetRelation("DIRECTOR");
  auto back = loaded.GetRelation("DIRECTOR");
  ASSERT_EQ((*back)->num_tuples(), (*orig)->num_tuples());
  for (Tid tid = 0; tid < (*orig)->num_tuples(); ++tid) {
    EXPECT_EQ((*back)->tuple(tid), (*orig)->tuple(tid));
  }
}

TEST(SerializationTest, NullsSurviveRoundTrip) {
  Database loaded = RoundTrip(SmallDb());
  auto movie = loaded.GetRelation("MOVIE");
  EXPECT_TRUE((*movie)->tuple(1)[1].is_null());
}

TEST(SerializationTest, DoublePrecisionSurvives) {
  Database db("d");
  RelationSchema r("R", {{"v", DataType::kDouble}});
  ASSERT_TRUE(db.CreateRelation(std::move(r)).ok());
  auto rel = db.GetRelation("R");
  double tricky = 0.1 + 0.2;  // not representable exactly
  ASSERT_TRUE((*rel)->Insert({tricky}).ok());
  Database loaded = RoundTrip(db);
  auto back = loaded.GetRelation("R");
  EXPECT_EQ((*back)->tuple(0)[0].AsDouble(), tricky);
}

TEST(SerializationTest, ForeignKeysRestoredAndValid) {
  Database loaded = RoundTrip(SmallDb());
  EXPECT_EQ(loaded.foreign_keys().size(), 1u);
  EXPECT_TRUE(loaded.ValidateForeignKeys().ok());
}

TEST(SerializationTest, FileRoundTrip) {
  Database db = SmallDb();
  const std::string path = "/tmp/precis_serialization_test.pdb";
  ASSERT_TRUE(SaveDatabaseToFile(db, path).ok());
  auto loaded = LoadDatabaseFromFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->TotalTuples(), db.TotalTuples());
  EXPECT_TRUE(LoadDatabaseFromFile("/tmp/no/such/dir/x.pdb")
                  .status()
                  .IsInvalidArgument());
}

TEST(SerializationTest, MoviesDatasetRoundTrip) {
  MoviesConfig config;
  config.num_movies = 40;
  auto ds = MoviesDataset::Create(config);
  ASSERT_TRUE(ds.ok());
  Database loaded = RoundTrip(ds->db());
  EXPECT_EQ(loaded.TotalTuples(), ds->db().TotalTuples());
  EXPECT_EQ(loaded.num_relations(), ds->db().num_relations());
  EXPECT_TRUE(loaded.ValidateForeignKeys().ok());
}

TEST(SerializationLoadErrorTest, RejectsGarbage) {
  for (const std::string& text :
       {std::string(""), std::string("WRONG 1\n"),
        std::string("PRECISDB 99\nDATABASE x\n"),
        std::string("PRECISDB 1\nNODATABASE\n"),
        std::string("PRECISDB 1\nDATABASE x\nWHAT is this\n")}) {
    std::istringstream in(text);
    EXPECT_FALSE(LoadDatabase(&in).ok()) << text;
  }
}

TEST(SerializationLoadErrorTest, RejectsArityMismatch) {
  std::istringstream in(
      "PRECISDB 1\nDATABASE x\n"
      "RELATION R 2\nATTR a INT64 PK\nATTR b STRING\n"
      "DATA R 1\n"
      "1\n");
  EXPECT_TRUE(LoadDatabase(&in).status().IsInvalidArgument());
}

TEST(SerializationLoadErrorTest, RejectsBadLiteral) {
  std::istringstream in(
      "PRECISDB 1\nDATABASE x\n"
      "RELATION R 1\nATTR a INT64 PK\n"
      "DATA R 1\n"
      "notanumber\n");
  EXPECT_TRUE(LoadDatabase(&in).status().IsInvalidArgument());
}

TEST(SerializationLoadErrorTest, RejectsTruncatedData) {
  std::istringstream in(
      "PRECISDB 1\nDATABASE x\n"
      "RELATION R 1\nATTR a INT64\n"
      "DATA R 3\n"
      "1\n");
  EXPECT_TRUE(LoadDatabase(&in).status().IsInvalidArgument());
}

TEST(SerializationLoadErrorTest, RejectsDuplicatePrimaryKeys) {
  std::istringstream in(
      "PRECISDB 1\nDATABASE x\n"
      "RELATION R 1\nATTR a INT64 PK\n"
      "DATA R 2\n"
      "7\n7\n");
  EXPECT_TRUE(LoadDatabase(&in).status().IsConstraintViolation());
}

TEST(SerializationLoadErrorTest, RejectsUnknownType) {
  std::istringstream in(
      "PRECISDB 1\nDATABASE x\n"
      "RELATION R 1\nATTR a BLOB\n");
  EXPECT_TRUE(LoadDatabase(&in).status().IsInvalidArgument());
}

}  // namespace
}  // namespace precis
