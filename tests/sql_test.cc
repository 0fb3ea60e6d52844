// The §5.2 query shapes as the tests and the planner use them: the
// sequential walk's RoundRobin cursors (oracle_scans.h) and the IN-list
// SQL the planner traces (precis/dbgen_common.h).

#include <gtest/gtest.h>

#include "oracle_scans.h"
#include "precis/dbgen_common.h"
#include "storage/database.h"

namespace precis {
namespace {

using dbgen_internal::RenderInListSql;

/// A GENRE-like relation: gid*, mid (to-N join attribute), genre.
class SqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RelationSchema schema("GENRE", {{"gid", DataType::kInt64},
                                    {"mid", DataType::kInt64},
                                    {"genre", DataType::kString}});
    ASSERT_TRUE(schema.SetPrimaryKey("gid").ok());
    ASSERT_TRUE(db_.CreateRelation(std::move(schema)).ok());
    auto rel = db_.GetRelation("GENRE");
    ASSERT_TRUE(rel.ok());
    rel_ = *rel;
    // mid 1: Drama, Thriller; mid 2: Comedy; mid 3: Comedy, Romance, Crime.
    ASSERT_TRUE(rel_->Insert({int64_t{1}, int64_t{1}, "Drama"}).ok());
    ASSERT_TRUE(rel_->Insert({int64_t{2}, int64_t{1}, "Thriller"}).ok());
    ASSERT_TRUE(rel_->Insert({int64_t{3}, int64_t{2}, "Comedy"}).ok());
    ASSERT_TRUE(rel_->Insert({int64_t{4}, int64_t{3}, "Comedy"}).ok());
    ASSERT_TRUE(rel_->Insert({int64_t{5}, int64_t{3}, "Romance"}).ok());
    ASSERT_TRUE(rel_->Insert({int64_t{6}, int64_t{3}, "Crime"}).ok());
    ASSERT_TRUE(rel_->CreateIndex("mid").ok());
    db_.ResetStats();
  }

  std::vector<size_t> AllAttrs() const { return {0, 1, 2}; }

  Database db_;
  Relation* rel_ = nullptr;
};

TEST_F(SqlTest, ProjectTuple) {
  Tuple t = {int64_t{1}, int64_t{2}, "Drama"};
  EXPECT_EQ(ProjectTuple(t, {2}), (Tuple{"Drama"}));
  EXPECT_EQ(ProjectTuple(t, {2, 0}), (Tuple{"Drama", int64_t{1}}));
  EXPECT_EQ(ProjectTuple(t, {}), Tuple{});
}

TEST_F(SqlTest, PerValueScanSetRoundRobinOrder) {
  auto scans = PerValueScanSet::Open(
      *rel_, "mid", {Value(int64_t{1}), Value(int64_t{3})}, AllAttrs());
  ASSERT_TRUE(scans.ok());
  EXPECT_EQ(scans->num_scans(), 2u);
  // Round 1: one tuple from each scan.
  auto r0 = scans->Next(0);
  auto r1 = scans->Next(1);
  ASSERT_TRUE(r0.has_value());
  ASSERT_TRUE(r1.has_value());
  EXPECT_EQ(r0->values[2], Value("Drama"));
  EXPECT_EQ(r1->values[2], Value("Comedy"));
  // Round 2.
  EXPECT_EQ(scans->Next(0)->values[2], Value("Thriller"));
  EXPECT_EQ(scans->Next(1)->values[2], Value("Romance"));
  // Scan 0 now drained.
  EXPECT_FALSE(scans->IsOpen(0));
  EXPECT_FALSE(scans->Next(0).has_value());
  EXPECT_EQ(scans->Next(1)->values[2], Value("Crime"));
  EXPECT_TRUE(scans->AllClosed());
}

TEST_F(SqlTest, PerValueScanSetOpenCountsOneProbePerKey) {
  auto scans = PerValueScanSet::Open(
      *rel_, "mid",
      {Value(int64_t{1}), Value(int64_t{2}), Value(int64_t{3})}, AllAttrs());
  ASSERT_TRUE(scans.ok());
  EXPECT_EQ(db_.stats().index_probes, 3u);
  EXPECT_EQ(db_.stats().tuple_fetches, 0u);  // nothing pulled yet
}

TEST_F(SqlTest, PerValueScanSetEmptyScanIsClosed) {
  auto scans = PerValueScanSet::Open(*rel_, "mid", {Value(int64_t{42})},
                                     AllAttrs());
  ASSERT_TRUE(scans.ok());
  EXPECT_FALSE(scans->IsOpen(0));
  EXPECT_TRUE(scans->AllClosed());
}

TEST_F(SqlTest, PerValueScanSetKeyAccessor) {
  auto scans = PerValueScanSet::Open(*rel_, "mid", {Value(int64_t{7})},
                                     AllAttrs());
  ASSERT_TRUE(scans.ok());
  EXPECT_EQ(scans->key(0), Value(int64_t{7}));
}

TEST_F(SqlTest, RenderInListSql) {
  std::string sql = RenderInListSql(rel_->schema(), "mid",
                                    {Value(int64_t{1}), Value(int64_t{3})},
                                    {2, 0}, 5);
  EXPECT_EQ(sql,
            "SELECT genre, gid FROM GENRE WHERE mid IN (1, 3)"
            " AND RowNum <= 5");
}

TEST_F(SqlTest, RenderInListSqlQuotesStrings) {
  std::string sql = RenderInListSql(rel_->schema(), "genre",
                                    {Value("Drama")}, {}, std::nullopt);
  EXPECT_EQ(sql, "SELECT * FROM GENRE WHERE genre IN ('Drama')");
}

}  // namespace
}  // namespace precis
