#include <gtest/gtest.h>

#include <memory>

#include "datagen/movies_dataset.h"
#include "materialized.h"
#include "precis/database_generator.h"
#include "precis/schema_generator.h"
#include "precis/tuple_weights.h"

namespace precis {
namespace {

// --- TupleWeightStore basics ---

TEST(TupleWeightStoreTest, DefaultsToOne) {
  TupleWeightStore store;
  EXPECT_DOUBLE_EQ(store.Weight("ANY", 0), 1.0);
  EXPECT_FALSE(store.HasWeights("ANY"));
}

TEST(TupleWeightStoreTest, SetAndGet) {
  Database db("d");
  RelationSchema r("R", {{"a", DataType::kInt64}});
  ASSERT_TRUE(db.CreateRelation(std::move(r)).ok());
  auto rel = db.GetRelation("R");
  ASSERT_TRUE((*rel)->Insert({int64_t{1}}).ok());
  ASSERT_TRUE((*rel)->Insert({int64_t{2}}).ok());

  TupleWeightStore store;
  ASSERT_TRUE(store.SetWeights(db, "R", {0.2, 0.9}).ok());
  EXPECT_DOUBLE_EQ(store.Weight("R", 0), 0.2);
  EXPECT_DOUBLE_EQ(store.Weight("R", 1), 0.9);
  EXPECT_DOUBLE_EQ(store.Weight("R", 99), 1.0);  // out of range
  EXPECT_TRUE(store.HasWeights("R"));
  EXPECT_EQ(store.num_relations(), 1u);
}

TEST(TupleWeightStoreTest, ValidatesInput) {
  Database db("d");
  RelationSchema r("R", {{"a", DataType::kInt64}});
  ASSERT_TRUE(db.CreateRelation(std::move(r)).ok());
  auto rel = db.GetRelation("R");
  ASSERT_TRUE((*rel)->Insert({int64_t{1}}).ok());

  TupleWeightStore store;
  EXPECT_TRUE(store.SetWeights(db, "NOPE", {0.5}).IsNotFound());
  EXPECT_TRUE(store.SetWeights(db, "R", {0.5, 0.5}).IsInvalidArgument());
  EXPECT_TRUE(store.SetWeights(db, "R", {1.5}).IsInvalidArgument());
  EXPECT_TRUE(store.SetWeights(db, "R", {-0.1}).IsInvalidArgument());
}

TEST(WeightsFromNumericAttributeTest, MinMaxNormalizes) {
  Database db("d");
  RelationSchema r("R", {{"year", DataType::kInt64}});
  ASSERT_TRUE(db.CreateRelation(std::move(r)).ok());
  auto rel = db.GetRelation("R");
  ASSERT_TRUE((*rel)->Insert({int64_t{2000}}).ok());
  ASSERT_TRUE((*rel)->Insert({int64_t{2010}}).ok());
  ASSERT_TRUE((*rel)->Insert({int64_t{2020}}).ok());
  ASSERT_TRUE((*rel)->Insert({Value::Null()}).ok());

  TupleWeightStore store;
  ASSERT_TRUE(
      WeightsFromNumericAttribute(db, "R", "year", &store, 0.1, 1.0).ok());
  EXPECT_DOUBLE_EQ(store.Weight("R", 0), 0.1);
  EXPECT_NEAR(store.Weight("R", 1), 0.55, 1e-12);
  EXPECT_DOUBLE_EQ(store.Weight("R", 2), 1.0);
  EXPECT_DOUBLE_EQ(store.Weight("R", 3), 0.1);  // NULL -> lo
}

TEST(WeightsFromNumericAttributeTest, ConstantAttributeGetsHi) {
  Database db("d");
  RelationSchema r("R", {{"v", DataType::kDouble}});
  ASSERT_TRUE(db.CreateRelation(std::move(r)).ok());
  auto rel = db.GetRelation("R");
  ASSERT_TRUE((*rel)->Insert({3.0}).ok());
  ASSERT_TRUE((*rel)->Insert({3.0}).ok());
  TupleWeightStore store;
  ASSERT_TRUE(WeightsFromNumericAttribute(db, "R", "v", &store).ok());
  EXPECT_DOUBLE_EQ(store.Weight("R", 0), 1.0);
  EXPECT_DOUBLE_EQ(store.Weight("R", 1), 1.0);
}

TEST(WeightsFromNumericAttributeTest, Validation) {
  Database db("d");
  RelationSchema r("R", {{"s", DataType::kString}});
  ASSERT_TRUE(db.CreateRelation(std::move(r)).ok());
  TupleWeightStore store;
  EXPECT_TRUE(WeightsFromNumericAttribute(db, "R", "s", &store)
                  .IsInvalidArgument());
  EXPECT_TRUE(
      WeightsFromNumericAttribute(db, "R", "s", nullptr).IsInvalidArgument());
  EXPECT_TRUE(WeightsFromNumericAttribute(db, "R", "s", &store, 0.9, 0.1)
                  .IsInvalidArgument());
}

// --- Ranked selection in the Result Database Generator ---

/// D(did) 1..2; M(mid, did, year): director 1 has movies with years
/// 1950..1954 (mids 1..5) in tid order oldest-first, so the paper's NaiveQ
/// prefix picks the *oldest* — ranked selection by year must invert that.
class RankedSelectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RelationSchema d("D", {{"did", DataType::kInt64}});
    ASSERT_TRUE(d.SetPrimaryKey("did").ok());
    ASSERT_TRUE(db_.CreateRelation(std::move(d)).ok());
    RelationSchema m("M", {{"mid", DataType::kInt64},
                           {"did", DataType::kInt64},
                           {"year", DataType::kInt64}});
    ASSERT_TRUE(m.SetPrimaryKey("mid").ok());
    ASSERT_TRUE(db_.CreateRelation(std::move(m)).ok());
    auto dr = db_.GetRelation("D");
    auto mr = db_.GetRelation("M");
    ASSERT_TRUE((*dr)->Insert({int64_t{1}}).ok());
    for (int64_t i = 0; i < 5; ++i) {
      ASSERT_TRUE((*mr)->Insert({i + 1, int64_t{1}, 1950 + i}).ok());
    }
    ASSERT_TRUE((*mr)->CreateIndex("did").ok());

    auto g = SchemaGraph::FromDatabase(db_);
    ASSERT_TRUE(g.ok());
    graph_ = std::make_unique<SchemaGraph>(std::move(*g));
    ASSERT_TRUE(graph_->AddProjectionEdge("M", "year", 1.0).ok());
    ASSERT_TRUE(graph_->AddProjectionEdge("D", "did", 1.0).ok());
    ASSERT_TRUE(graph_->AddJoinEdge("D", "did", "M", "did", 1.0).ok());

    ResultSchemaGenerator schema_gen(graph_.get());
    auto schema = schema_gen.Generate({std::string("D")}, *MinPathWeight(0.9));
    ASSERT_TRUE(schema.ok());
    schema_ = std::make_unique<ResultSchema>(std::move(*schema));
    ASSERT_TRUE(
        WeightsFromNumericAttribute(db_, "M", "year", &weights_).ok());
  }

  std::vector<int64_t> Years(const Database& result) {
    std::vector<int64_t> out;
    auto rel = result.GetRelation("M");
    auto idx = (*rel)->schema().AttributeIndex("year");
    for (Tid tid = 0; tid < (*rel)->num_tuples(); ++tid) {
      out.push_back((*rel)->tuple(tid)[*idx].AsInt64());
    }
    return out;
  }

  Database db_;
  std::unique_ptr<SchemaGraph> graph_;
  std::unique_ptr<ResultSchema> schema_;
  TupleWeightStore weights_;
};

TEST_F(RankedSelectionTest, UnrankedTakesHeapPrefix) {
  ResultDatabaseGenerator gen(&db_);
  DbGenOptions options;
  options.strategy = SubsetStrategy::kNaiveQ;
  SeedTids seeds = {{*graph_->RelationId("D"), {0}}};
  auto result = Materialized(
      gen.Generate(*schema_, seeds, *MaxTuplesPerRelation(2), options));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(Years(*result), (std::vector<int64_t>{1950, 1951}));
}

TEST_F(RankedSelectionTest, RankedTakesHeaviestTuples) {
  ResultDatabaseGenerator gen(&db_);
  DbGenOptions options;
  options.tuple_weights = &weights_;
  SeedTids seeds = {{*graph_->RelationId("D"), {0}}};
  auto result = Materialized(
      gen.Generate(*schema_, seeds, *MaxTuplesPerRelation(2), options));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(Years(*result), (std::vector<int64_t>{1954, 1953}));
}

TEST_F(RankedSelectionTest, RankedWithoutTruncationKeepsEverything) {
  ResultDatabaseGenerator gen(&db_);
  DbGenOptions options;
  options.tuple_weights = &weights_;
  SeedTids seeds = {{*graph_->RelationId("D"), {0}}};
  auto result = Materialized(
      gen.Generate(*schema_, seeds, *UnlimitedCardinality(), options));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result->GetRelation("M"))->num_tuples(), 5u);
}

TEST_F(RankedSelectionTest, RankedSeedsPreferHeavyTuples) {
  // Seed M directly with all tuples but allow only 2: heaviest first.
  ResultSchemaGenerator schema_gen(graph_.get());
  auto schema = schema_gen.Generate({std::string("M")}, *MaxPathLength(1));
  ASSERT_TRUE(schema.ok());
  ResultDatabaseGenerator gen(&db_);
  DbGenOptions options;
  options.tuple_weights = &weights_;
  SeedTids seeds = {{*graph_->RelationId("M"), {0, 1, 2, 3, 4}}};
  auto result = Materialized(
      gen.Generate(*schema, seeds, *MaxTuplesPerRelation(2), options));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(Years(*result), (std::vector<int64_t>{1954, 1953}));
}

TEST_F(RankedSelectionTest, UnweightedRelationsKeepRetrievalOrder) {
  // No weights registered at all: ranked mode must reduce to the original
  // order (stable sort over equal weights).
  TupleWeightStore empty;
  ResultDatabaseGenerator gen(&db_);
  DbGenOptions options;
  options.tuple_weights = &empty;
  SeedTids seeds = {{*graph_->RelationId("D"), {0}}};
  auto result = Materialized(
      gen.Generate(*schema_, seeds, *MaxTuplesPerRelation(2), options));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(Years(*result), (std::vector<int64_t>{1950, 1951}));
}

TEST(RankedMoviesTest, WoodyAllenPrecisShowsNewestMoviesFirst) {
  MoviesConfig config;
  config.num_movies = 0;
  auto ds = MoviesDataset::Create(config);
  ASSERT_TRUE(ds.ok());
  TupleWeightStore weights;
  ASSERT_TRUE(
      WeightsFromNumericAttribute(ds->db(), "MOVIE", "year", &weights).ok());

  ResultSchemaGenerator schema_gen(&ds->graph());
  auto schema = schema_gen.Generate({std::string("DIRECTOR")},
                                    *MinPathWeight(0.9));
  ASSERT_TRUE(schema.ok());
  ResultDatabaseGenerator gen(&ds->db());
  DbGenOptions options;
  options.tuple_weights = &weights;
  SeedTids seeds = {{*ds->graph().RelationId("DIRECTOR"), {0}}};
  auto result = Materialized(
      gen.Generate(*schema, seeds, *MaxTuplesPerRelation(2), options));
  ASSERT_TRUE(result.ok());
  auto movie = result->GetRelation("MOVIE");
  auto title = (*movie)->schema().AttributeIndex("title");
  ASSERT_EQ((*movie)->num_tuples(), 2u);
  EXPECT_EQ((*movie)->tuple(0)[*title].AsString(), "Match Point");
  EXPECT_EQ((*movie)->tuple(1)[*title].AsString(), "Melinda and Melinda");
}

}  // namespace
}  // namespace precis
