#include <gtest/gtest.h>

#include <memory>

#include "datagen/movies_dataset.h"
#include "materialized.h"
#include "precis/database_generator.h"
#include "precis/schema_generator.h"

namespace precis {
namespace {

/// Two token relations A and B feed M; only the A-side path continues to G:
///
///   A --1.0--> M --0.9--> G          (A->M->G has weight 0.9: in P_d)
///   B --0.95-> M                     (B->M->G has weight 0.855: pruned)
///
/// Under the paper's simplified behaviour every M tuple drives M -> G;
/// path-aware propagation restricts the drive to M tuples that arrived via
/// A -> M (or via both).
class PathPropagationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto make = [&](const std::string& name,
                    std::vector<AttributeSchema> attrs,
                    const std::string& pk) {
      RelationSchema schema(name, std::move(attrs));
      ASSERT_TRUE(schema.SetPrimaryKey(pk).ok());
      ASSERT_TRUE(db_.CreateRelation(std::move(schema)).ok());
    };
    make("A", {{"aid", DataType::kInt64}}, "aid");
    make("B", {{"bid", DataType::kInt64}}, "bid");
    make("M",
         {{"mid", DataType::kInt64},
          {"aid", DataType::kInt64},
          {"bid", DataType::kInt64},
          {"tag", DataType::kString}},
         "mid");
    make("G", {{"gid", DataType::kInt64}, {"mid", DataType::kInt64}}, "gid");

    auto a = db_.GetRelation("A");
    auto b = db_.GetRelation("B");
    auto m = db_.GetRelation("M");
    auto g = db_.GetRelation("G");
    ASSERT_TRUE((*a)->Insert({int64_t{1}}).ok());
    ASSERT_TRUE((*b)->Insert({int64_t{1}}).ok());
    // m1 reachable from A only, m2 from B only, m3 from both.
    ASSERT_TRUE(
        (*m)->Insert({int64_t{1}, int64_t{1}, Value::Null(), "fromA"}).ok());
    ASSERT_TRUE(
        (*m)->Insert({int64_t{2}, Value::Null(), int64_t{1}, "fromB"}).ok());
    ASSERT_TRUE(
        (*m)->Insert({int64_t{3}, int64_t{1}, int64_t{1}, "fromBoth"}).ok());
    ASSERT_TRUE((*g)->Insert({int64_t{1}, int64_t{1}}).ok());
    ASSERT_TRUE((*g)->Insert({int64_t{2}, int64_t{2}}).ok());
    ASSERT_TRUE((*g)->Insert({int64_t{3}, int64_t{3}}).ok());
    ASSERT_TRUE((*m)->CreateIndex("aid").ok());
    ASSERT_TRUE((*m)->CreateIndex("bid").ok());
    ASSERT_TRUE((*g)->CreateIndex("mid").ok());

    auto graph = SchemaGraph::FromDatabase(db_);
    ASSERT_TRUE(graph.ok());
    graph_ = std::make_unique<SchemaGraph>(std::move(*graph));
    ASSERT_TRUE(graph_->AddProjectionEdge("A", "aid", 1.0).ok());
    ASSERT_TRUE(graph_->AddProjectionEdge("B", "bid", 1.0).ok());
    ASSERT_TRUE(graph_->AddProjectionEdge("M", "tag", 1.0).ok());
    ASSERT_TRUE(graph_->AddProjectionEdge("G", "gid", 1.0).ok());
    ASSERT_TRUE(graph_->AddJoinEdge("A", "aid", "M", "aid", 1.0).ok());
    ASSERT_TRUE(graph_->AddJoinEdge("B", "bid", "M", "bid", 0.95).ok());
    ASSERT_TRUE(graph_->AddJoinEdge("M", "mid", "G", "mid", 0.9).ok());

    ResultSchemaGenerator schema_gen(graph_.get());
    auto schema = schema_gen.Generate({std::string("A"), "B"},
                                      *MinPathWeight(0.9));
    ASSERT_TRUE(schema.ok());
    schema_ = std::make_unique<ResultSchema>(std::move(*schema));
    // Sanity: both arrivals at M present, G reached, M in-degree 2.
    ASSERT_EQ(schema_->join_edges().size(), 3u);
    ASSERT_EQ(schema_->in_degree(*graph_->RelationId("M")), 2);

    seeds_ = {{*graph_->RelationId("A"), {0}},
              {*graph_->RelationId("B"), {0}}};
  }

  std::vector<int64_t> Gids(const Database& result) {
    std::vector<int64_t> out;
    auto rel = result.GetRelation("G");
    auto idx = (*rel)->schema().AttributeIndex("gid");
    for (Tid tid = 0; tid < (*rel)->num_tuples(); ++tid) {
      out.push_back((*rel)->tuple(tid)[*idx].AsInt64());
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  Database db_;
  std::unique_ptr<SchemaGraph> graph_;
  std::unique_ptr<ResultSchema> schema_;
  SeedTids seeds_;
};

TEST_F(PathPropagationTest, DefaultUsesEveryCollectedTuple) {
  ResultDatabaseGenerator gen(&db_);
  auto result = Materialized(
      gen.Generate(*schema_, seeds_, *UnlimitedCardinality()));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result->GetRelation("M"))->num_tuples(), 3u);
  // All three genres: m2's genre came along although no accepted path goes
  // B -> M -> G.
  EXPECT_EQ(Gids(*result), (std::vector<int64_t>{1, 2, 3}));
}

TEST_F(PathPropagationTest, PathAwareFiltersByFeedingPath) {
  ResultDatabaseGenerator gen(&db_);
  DbGenOptions options;
  options.path_aware_propagation = true;
  auto result = Materialized(
      gen.Generate(*schema_, seeds_, *UnlimitedCardinality(), options));
  ASSERT_TRUE(result.ok());
  // M still holds all three tuples (both arrivals are in P_d paths)...
  EXPECT_EQ((*result->GetRelation("M"))->num_tuples(), 3u);
  // ...but only the A-fed tuples drive M -> G: m1 (A only) and m3 (both).
  EXPECT_EQ(Gids(*result), (std::vector<int64_t>{1, 3}));
}

TEST_F(PathPropagationTest, PathAwareKeepsForeignKeysValid) {
  ResultDatabaseGenerator gen(&db_);
  DbGenOptions options;
  options.path_aware_propagation = true;
  auto result = Materialized(
      gen.Generate(*schema_, seeds_, *UnlimitedCardinality(), options));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->ValidateForeignKeys().ok());
}

TEST_F(PathPropagationTest, PathAwareAgreesWithDefaultWhenAllPathsContinue) {
  // Raise B -> M so that B -> M -> G enters P_d too: with every arrival
  // feeding every departure, both modes coincide.
  ASSERT_TRUE(graph_->SetJoinWeight("B", "M", 1.0).ok());
  ResultSchemaGenerator schema_gen(graph_.get());
  auto schema =
      schema_gen.Generate({std::string("A"), "B"}, *MinPathWeight(0.9));
  ASSERT_TRUE(schema.ok());

  ResultDatabaseGenerator gen(&db_);
  DbGenOptions aware;
  aware.path_aware_propagation = true;
  auto a = Materialized(
      gen.Generate(*schema, seeds_, *UnlimitedCardinality(), aware));
  auto b = Materialized(gen.Generate(*schema, seeds_, *UnlimitedCardinality()));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(Gids(*a), Gids(*b));
  EXPECT_EQ(a->DescribeSchema(), b->DescribeSchema());
}

TEST_F(PathPropagationTest, PaperExampleUnaffectedByPathAwareness) {
  // In the Fig. 4 setting every movie that can drive MOVIE -> GENRE arrives
  // via DIRECTOR -> MOVIE, so the two modes give the same answer.
  MoviesConfig config;
  config.num_movies = 0;
  auto ds = MoviesDataset::Create(config);
  ASSERT_TRUE(ds.ok());
  ResultSchemaGenerator schema_gen(&ds->graph());
  auto schema = schema_gen.Generate({std::string("DIRECTOR"), "ACTOR"},
                                    *MinPathWeight(0.9));
  ASSERT_TRUE(schema.ok());
  SeedTids seeds = {{*ds->graph().RelationId("DIRECTOR"), {0}},
                    {*ds->graph().RelationId("ACTOR"), {0}}};
  ResultDatabaseGenerator gen(&ds->db());
  DbGenOptions aware;
  aware.path_aware_propagation = true;
  auto a = Materialized(
      gen.Generate(*schema, seeds, *MaxTuplesPerRelation(100), aware));
  auto b = Materialized(
      gen.Generate(*schema, seeds, *MaxTuplesPerRelation(100)));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->DescribeSchema(), b->DescribeSchema());
}

}  // namespace
}  // namespace precis
