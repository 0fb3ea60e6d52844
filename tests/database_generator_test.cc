#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "datagen/movies_dataset.h"
#include "materialized.h"
#include "precis/database_generator.h"
#include "precis/schema_generator.h"

namespace precis {
namespace {

/// Collects an attribute's values from a result relation, in tuple order.
std::vector<Value> Column(const Database& db, const std::string& relation,
                          const std::string& attribute) {
  std::vector<Value> out;
  auto rel = db.GetRelation(relation);
  if (!rel.ok()) return out;
  auto idx = (*rel)->schema().AttributeIndex(attribute);
  if (!idx.ok()) return out;
  for (Tid tid = 0; tid < (*rel)->num_tuples(); ++tid) {
    out.push_back((*rel)->tuple(tid)[*idx]);
  }
  return out;
}

// ===== Strategy semantics on a hand-built two-relation database =====

/// D(did, dname) with dids 1..3; M(mid, did, title) with three movies per
/// director: mids 1-3 -> did 1, 4-6 -> did 2, 7-9 -> did 3.
class StrategyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RelationSchema d("D", {{"did", DataType::kInt64},
                           {"dname", DataType::kString}});
    ASSERT_TRUE(d.SetPrimaryKey("did").ok());
    ASSERT_TRUE(db_.CreateRelation(std::move(d)).ok());
    RelationSchema m("M", {{"mid", DataType::kInt64},
                           {"did", DataType::kInt64},
                           {"title", DataType::kString}});
    ASSERT_TRUE(m.SetPrimaryKey("mid").ok());
    ASSERT_TRUE(db_.CreateRelation(std::move(m)).ok());
    ASSERT_TRUE(db_.AddForeignKey({"M", "did", "D", "did"}).ok());

    auto dr = db_.GetRelation("D");
    auto mr = db_.GetRelation("M");
    for (int64_t did = 1; did <= 3; ++did) {
      ASSERT_TRUE(
          (*dr)->Insert({did, "Director " + std::to_string(did)}).ok());
    }
    int64_t mid = 1;
    for (int64_t did = 1; did <= 3; ++did) {
      for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(
            (*mr)->Insert({mid, did, "Movie " + std::to_string(mid)}).ok());
        ++mid;
      }
    }
    ASSERT_TRUE((*mr)->CreateIndex("did").ok());
    ASSERT_TRUE((*dr)->CreateIndex("did").ok());

    auto g = SchemaGraph::FromDatabase(db_);
    ASSERT_TRUE(g.ok());
    graph_ = std::make_unique<SchemaGraph>(std::move(*g));
    ASSERT_TRUE(graph_->AddProjectionEdge("D", "dname", 1.0).ok());
    ASSERT_TRUE(graph_->AddProjectionEdge("M", "title", 1.0).ok());
    ASSERT_TRUE(graph_->AddJoinEdge("D", "did", "M", "did", 1.0).ok());

    ResultSchemaGenerator schema_gen(graph_.get());
    auto schema = schema_gen.Generate({std::string("D")}, *MinPathWeight(0.9));
    ASSERT_TRUE(schema.ok());
    schema_ = std::make_unique<ResultSchema>(std::move(*schema));

    d_id_ = *graph_->RelationId("D");
  }

  SeedTids AllDirectorSeeds() { return {{d_id_, {0, 1, 2}}}; }

  Database db_;
  std::unique_ptr<SchemaGraph> graph_;
  std::unique_ptr<ResultSchema> schema_;
  RelationNodeId d_id_ = 0;
};

TEST_F(StrategyTest, NaiveQTakesPrefixOfFirstSourceTuples) {
  ResultDatabaseGenerator gen(&db_);
  DbGenOptions options;
  options.strategy = SubsetStrategy::kNaiveQ;
  auto result = Materialized(
      gen.Generate(*schema_, AllDirectorSeeds(), *MaxTuplesPerRelation(3),
                   options));
  ASSERT_TRUE(result.ok());
  // The paper's NaiveQ risk: all three movie slots go to director 1; the
  // other directors get none. (mid is neither projected nor a join
  // attribute, so identify movies by title.)
  EXPECT_EQ(Column(*result, "M", "title"),
            (std::vector<Value>{Value("Movie 1"), Value("Movie 2"),
                                Value("Movie 3")}));
}

TEST_F(StrategyTest, RoundRobinSpreadsAcrossSourceTuples) {
  ResultDatabaseGenerator gen(&db_);
  DbGenOptions options;
  options.strategy = SubsetStrategy::kRoundRobin;
  auto result = Materialized(
      gen.Generate(*schema_, AllDirectorSeeds(), *MaxTuplesPerRelation(3),
                   options));
  ASSERT_TRUE(result.ok());
  // One movie per director: mids 1, 4, 7.
  EXPECT_EQ(Column(*result, "M", "title"),
            (std::vector<Value>{Value("Movie 1"), Value("Movie 4"),
                                Value("Movie 7")}));
}

TEST_F(StrategyTest, AutoPicksRoundRobinForToNJoin) {
  // D -> M joins on M.did which is not M's key: to-N, so kAuto must behave
  // like RoundRobin.
  ResultDatabaseGenerator gen(&db_);
  DbGenOptions options;
  options.strategy = SubsetStrategy::kAuto;
  auto result = Materialized(
      gen.Generate(*schema_, AllDirectorSeeds(), *MaxTuplesPerRelation(3),
                   options));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(Column(*result, "M", "title"),
            (std::vector<Value>{Value("Movie 1"), Value("Movie 4"),
                                Value("Movie 7")}));
}

TEST_F(StrategyTest, UnlimitedBudgetFetchesEverythingJoined) {
  ResultDatabaseGenerator gen(&db_);
  auto result = Materialized(
      gen.Generate(*schema_, AllDirectorSeeds(), *UnlimitedCardinality()));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result->GetRelation("M"))->num_tuples(), 9u);
  EXPECT_EQ((*result->GetRelation("D"))->num_tuples(), 3u);
  EXPECT_TRUE(result->ValidateForeignKeys().ok());
  EXPECT_TRUE(gen.last_report().dropped_foreign_keys.empty());
  EXPECT_TRUE(gen.last_report().truncated_relations.empty());
  EXPECT_EQ(gen.last_report().total_tuples, 12u);
}

TEST_F(StrategyTest, TruncationIsReported) {
  ResultDatabaseGenerator gen(&db_);
  auto result = Materialized(
      gen.Generate(*schema_, AllDirectorSeeds(), *MaxTuplesPerRelation(2)));
  ASSERT_TRUE(result.ok());
  const DbGenReport& report = gen.last_report();
  // Both D (3 seeds, budget 2) and M were cut.
  EXPECT_EQ(report.truncated_relations.size(), 2u);
}

TEST_F(StrategyTest, SeedSubsetRespectsBudget) {
  ResultDatabaseGenerator gen(&db_);
  auto result = Materialized(
      gen.Generate(*schema_, AllDirectorSeeds(), *MaxTuplesPerRelation(1)));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(Column(*result, "D", "did"),
            (std::vector<Value>{Value(int64_t{1})}));
}

TEST_F(StrategyTest, MaxTotalTuplesSharedAcrossRelations) {
  ResultDatabaseGenerator gen(&db_);
  auto result = Materialized(
      gen.Generate(*schema_, AllDirectorSeeds(), *MaxTotalTuples(4)));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->TotalTuples(), 4u);
  EXPECT_EQ((*result->GetRelation("D"))->num_tuples(), 3u);
  EXPECT_EQ((*result->GetRelation("M"))->num_tuples(), 1u);
}

TEST_F(StrategyTest, ZeroBudgetYieldsEmptyButWellFormedDatabase) {
  ResultDatabaseGenerator gen(&db_);
  auto result = Materialized(
      gen.Generate(*schema_, AllDirectorSeeds(), *MaxTotalTuples(0)));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->TotalTuples(), 0u);
  EXPECT_TRUE(result->HasRelation("D"));
  EXPECT_TRUE(result->HasRelation("M"));
}

TEST_F(StrategyTest, DuplicateSeedTidsCollapse) {
  ResultDatabaseGenerator gen(&db_);
  SeedTids seeds = {{d_id_, {0, 0, 1, 0}}};
  auto result = Materialized(
      gen.Generate(*schema_, seeds, *UnlimitedCardinality()));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result->GetRelation("D"))->num_tuples(), 2u);
}

TEST_F(StrategyTest, SeedRelationOutsideSchemaRejected) {
  ResultDatabaseGenerator gen(&db_);
  RelationNodeId m_id = *graph_->RelationId("M");
  ResultSchemaGenerator schema_gen(graph_.get());
  // Schema around D only (path length 1 keeps M out).
  auto schema = schema_gen.Generate({std::string("D")}, *MaxPathLength(1));
  ASSERT_TRUE(schema.ok());
  SeedTids seeds = {{m_id, {0}}};
  EXPECT_TRUE(gen.Generate(*schema, seeds, *UnlimitedCardinality())
                  .status()
                  .IsInvalidArgument());
}

TEST_F(StrategyTest, JoinAttributesProjectedIntoResultByDefault) {
  ResultDatabaseGenerator gen(&db_);
  auto result = Materialized(
      gen.Generate(*schema_, AllDirectorSeeds(), *UnlimitedCardinality()));
  ASSERT_TRUE(result.ok());
  // Result schema projected only dname/title, but the join attributes did
  // are carried ("these will not show in the final answer").
  EXPECT_TRUE((*result->GetRelation("D"))->schema().HasAttribute("did"));
  EXPECT_TRUE((*result->GetRelation("M"))->schema().HasAttribute("did"));
  // Primary key survives where its attribute survives.
  EXPECT_TRUE(
      (*result->GetRelation("D"))->schema().primary_key().has_value());
}

TEST_F(StrategyTest, JoinAttributesCanBeExcluded) {
  ResultDatabaseGenerator gen(&db_);
  DbGenOptions options;
  options.include_join_attributes = false;
  auto result = Materialized(
      gen.Generate(*schema_, AllDirectorSeeds(), *UnlimitedCardinality(),
                   options));
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE((*result->GetRelation("D"))->schema().HasAttribute("did"));
  EXPECT_EQ((*result->GetRelation("M"))->schema().num_attributes(), 1u);
  // No FK can be declared without the join attributes; none dropped either
  // (they are simply not applicable).
  EXPECT_TRUE(result->foreign_keys().empty());
}

// ===== The paper's running example over the movies dataset =====

class PaperExampleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MoviesConfig config;
    config.num_movies = 0;  // paper-example tuples only
    auto ds = MoviesDataset::Create(config);
    ASSERT_TRUE(ds.ok());
    dataset_ = std::make_unique<MoviesDataset>(std::move(*ds));

    ResultSchemaGenerator schema_gen(&dataset_->graph());
    auto schema = schema_gen.Generate({std::string("DIRECTOR"), "ACTOR"},
                                      *MinPathWeight(0.9));
    ASSERT_TRUE(schema.ok());
    schema_ = std::make_unique<ResultSchema>(std::move(*schema));

    // Seeds as the inverted index would return them for "Woody Allen":
    // DIRECTOR tid 0 and ACTOR tid 0.
    seeds_ = {{*dataset_->graph().RelationId("DIRECTOR"), {0}},
              {*dataset_->graph().RelationId("ACTOR"), {0}}};
  }

  std::unique_ptr<MoviesDataset> dataset_;
  std::unique_ptr<ResultSchema> schema_;
  SeedTids seeds_;
};

TEST_F(PaperExampleTest, CardinalityThreeSelectsTheThreeNewestMovies) {
  ResultDatabaseGenerator gen(&dataset_->db());
  auto result = Materialized(
      gen.Generate(*schema_, seeds_, *MaxTuplesPerRelation(3)));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(Column(*result, "MOVIE", "title"),
            (std::vector<Value>{Value("Match Point"),
                                Value("Melinda and Melinda"),
                                Value("Anything Else")}));
}

TEST_F(PaperExampleTest, InDegreePostponementOrdersGenreLast) {
  ResultDatabaseGenerator gen(&dataset_->db());
  ASSERT_TRUE(
      gen.Generate(*schema_, seeds_, *MaxTuplesPerRelation(3)).ok());
  const std::vector<std::string>& edges = gen.last_report().executed_edges;
  ASSERT_EQ(edges.size(), 4u);
  // MOVIE -> GENRE must come after both arrivals at MOVIE.
  EXPECT_EQ(edges.back(), "MOVIE -> GENRE");
  EXPECT_EQ(edges[0], "DIRECTOR -> MOVIE");  // weight 1.0, accepted first
}

TEST_F(PaperExampleTest, GenerousBudgetCollectsWholeNeighbourhood) {
  ResultDatabaseGenerator gen(&dataset_->db());
  auto result = Materialized(
      gen.Generate(*schema_, seeds_, *MaxTuplesPerRelation(100)));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result->GetRelation("MOVIE"))->num_tuples(), 5u);
  EXPECT_EQ((*result->GetRelation("GENRE"))->num_tuples(), 9u);
  EXPECT_EQ((*result->GetRelation("CAST"))->num_tuples(), 2u);
  EXPECT_TRUE(result->ValidateForeignKeys().ok());
  EXPECT_TRUE(gen.last_report().dropped_foreign_keys.empty());
}

TEST_F(PaperExampleTest, DuplicateMoviesFromTwoPathsCollapse) {
  // Hollywood Ending (mid 4) and Jade Scorpion (mid 5) arrive both via
  // DIRECTOR -> MOVIE and via ACTOR -> CAST -> MOVIE; they must appear once.
  ResultDatabaseGenerator gen(&dataset_->db());
  auto result = Materialized(
      gen.Generate(*schema_, seeds_, *MaxTuplesPerRelation(100)));
  ASSERT_TRUE(result.ok());
  std::vector<Value> mids = Column(*result, "MOVIE", "mid");
  std::set<Value> distinct(mids.begin(), mids.end());
  EXPECT_EQ(distinct.size(), mids.size());
}

TEST_F(PaperExampleTest, ForeignKeyDroppedWhenParentsTruncated) {
  // Seed GENRE heavily but allow no MOVIE tuples: GENRE.mid -> MOVIE.mid
  // cannot hold and must be reported as dropped, not declared.
  ResultSchemaGenerator schema_gen(&dataset_->graph());
  auto schema =
      schema_gen.Generate({std::string("GENRE")}, *MinPathWeight(0.9));
  ASSERT_TRUE(schema.ok());
  RelationNodeId genre = *dataset_->graph().RelationId("GENRE");
  SeedTids seeds = {{genre, {0, 1, 2}}};
  ResultDatabaseGenerator gen(&dataset_->db());
  auto result = Materialized(gen.Generate(*schema, seeds, *MaxTotalTuples(3)));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result->GetRelation("MOVIE"))->num_tuples(), 0u);
  ASSERT_EQ(gen.last_report().dropped_foreign_keys.size(), 1u);
  EXPECT_EQ(gen.last_report().dropped_foreign_keys[0],
            "GENRE.mid -> MOVIE.mid");
  EXPECT_TRUE(result->ValidateForeignKeys().ok());  // declared FKs hold
}

TEST_F(PaperExampleTest, EmptySeedsYieldEmptyDatabase) {
  ResultDatabaseGenerator gen(&dataset_->db());
  auto result = Materialized(
      gen.Generate(*schema_, SeedTids{}, *MaxTuplesPerRelation(3)));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->TotalTuples(), 0u);
}

TEST_F(PaperExampleTest, DeterministicAcrossRuns) {
  ResultDatabaseGenerator gen(&dataset_->db());
  auto a = Materialized(
      gen.Generate(*schema_, seeds_, *MaxTuplesPerRelation(3)));
  auto b = Materialized(
      gen.Generate(*schema_, seeds_, *MaxTuplesPerRelation(3)));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->DescribeSchema(), b->DescribeSchema());
  EXPECT_EQ(Column(*a, "GENRE", "genre"), Column(*b, "GENRE", "genre"));
}

}  // namespace
}  // namespace precis
