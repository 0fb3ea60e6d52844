#include <gtest/gtest.h>

#include "datagen/bibliography_dataset.h"
#include "datagen/movies_dataset.h"
#include "graph/path.h"
#include "graph/schema_graph.h"
#include "graph/weight_profile.h"
#include "materialized.h"
#include "precis/engine.h"

namespace precis {
namespace {

/// Two relations A(id, x) and B(id, y) with both join directions.
Result<SchemaGraph> TinyGraph() {
  RelationSchema a("A", {{"id", DataType::kInt64}, {"x", DataType::kString}});
  EXPECT_TRUE(a.SetPrimaryKey("id").ok());
  RelationSchema b("B", {{"id", DataType::kInt64}, {"y", DataType::kString}});
  EXPECT_TRUE(b.SetPrimaryKey("id").ok());
  return SchemaGraph::FromSchemas({a, b});
}

TEST(SchemaGraphTest, FromSchemasAssignsIds) {
  auto g = TinyGraph();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_relations(), 2u);
  EXPECT_EQ(*g->RelationId("A"), 0u);
  EXPECT_EQ(*g->RelationId("B"), 1u);
  EXPECT_EQ(g->relation_name(1), "B");
  EXPECT_TRUE(g->RelationId("C").status().IsNotFound());
}

TEST(SchemaGraphTest, DuplicateRelationNamesRejected) {
  RelationSchema a("A", {{"id", DataType::kInt64}});
  auto g = SchemaGraph::FromSchemas({a, a});
  EXPECT_TRUE(g.status().IsInvalidArgument());
}

TEST(SchemaGraphTest, AddProjectionEdge) {
  auto g = TinyGraph();
  ASSERT_TRUE(g->AddProjectionEdge("A", "x", 0.8).ok());
  EXPECT_EQ(g->ProjectionsOf(0).size(), 1u);
  EXPECT_DOUBLE_EQ(*g->ProjectionWeight("A", "x"), 0.8);
  EXPECT_TRUE(g->AddProjectionEdge("A", "x", 0.5).IsAlreadyExists());
  EXPECT_TRUE(g->AddProjectionEdge("A", "nope", 0.5).IsNotFound());
  EXPECT_TRUE(g->AddProjectionEdge("A", "id", 1.5).IsInvalidArgument());
  EXPECT_TRUE(g->AddProjectionEdge("A", "id", -0.1).IsInvalidArgument());
}

TEST(SchemaGraphTest, AddAllProjectionEdges) {
  auto g = TinyGraph();
  ASSERT_TRUE(g->AddAllProjectionEdges("A", 0.5).ok());
  EXPECT_EQ(g->ProjectionsOf(0).size(), 2u);
}

TEST(SchemaGraphTest, AddJoinEdgeBothDirectionsDistinctWeights) {
  auto g = TinyGraph();
  ASSERT_TRUE(g->AddJoinEdge("A", "id", "B", "id", 1.0).ok());
  ASSERT_TRUE(g->AddJoinEdge("B", "id", "A", "id", 0.4).ok());
  EXPECT_DOUBLE_EQ(*g->JoinWeight("A", "B"), 1.0);
  EXPECT_DOUBLE_EQ(*g->JoinWeight("B", "A"), 0.4);
  EXPECT_EQ(g->JoinsFrom(0).size(), 1u);
  EXPECT_EQ(g->JoinsTo(0).size(), 1u);
}

TEST(SchemaGraphTest, AtMostOneEdgePerDirectedPair) {
  auto g = TinyGraph();
  ASSERT_TRUE(g->AddJoinEdge("A", "id", "B", "id", 1.0).ok());
  EXPECT_TRUE(g->AddJoinEdge("A", "id", "B", "id", 0.5).IsAlreadyExists());
}

TEST(SchemaGraphTest, JoinTypeMismatchRejected) {
  auto g = TinyGraph();
  EXPECT_TRUE(g->AddJoinEdge("A", "x", "B", "id", 1.0).IsInvalidArgument());
}

TEST(SchemaGraphTest, AddJoinEdgePairSkipsNegativeWeight) {
  auto g = TinyGraph();
  ASSERT_TRUE(g->AddJoinEdgePair("A", "B", "id", 0.9, -1.0).ok());
  EXPECT_TRUE(g->JoinWeight("A", "B").ok());
  EXPECT_TRUE(g->JoinWeight("B", "A").status().IsNotFound());
}

TEST(SchemaGraphTest, SetWeights) {
  auto g = TinyGraph();
  ASSERT_TRUE(g->AddProjectionEdge("A", "x", 0.8).ok());
  ASSERT_TRUE(g->AddJoinEdge("A", "id", "B", "id", 1.0).ok());
  ASSERT_TRUE(g->SetProjectionWeight("A", "x", 0.3).ok());
  ASSERT_TRUE(g->SetJoinWeight("A", "B", 0.2).ok());
  EXPECT_DOUBLE_EQ(*g->ProjectionWeight("A", "x"), 0.3);
  EXPECT_DOUBLE_EQ(*g->JoinWeight("A", "B"), 0.2);
  EXPECT_TRUE(g->SetJoinWeight("B", "A", 0.2).IsNotFound());
  EXPECT_TRUE(g->SetProjectionWeight("A", "x", 2.0).IsInvalidArgument());
}

TEST(SchemaGraphTest, ValidateAcceptsWellFormedGraph) {
  auto g = BuildMoviesGraph();
  ASSERT_TRUE(g.ok());
  EXPECT_TRUE(g->Validate().ok());
}

TEST(SchemaGraphTest, ToStringMentionsEdges) {
  auto g = TinyGraph();
  ASSERT_TRUE(g->AddProjectionEdge("A", "x", 0.8).ok());
  ASSERT_TRUE(g->AddJoinEdge("A", "id", "B", "id", 1.0).ok());
  std::string s = g->ToString();
  EXPECT_NE(s.find("pi x"), std::string::npos);
  EXPECT_NE(s.find("join -> B"), std::string::npos);
}

// --- Paths ---

class PathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto g = BuildMoviesGraph();
    ASSERT_TRUE(g.ok());
    graph_ = std::make_unique<SchemaGraph>(std::move(*g));
    director_ = *graph_->RelationId("DIRECTOR");
    movie_ = *graph_->RelationId("MOVIE");
    genre_ = *graph_->RelationId("GENRE");
  }

  const JoinEdge* FindJoin(const std::string& from, const std::string& to) {
    RelationNodeId f = *graph_->RelationId(from);
    RelationNodeId t = *graph_->RelationId(to);
    for (const JoinEdge* e : graph_->JoinsFrom(f)) {
      if (e->to == t) return e;
    }
    return nullptr;
  }

  const ProjectionEdge* FindProjection(const std::string& rel,
                                       const std::string& attr) {
    RelationNodeId r = *graph_->RelationId(rel);
    auto idx = graph_->relation_schema(r).AttributeIndex(attr);
    for (const ProjectionEdge* e : graph_->ProjectionsOf(r)) {
      if (e->attribute == *idx) return e;
    }
    return nullptr;
  }

  std::unique_ptr<SchemaGraph> graph_;
  RelationNodeId director_ = 0, movie_ = 0, genre_ = 0;
};

TEST_F(PathTest, SingleProjectionPath) {
  Path p = Path::Projection(director_, FindProjection("DIRECTOR", "dname"));
  EXPECT_TRUE(p.is_projection_path());
  EXPECT_EQ(p.length(), 1u);
  EXPECT_DOUBLE_EQ(p.weight(), 1.0);
  EXPECT_EQ(p.terminal_relation(), director_);
}

TEST_F(PathTest, JoinPathExtension) {
  Path p = Path::Join(director_, FindJoin("DIRECTOR", "MOVIE"));
  EXPECT_FALSE(p.is_projection_path());
  EXPECT_EQ(p.terminal_relation(), movie_);
  Path q = p.ExtendedByJoin(FindJoin("MOVIE", "GENRE"));
  EXPECT_EQ(q.terminal_relation(), genre_);
  EXPECT_EQ(q.length(), 2u);
  EXPECT_DOUBLE_EQ(q.weight(), 1.0 * 0.9);
}

TEST_F(PathTest, WeightTransferPaperSection32Example) {
  // "the weight of the projection of attribute PHONE over THEATRE equals
  //  0.8, while its weight with respect to MOVIE is 0.7 * 1 * 0.8 = 0.56."
  EXPECT_DOUBLE_EQ(*graph_->ProjectionWeight("THEATRE", "phone"), 0.8);
  Path p = Path::Join(movie_, FindJoin("MOVIE", "PLAY"))
               .ExtendedByJoin(FindJoin("PLAY", "THEATRE"))
               .ExtendedByProjection(FindProjection("THEATRE", "phone"));
  EXPECT_NEAR(p.weight(), 0.56, 1e-12);
  EXPECT_EQ(p.length(), 3u);
}

TEST_F(PathTest, ContainsRelationDetectsCycles) {
  Path p = Path::Join(director_, FindJoin("DIRECTOR", "MOVIE"));
  EXPECT_TRUE(p.ContainsRelation(director_));
  EXPECT_TRUE(p.ContainsRelation(movie_));
  EXPECT_FALSE(p.ContainsRelation(genre_));
}

TEST_F(PathTest, PathPrecedesOrdersByWeightThenLength) {
  Path heavy = Path::Projection(director_, FindProjection("DIRECTOR", "dname"));
  Path light =
      Path::Projection(director_, FindProjection("DIRECTOR", "did"));
  EXPECT_TRUE(PathPrecedes(heavy, light));
  EXPECT_FALSE(PathPrecedes(light, heavy));

  // Same weight 1.0*1.0 vs 1.0, shorter first.
  Path longer = Path::Join(director_, FindJoin("DIRECTOR", "MOVIE"))
                    .ExtendedByProjection(FindProjection("MOVIE", "title"));
  EXPECT_DOUBLE_EQ(longer.weight(), heavy.weight());
  EXPECT_TRUE(PathPrecedes(heavy, longer));
}

TEST_F(PathTest, ToStringRendersChain) {
  Path p = Path::Join(director_, FindJoin("DIRECTOR", "MOVIE"))
               .ExtendedByProjection(FindProjection("MOVIE", "title"));
  std::string s = p.ToString(*graph_);
  EXPECT_NE(s.find("DIRECTOR"), std::string::npos);
  EXPECT_NE(s.find("MOVIE"), std::string::npos);
  EXPECT_NE(s.find(". title"), std::string::npos);
}

// --- Weight profiles ---

TEST(WeightProfileTest, ApplyOverridesMentionedEdgesOnly) {
  auto g = BuildMoviesGraph();
  ASSERT_TRUE(g.ok());
  WeightProfile profile("reviewer");
  profile.SetProjection("THEATRE", "phone", 0.2).SetJoin("MOVIE", "GENRE",
                                                         0.5);
  ASSERT_TRUE(profile.ApplyTo(&*g).ok());
  EXPECT_DOUBLE_EQ(*g->ProjectionWeight("THEATRE", "phone"), 0.2);
  EXPECT_DOUBLE_EQ(*g->JoinWeight("MOVIE", "GENRE"), 0.5);
  // Untouched edge keeps its default.
  EXPECT_DOUBLE_EQ(*g->JoinWeight("GENRE", "MOVIE"), 1.0);
  EXPECT_EQ(profile.num_entries(), 2u);
  EXPECT_EQ(profile.name(), "reviewer");
}

TEST(WeightProfileTest, ApplyFailsOnUnknownEdge) {
  auto g = BuildMoviesGraph();
  WeightProfile profile;
  profile.SetJoin("MOVIE", "THEATRE", 0.5);  // no direct edge
  EXPECT_TRUE(profile.ApplyTo(&*g).IsNotFound());
}

TEST(WeightProfileTest, RandomizeWeightsStaysInRangeAndIsSeeded) {
  auto g1 = BuildMoviesGraph();
  auto g2 = BuildMoviesGraph();
  Rng rng1(7), rng2(7);
  ASSERT_TRUE(RandomizeWeights(&*g1, &rng1, 0.2, 0.9).ok());
  ASSERT_TRUE(RandomizeWeights(&*g2, &rng2, 0.2, 0.9).ok());
  for (const JoinEdge& e : g1->join_edges()) {
    EXPECT_GE(e.weight, 0.2);
    EXPECT_LE(e.weight, 0.9);
  }
  // Determinism: both graphs got identical weights.
  auto it2 = g2->join_edges().begin();
  for (const JoinEdge& e : g1->join_edges()) {
    EXPECT_DOUBLE_EQ(e.weight, it2->weight);
    ++it2;
  }
}

TEST(WeightProfileTest, RandomizeWeightsRejectsBadRange) {
  auto g = BuildMoviesGraph();
  Rng rng(1);
  EXPECT_TRUE(RandomizeWeights(&*g, &rng, -0.1, 0.5).IsInvalidArgument());
  EXPECT_TRUE(RandomizeWeights(&*g, &rng, 0.9, 0.1).IsInvalidArgument());
}

// --- DeriveGraphFromForeignKeys ---

TEST(DeriveGraphTest, BootstrapsEdgesFromConstraints) {
  MoviesConfig config;
  config.num_movies = 5;
  auto ds = MoviesDataset::Create(config);
  ASSERT_TRUE(ds.ok());
  auto g = DeriveGraphFromForeignKeys(ds->db());
  ASSERT_TRUE(g.ok()) << g.status();
  // FK MOVIE.did -> DIRECTOR.did yields both directions.
  EXPECT_DOUBLE_EQ(*g->JoinWeight("MOVIE", "DIRECTOR"), 1.0);
  EXPECT_DOUBLE_EQ(*g->JoinWeight("DIRECTOR", "MOVIE"), 0.8);
  // Non-key attributes project at the default weight; keys stay low.
  EXPECT_DOUBLE_EQ(*g->ProjectionWeight("MOVIE", "title"), 0.8);
  EXPECT_DOUBLE_EQ(*g->ProjectionWeight("MOVIE", "mid"), 0.1);
  EXPECT_DOUBLE_EQ(*g->ProjectionWeight("MOVIE", "did"), 0.1);
}

TEST(DeriveGraphTest, MultipleForeignKeysOnSamePairCollapse) {
  // The bibliography's CITES has two FKs to PAPER; deriving must not fail
  // on the duplicate directed pair.
  BibliographyConfig config;
  config.num_papers = 20;
  auto ds = BibliographyDataset::Create(config);
  ASSERT_TRUE(ds.ok());
  auto g = DeriveGraphFromForeignKeys(ds->db());
  ASSERT_TRUE(g.ok()) << g.status();
  EXPECT_TRUE(g->JoinWeight("CITES", "PAPER").ok());
  EXPECT_TRUE(g->JoinWeight("PAPER", "CITES").ok());
}

TEST(DeriveGraphTest, DerivedGraphAnswersQueries) {
  MoviesConfig config;
  config.num_movies = 20;
  auto ds = MoviesDataset::Create(config);
  ASSERT_TRUE(ds.ok());
  auto g = DeriveGraphFromForeignKeys(ds->db());
  ASSERT_TRUE(g.ok());
  auto engine = PrecisEngine::Create(&ds->db(), &*g);
  ASSERT_TRUE(engine.ok());
  // Parent->child (0.8) times attribute projection (0.8) = 0.64, so a 0.6
  // threshold reaches the movies of the matched director.
  auto answer = engine->Answer(PrecisQuery{{"Woody Allen"}},
                               *MinPathWeight(0.6), *MaxTuplesPerRelation(3));
  ASSERT_TRUE(answer.ok());
  EXPECT_FALSE(answer->empty());
  EXPECT_TRUE(answer->schema.ContainsRelation("MOVIE"));
  EXPECT_TRUE(Materialized(answer->database).ValidateForeignKeys().ok());
}

TEST(DeriveGraphTest, RejectsBadWeights) {
  MoviesConfig config;
  config.num_movies = 5;
  auto ds = MoviesDataset::Create(config);
  ASSERT_TRUE(ds.ok());
  DeriveGraphOptions bad;
  bad.child_to_parent_weight = 1.5;
  EXPECT_TRUE(
      DeriveGraphFromForeignKeys(ds->db(), bad).status().IsInvalidArgument());
}

}  // namespace
}  // namespace precis
