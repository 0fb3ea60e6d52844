#include <gtest/gtest.h>

#include <memory>

#include "datagen/movies_dataset.h"
#include "graph/weight_profile.h"
#include "materialized.h"
#include "precis/engine.h"

namespace precis {
namespace {

// --- ProfileRegistry ---

TEST(ProfileRegistryTest, RegisterAndApply) {
  ProfileRegistry registry;
  WeightProfile reviewer("reviewer");
  reviewer.SetJoin("MOVIE", "GENRE", 0.4);
  ASSERT_TRUE(registry.Register(std::move(reviewer)).ok());
  EXPECT_EQ(registry.size(), 1u);

  auto g = BuildMoviesGraph();
  ASSERT_TRUE(g.ok());
  ASSERT_TRUE(registry.Apply("reviewer", &*g).ok());
  EXPECT_DOUBLE_EQ(*g->JoinWeight("MOVIE", "GENRE"), 0.4);
}

TEST(ProfileRegistryTest, UnnamedProfileRejected) {
  ProfileRegistry registry;
  EXPECT_TRUE(registry.Register(WeightProfile()).IsInvalidArgument());
}

TEST(ProfileRegistryTest, UnknownProfileNotFound) {
  ProfileRegistry registry;
  auto g = BuildMoviesGraph();
  EXPECT_TRUE(registry.Get("nope").status().IsNotFound());
  EXPECT_TRUE(registry.Apply("nope", &*g).IsNotFound());
}

TEST(ProfileRegistryTest, ReRegisterReplaces) {
  ProfileRegistry registry;
  WeightProfile a("fan");
  a.SetJoin("MOVIE", "GENRE", 0.2);
  WeightProfile b("fan");
  b.SetJoin("MOVIE", "GENRE", 0.7);
  ASSERT_TRUE(registry.Register(std::move(a)).ok());
  ASSERT_TRUE(registry.Register(std::move(b)).ok());
  EXPECT_EQ(registry.size(), 1u);
  auto g = BuildMoviesGraph();
  ASSERT_TRUE(registry.Apply("fan", &*g).ok());
  EXPECT_DOUBLE_EQ(*g->JoinWeight("MOVIE", "GENRE"), 0.7);
}

TEST(ProfileRegistryTest, NamesSorted) {
  ProfileRegistry registry;
  ASSERT_TRUE(registry.Register(WeightProfile("zeta")).ok());
  ASSERT_TRUE(registry.Register(WeightProfile("alpha")).ok());
  EXPECT_EQ(registry.Names(), (std::vector<std::string>{"alpha", "zeta"}));
}

// --- Engine schema cache ---

class SchemaCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MoviesConfig config;
    config.num_movies = 30;
    auto ds = MoviesDataset::Create(config);
    ASSERT_TRUE(ds.ok());
    dataset_ = std::make_unique<MoviesDataset>(std::move(*ds));
    auto engine = PrecisEngine::Create(&dataset_->db(), &dataset_->graph());
    ASSERT_TRUE(engine.ok());
    engine_ = std::make_unique<PrecisEngine>(std::move(*engine));
  }

  std::unique_ptr<MoviesDataset> dataset_;
  std::unique_ptr<PrecisEngine> engine_;
};

TEST_F(SchemaCacheTest, DisabledByDefault) {
  ASSERT_TRUE(engine_
                  ->Answer(PrecisQuery{{"Woody Allen"}}, *MinPathWeight(0.9),
                           *MaxTuplesPerRelation(3))
                  .ok());
  EXPECT_EQ(engine_->schema_cache_stats().hits, 0u);
  EXPECT_EQ(engine_->schema_cache_stats().misses, 0u);
}

TEST_F(SchemaCacheTest, ThirdIdenticalQueryHits) {
  engine_->set_caches_enabled(true);
  auto d = MinPathWeight(0.9);
  auto c = MaxTuplesPerRelation(3);
  // The first sight is turned away at the door; the second stores.
  ASSERT_TRUE(engine_->Answer(PrecisQuery{{"Woody Allen"}}, *d, *c).ok());
  auto a = engine_->Answer(PrecisQuery{{"Woody Allen"}}, *d, *c);
  auto b = engine_->Answer(PrecisQuery{{"Woody Allen"}}, *d, *c);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(engine_->schema_cache_stats().misses, 2u);
  EXPECT_EQ(engine_->schema_cache_stats().hits, 1u);
  EXPECT_EQ(engine_->schema_cache_stats().rejected, 1u);
  EXPECT_EQ(Materialized(a->database).DescribeSchema(),
            Materialized(b->database).DescribeSchema());
}

TEST_F(SchemaCacheTest, DifferentTokensSameRelationsShareEntry) {
  engine_->set_caches_enabled(true);
  auto d = MinPathWeight(0.9);
  auto c = MaxTuplesPerRelation(3);
  // Two different director names: both live only in DIRECTOR (and
  // possibly ACTOR for Woody) — use two movie titles for a clean case.
  // The first title is asked twice, so its schema is stored.
  ASSERT_TRUE(
      engine_->Answer(PrecisQuery{{"Match Point"}}, *d, *c).ok());
  ASSERT_TRUE(
      engine_->Answer(PrecisQuery{{"Match Point"}}, *d, *c).ok());
  ASSERT_TRUE(
      engine_->Answer(PrecisQuery{{"Anything Else"}}, *d, *c).ok());
  EXPECT_EQ(engine_->schema_cache_stats().misses, 2u);
  EXPECT_EQ(engine_->schema_cache_stats().hits, 1u);
}

TEST_F(SchemaCacheTest, DifferentConstraintsMiss) {
  engine_->set_caches_enabled(true);
  auto c = MaxTuplesPerRelation(3);
  ASSERT_TRUE(engine_
                  ->Answer(PrecisQuery{{"Match Point"}}, *MinPathWeight(0.9),
                           *c)
                  .ok());
  ASSERT_TRUE(engine_
                  ->Answer(PrecisQuery{{"Match Point"}}, *MinPathWeight(0.5),
                           *c)
                  .ok());
  EXPECT_EQ(engine_->schema_cache_stats().misses, 2u);
  EXPECT_EQ(engine_->schema_cache_stats().hits, 0u);
}

TEST_F(SchemaCacheTest, CachedAnswerMatchesUncached) {
  auto d = MinPathWeight(0.8);
  auto c = MaxTuplesPerRelation(5);
  auto cold = engine_->Answer(PrecisQuery{{"Woody Allen"}}, *d, *c);
  engine_->set_caches_enabled(true);
  // Two calls store the schema; the third reads it from the cache.
  ASSERT_TRUE(engine_->Answer(PrecisQuery{{"Woody Allen"}}, *d, *c).ok());
  ASSERT_TRUE(engine_->Answer(PrecisQuery{{"Woody Allen"}}, *d, *c).ok());
  auto warm = engine_->Answer(PrecisQuery{{"Woody Allen"}}, *d, *c);
  EXPECT_EQ(engine_->schema_cache_stats().hits, 1u);
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(cold->schema.ToString(), warm->schema.ToString());
  EXPECT_EQ(Materialized(cold->database).DescribeSchema(),
            Materialized(warm->database).DescribeSchema());
}

TEST_F(SchemaCacheTest, ClearResetsEntriesButKeepsCounters) {
  engine_->set_caches_enabled(true);
  auto d = MinPathWeight(0.9);
  auto c = MaxTuplesPerRelation(3);
  ASSERT_TRUE(engine_->Answer(PrecisQuery{{"Match Point"}}, *d, *c).ok());
  ASSERT_TRUE(engine_->Answer(PrecisQuery{{"Match Point"}}, *d, *c).ok());
  EXPECT_EQ(engine_->schema_cache_stats().entries, 1u);
  engine_->set_caches_enabled(false);  // switching off empties the caches
  engine_->set_caches_enabled(true);
  ASSERT_TRUE(engine_->Answer(PrecisQuery{{"Match Point"}}, *d, *c).ok());
  EXPECT_EQ(engine_->schema_cache_stats().misses, 3u);
  // The doorkeeper was emptied too: the query is a first sight again.
  EXPECT_EQ(engine_->schema_cache_stats().entries, 0u);
}

}  // namespace
}  // namespace precis
