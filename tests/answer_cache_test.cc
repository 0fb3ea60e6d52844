// The full-answer cache (DESIGN.md §10, level 3): hits share one immutable
// answer, epochs make every mutation invalidate, partial answers are never
// cached, and the byte budget evicts. Every level stores a key on its
// second sight, so a query's third identical call is its first hit.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/execution_context.h"
#include "datagen/movies_dataset.h"
#include "precis/engine.h"
#include "precis/json_export.h"

namespace precis {
namespace {

class AnswerCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MoviesConfig config;
    config.num_movies = 200;
    auto ds = MoviesDataset::Create(config);
    ASSERT_TRUE(ds.ok());
    dataset_ = std::make_unique<MoviesDataset>(std::move(*ds));
    auto engine = PrecisEngine::Create(&dataset_->db(), &dataset_->graph());
    ASSERT_TRUE(engine.ok());
    engine_ = std::make_unique<PrecisEngine>(std::move(*engine));
  }

  /// AnswerShared under the fixture's default constraints.
  std::shared_ptr<const PrecisAnswer> Shared(const std::string& token,
                                             ExecutionContext* ctx = nullptr) {
    auto d = MinPathWeight(0.9);
    auto c = MaxTuplesPerRelation(5);
    auto answer = engine_->AnswerShared(PrecisQuery{{token}}, *d, *c,
                                        DbGenOptions(), ctx);
    EXPECT_TRUE(answer.ok()) << answer.status().ToString();
    return answer.ok() ? *answer : nullptr;
  }

  /// A fresh, uncached build of the same query for equivalence checks.
  std::string FreshJson(const std::string& token) {
    auto d = MinPathWeight(0.9);
    auto c = MaxTuplesPerRelation(5);
    auto answer = engine_->Answer(PrecisQuery{{token}}, *d, *c);
    EXPECT_TRUE(answer.ok()) << answer.status().ToString();
    return answer.ok() ? AnswerToJson(*answer) : std::string();
  }

  /// Inserts one GENRE tuple joining an existing movie (bumps the database
  /// mutation epoch; FKs stay valid).
  void InsertGenre(int64_t n) {
    auto movie = dataset_->db().GetRelation("MOVIE");
    ASSERT_TRUE(movie.ok());
    ASSERT_GT((*movie)->num_tuples(), 0u);
    int64_t mid = (*movie)->tuple(0)[0].AsInt64();
    auto genre = dataset_->db().GetRelation("GENRE");
    ASSERT_TRUE(genre.ok());
    ASSERT_TRUE((*genre)->Insert({int64_t{900000000} + n, mid, "Testwave"})
                    .ok());
  }

  /// AnswerSharedRendered under the fixture's default constraints.
  RenderedAnswer Rendered(const std::string& token,
                          ExecutionContext* ctx = nullptr) {
    auto d = MinPathWeight(0.9);
    auto c = MaxTuplesPerRelation(5);
    auto rendered = engine_->AnswerSharedRendered(PrecisQuery{{token}}, *d, *c,
                                                  DbGenOptions(), ctx);
    EXPECT_TRUE(rendered.ok()) << rendered.status().ToString();
    return rendered.ok() ? *rendered : RenderedAnswer{};
  }

  std::unique_ptr<MoviesDataset> dataset_;
  std::unique_ptr<PrecisEngine> engine_;
};

TEST_F(AnswerCacheTest, HitReturnsTheSameSharedAnswer) {
  engine_->set_caches_enabled(true);
  ASSERT_NE(Shared("Woody Allen"), nullptr);  // first sight: turned away
  auto first = Shared("Woody Allen");         // second sight: stored
  auto second = Shared("Woody Allen");
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first.get(), second.get());  // the very same stored object
  LruCacheStats stats = engine_->answer_cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.rejected, 1u);
  // And the cached answer is exactly what an uncached build produces.
  EXPECT_EQ(AnswerToJson(*first), FreshJson("Woody Allen"));
}

TEST_F(AnswerCacheTest, DisabledCacheBuildsFreshAnswersWithoutCounting) {
  auto first = Shared("Woody Allen");
  auto second = Shared("Woody Allen");
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  EXPECT_NE(first.get(), second.get());
  LruCacheStats stats = engine_->answer_cache_stats();
  EXPECT_EQ(stats.hits + stats.misses, 0u);  // full bypass, not misses
  EXPECT_EQ(stats.inserts, 0u);              // and Put is never called
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(AnswerToJson(*first), AnswerToJson(*second));
}

TEST_F(AnswerCacheTest, InsertInvalidatesCachedAnswers) {
  engine_->set_caches_enabled(true);
  ASSERT_NE(Shared("Comedy"), nullptr);  // first sight: turned away
  auto warm = Shared("Comedy");
  ASSERT_NE(warm, nullptr);
  ASSERT_EQ(Shared("Comedy").get(), warm.get());  // held
  InsertGenre(1);
  // The database epoch moved: the old entry is unreachable, the rebuild
  // agrees with a from-scratch uncached answer.
  auto first = Shared("Comedy");  // the new key's first sight
  ASSERT_NE(first, nullptr);
  EXPECT_NE(warm.get(), first.get());
  auto after = Shared("Comedy");
  ASSERT_NE(after, nullptr);
  EXPECT_NE(warm.get(), after.get());
  EXPECT_EQ(AnswerToJson(*after), FreshJson("Comedy"));
  // The post-insert answer is itself cached under the new epoch.
  EXPECT_EQ(Shared("Comedy").get(), after.get());
}

TEST_F(AnswerCacheTest, EdgeWeightChangeInvalidatesCachedAnswers) {
  engine_->set_caches_enabled(true);
  ASSERT_NE(Shared("Woody Allen"), nullptr);  // first sight: turned away
  auto warm = Shared("Woody Allen");
  ASSERT_NE(warm, nullptr);
  ASSERT_EQ(Shared("Woody Allen").get(), warm.get());  // held
  ASSERT_TRUE(dataset_->graph().SetJoinWeight("MOVIE", "GENRE", 0.05).ok());
  auto after = Shared("Woody Allen");
  ASSERT_NE(after, nullptr);
  EXPECT_NE(warm.get(), after.get());  // weight epoch moved
  EXPECT_EQ(AnswerToJson(*after), FreshJson("Woody Allen"));
}

TEST_F(AnswerCacheTest, PartialAnswersAreNeverCached) {
  engine_->set_caches_enabled(true);
  // Twice: a second sight would be stored if the first had reached Put.
  for (int i = 0; i < 2; ++i) {
    ExecutionContext ctx;
    ctx.SetDeadlineAfter(1e-9);  // expired before the pipeline starts
    auto partial = Shared("Woody Allen", &ctx);
    ASSERT_NE(partial, nullptr);
    EXPECT_TRUE(partial->report.partial());
  }
  // The deadline-stopped builds never reached the cache...
  EXPECT_EQ(engine_->answer_cache_stats().inserts, 0u);
  EXPECT_EQ(engine_->answer_cache_stats().rejected, 0u);
  // ...so an unconstrained caller gets a complete answer, not the stub.
  auto complete = Shared("Woody Allen");
  ASSERT_NE(complete, nullptr);
  EXPECT_FALSE(complete->report.partial());
  EXPECT_EQ(AnswerToJson(*complete), FreshJson("Woody Allen"));
}

TEST_F(AnswerCacheTest, TinyCapacityEvictsInsteadOfGrowing) {
  engine_->set_caches_enabled(true);
  // A budget far below one answer's charge: every insert evicts itself.
  engine_->set_answer_cache_capacity(64);
  ASSERT_NE(Shared("Woody Allen"), nullptr);  // first sight: turned away
  ASSERT_NE(Shared("Woody Allen"), nullptr);
  ASSERT_NE(Shared("Woody Allen"), nullptr);
  LruCacheStats stats = engine_->answer_cache_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_GE(stats.evictions, 2u);
  EXPECT_EQ(stats.entries, 0u);
}

TEST_F(AnswerCacheTest, TraceRunsBypassTheCache) {
  engine_->set_caches_enabled(true);
  auto d = MinPathWeight(0.9);
  auto c = MaxTuplesPerRelation(5);
  DbGenOptions options;
  options.trace_sql = true;
  auto traced =
      engine_->AnswerShared(PrecisQuery{{"Woody Allen"}}, *d, *c, options);
  ASSERT_TRUE(traced.ok());
  EXPECT_FALSE((*traced)->report.sql_trace.empty());
  // Bypassed entirely: no lookup, no insert.
  LruCacheStats stats = engine_->answer_cache_stats();
  EXPECT_EQ(stats.hits + stats.misses + stats.inserts, 0u);
  // A second traced run re-executes and carries its own trace.
  auto again =
      engine_->AnswerShared(PrecisQuery{{"Woody Allen"}}, *d, *c, options);
  ASSERT_TRUE(again.ok());
  EXPECT_NE((*traced).get(), (*again).get());
  EXPECT_FALSE((*again)->report.sql_trace.empty());
  // Neither run reached Put, so neither was seen by the doorkeeper.
  stats = engine_->answer_cache_stats();
  EXPECT_EQ(stats.hits + stats.misses + stats.inserts, 0u);
  EXPECT_EQ(stats.rejected, 0u);
}

TEST_F(AnswerCacheTest, TokenCacheCountsPhraseLookups) {
  engine_->set_caches_enabled(true);
  auto d = MinPathWeight(0.9);
  auto c = MaxTuplesPerRelation(5);
  // "Woody Allen" is a two-word phrase: the token cache memoizes the
  // posting-list intersection + phrase verification, from its second sight.
  ASSERT_TRUE(engine_->Answer(PrecisQuery{{"Woody Allen"}}, *d, *c).ok());
  ASSERT_TRUE(engine_->Answer(PrecisQuery{{"Woody Allen"}}, *d, *c).ok());
  ASSERT_TRUE(engine_->Answer(PrecisQuery{{"Woody Allen"}}, *d, *c).ok());
  LruCacheStats stats = engine_->token_cache_stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 1u);
  // Single-word tokens skip the cache entirely.
  ASSERT_TRUE(engine_->Answer(PrecisQuery{{"Comedy"}}, *d, *c).ok());
  stats = engine_->token_cache_stats();
  EXPECT_EQ(stats.hits + stats.misses, 3u);
}

TEST_F(AnswerCacheTest, CacheLevelsComposeOnARepeatedWorkload) {
  engine_->set_caches_enabled(true);
  // Each distinct query's first sight is turned away at the door.
  for (const char* token : {"Woody Allen", "Comedy", "Drama"}) {
    ASSERT_NE(Shared(token), nullptr);
  }
  const std::vector<std::string> tokens = {"Woody Allen", "Comedy",
                                           "Woody Allen", "Drama",
                                           "Woody Allen", "Comedy"};
  for (const std::string& token : tokens) ASSERT_NE(Shared(token), nullptr);
  LruCacheStats answer = engine_->answer_cache_stats();
  EXPECT_EQ(answer.hits + answer.misses, tokens.size() + 3);
  EXPECT_EQ(answer.misses, 6u);  // three distinct queries, each seen twice
  EXPECT_EQ(answer.hits, 3u);    // three repeats
  // Schema and token lookups only run on answer-cache misses.
  EXPECT_LE(engine_->schema_cache_stats().hits +
                engine_->schema_cache_stats().misses,
            6u);
}

// --- Level 4, the serialization memo (DESIGN.md §16): the rendered JSON
// body rides the same fingerprint as the answer cache.

TEST_F(AnswerCacheTest, BodyCacheServesByteIdenticalMemoizedRender) {
  engine_->set_caches_enabled(true);
  auto unseen = Rendered("Woody Allen");  // first sight: turned away
  ASSERT_NE(unseen.body_json, nullptr);
  EXPECT_EQ(*unseen.body_json, FreshJson("Woody Allen"));
  auto first = Rendered("Woody Allen");
  ASSERT_NE(first.answer, nullptr);
  ASSERT_NE(first.body_json, nullptr);
  // The memoized render is exactly the uncached serialization.
  EXPECT_EQ(*first.body_json, FreshJson("Woody Allen"));
  auto second = Rendered("Woody Allen");
  ASSERT_NE(second.body_json, nullptr);
  // A hit shares the very same stored string — zero re-serialization.
  EXPECT_EQ(first.body_json.get(), second.body_json.get());
  EXPECT_EQ(first.answer.get(), second.answer.get());
  LruCacheStats stats = engine_->body_cache_stats();
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST_F(AnswerCacheTest, InsertInvalidatesMemoizedBodies) {
  engine_->set_caches_enabled(true);
  ASSERT_NE(Rendered("Comedy").body_json, nullptr);  // first sight
  auto warm = Rendered("Comedy");
  ASSERT_NE(warm.body_json, nullptr);
  ASSERT_EQ(Rendered("Comedy").body_json.get(), warm.body_json.get());
  InsertGenre(2);
  // The database epoch moved: the rebuilt body is a new string whose
  // bytes agree with a from-scratch render of the new state.
  auto first = Rendered("Comedy");  // the new key's first sight
  ASSERT_NE(first.body_json, nullptr);
  EXPECT_NE(warm.body_json.get(), first.body_json.get());
  auto after = Rendered("Comedy");
  ASSERT_NE(after.body_json, nullptr);
  EXPECT_NE(warm.body_json.get(), after.body_json.get());
  EXPECT_EQ(*after.body_json, FreshJson("Comedy"));
  // And the post-insert render is itself memoized under the new epoch.
  EXPECT_EQ(Rendered("Comedy").body_json.get(), after.body_json.get());
}

TEST_F(AnswerCacheTest, PartialAnswersNeverEnterTheBodyCache) {
  engine_->set_caches_enabled(true);
  // Twice: a second sight would be stored if the first had reached Put.
  for (int i = 0; i < 2; ++i) {
    ExecutionContext ctx;
    ctx.SetDeadlineAfter(1e-9);  // expired before the pipeline starts
    auto partial = Rendered("Woody Allen", &ctx);
    ASSERT_NE(partial.answer, nullptr);
    ASSERT_NE(partial.body_json, nullptr);
    EXPECT_TRUE(partial.answer->report.partial());
    // The body always reflects the answer actually returned...
    EXPECT_EQ(*partial.body_json, AnswerToJson(*partial.answer));
  }
  // ...but the deadline-stopped renders never reached the body cache.
  EXPECT_EQ(engine_->body_cache_stats().inserts, 0u);
  EXPECT_EQ(engine_->body_cache_stats().rejected, 0u);
  auto complete = Rendered("Woody Allen");
  ASSERT_NE(complete.body_json, nullptr);
  EXPECT_FALSE(complete.answer->report.partial());
  EXPECT_EQ(*complete.body_json, FreshJson("Woody Allen"));
}

TEST_F(AnswerCacheTest, TraceRunsBypassTheBodyCache) {
  engine_->set_caches_enabled(true);
  auto d = MinPathWeight(0.9);
  auto c = MaxTuplesPerRelation(5);
  DbGenOptions options;
  options.trace_sql = true;
  for (int i = 0; i < 2; ++i) {
    auto traced = engine_->AnswerSharedRendered(PrecisQuery{{"Woody Allen"}},
                                                *d, *c, options);
    ASSERT_TRUE(traced.ok());
    ASSERT_NE(traced->body_json, nullptr);
    EXPECT_EQ(*traced->body_json, AnswerToJson(*traced->answer));
  }
  LruCacheStats stats = engine_->body_cache_stats();
  EXPECT_EQ(stats.hits + stats.misses + stats.inserts, 0u);
  EXPECT_EQ(stats.rejected, 0u);
}

TEST_F(AnswerCacheTest, DisabledBodyCacheStillRendersOnRequest) {
  for (int i = 0; i < 2; ++i) {
    auto rendered = Rendered("Woody Allen");
    ASSERT_NE(rendered.body_json, nullptr);
    EXPECT_EQ(*rendered.body_json, FreshJson("Woody Allen"));
  }
  LruCacheStats stats = engine_->body_cache_stats();
  EXPECT_EQ(stats.hits + stats.misses + stats.inserts, 0u);
  EXPECT_EQ(stats.rejected, 0u);
}

TEST_F(AnswerCacheTest, NearbyMinPathWeightsKeepSeparateEntries) {
  // The DIRECTOR -> bdate and DIRECTOR -> blocation paths weigh exactly
  // 0.9: a floor of 0.9 keeps them and one of 0.9000001 drops them. Both
  // weights are part of the schema and answer keys, so an answer cached at
  // 0.9 must never be served for 0.9000001.
  const double kNearby = 0.9000001;
  auto c = MaxTuplesPerRelation(5);
  auto fresh = engine_->Answer(PrecisQuery{{"Woody Allen"}},
                               *MinPathWeight(kNearby), *c);
  ASSERT_TRUE(fresh.ok());
  engine_->set_caches_enabled(true);
  for (int i = 0; i < 3; ++i) ASSERT_NE(Shared("Woody Allen"), nullptr);
  ASSERT_EQ(engine_->answer_cache_stats().hits, 1u);  // 0.9 is held

  auto nearby = engine_->AnswerShared(PrecisQuery{{"Woody Allen"}},
                                      *MinPathWeight(kNearby), *c);
  ASSERT_TRUE(nearby.ok());
  EXPECT_EQ(engine_->answer_cache_stats().hits, 1u);
  EXPECT_EQ(AnswerToJson(**nearby), AnswerToJson(*fresh));
  EXPECT_EQ((*nearby)->schema.ToString(), fresh->schema.ToString());
  // The two floors really do answer differently.
  EXPECT_NE(AnswerToJson(**nearby), FreshJson("Woody Allen"));
}

}  // namespace
}  // namespace precis
