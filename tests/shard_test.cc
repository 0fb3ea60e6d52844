// Partitions as fault domains over the one source (DESIGN.md §15, §17): the
// central contract is byte-identity — for ANY partition count, strategy,
// fault schedule, or deadline/budget stop, PrecisEngine must produce exactly
// the answer its one-partition form produces — itself checked against the
// sequential walk oracle (tests/sequential_walk.h). Plus router stability,
// the planner's skipped-partition filter, caching over the one epoch, and
// what a dead, stalled or hedged partition does to an answer.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/circuit_breaker.h"
#include "common/execution_context.h"
#include "common/fault_injection.h"
#include "common/task_pool.h"
#include "datagen/movies_dataset.h"
#include "datagen/movies_templates.h"
#include "materialized.h"
#include "precis/database_generator.h"
#include "precis/engine.h"
#include "precis/json_export.h"
#include "precis/schema_generator.h"
#include "sequential_walk.h"
#include "service/precis_service.h"
#include "shard/shard_health.h"
#include "shard/shard_router.h"
#include "shard/source_partitions.h"
#include "storage/serialization.h"
#include "text/synonyms.h"
#include "translator/translator.h"

namespace precis {
namespace {

// ---------------------------------------------------------------------------
// Router.

TEST(ShardRouterTest, StableAcrossInstances) {
  ShardRouter a(4);
  ShardRouter b(4);
  const uint64_t seed = ShardRouter::RelationSeed("MOVIE");
  for (Tid tid = 0; tid < 1000; ++tid) {
    EXPECT_EQ(a.ShardOf(seed, tid), b.ShardOf(seed, tid));
  }
  // The per-relation seed is itself stable, so placement is a pure function
  // of (relation name, tid) across processes.
  EXPECT_EQ(ShardRouter::RelationSeed("MOVIE"), seed);
  EXPECT_NE(ShardRouter::RelationSeed("ACTOR"), seed);
}

TEST(ShardRouterTest, SpreadsTuplesAcrossAllShards) {
  ShardRouter router(8);
  const uint64_t seed = ShardRouter::RelationSeed("ACTOR");
  std::vector<size_t> counts(8, 0);
  for (Tid tid = 0; tid < 4096; ++tid) ++counts[router.ShardOf(seed, tid)];
  for (size_t s = 0; s < 8; ++s) {
    // splitmix64 over sequential tids lands well inside 2x of uniform.
    EXPECT_GT(counts[s], 4096u / 16) << "shard " << s;
    EXPECT_LT(counts[s], 4096u / 4) << "shard " << s;
  }
}

// ---------------------------------------------------------------------------
// The planner's skip filter: a skipped partition's tids leave each lookup
// only after the lookup's probe or scan charge.

TEST(ShardSkipFilterTest, SkippedPartitionLeavesLookupsAfterTheirCharges) {
  // Seeds D(did) and M joined on did, with M.did indexed (index probes)
  // and unindexed (column scans into buffers that outlive each lookup).
  // Directors 1..6 are seeded; director 7's films join no seed.
  constexpr uint32_t kSkipped = 1;
  for (bool indexed : {true, false}) {
    Database db;
    RelationSchema d("D", {{"did", DataType::kInt64},
                           {"dname", DataType::kString}});
    ASSERT_TRUE(d.SetPrimaryKey("did").ok());
    ASSERT_TRUE(db.CreateRelation(std::move(d)).ok());
    RelationSchema m("M", {{"mid", DataType::kInt64},
                           {"did", DataType::kInt64},
                           {"title", DataType::kString}});
    ASSERT_TRUE(m.SetPrimaryKey("mid").ok());
    ASSERT_TRUE(db.CreateRelation(std::move(m)).ok());
    Relation* directors = *db.GetRelation("D");
    Relation* movies = *db.GetRelation("M");
    int64_t mid = 0;
    for (int64_t did = 1; did <= 7; ++did) {
      ASSERT_TRUE(directors->Insert({did, "Director"}).ok());
      for (int i = 0; i < 9; ++i, ++mid) {
        ASSERT_TRUE(movies->Insert({mid, did, "Movie"}).ok());
      }
    }
    ASSERT_TRUE(directors->CreateIndex("did").ok());
    if (indexed) {
      ASSERT_TRUE(movies->CreateIndex("did").ok());
    }
    auto graph = SchemaGraph::FromDatabase(db);
    ASSERT_TRUE(graph.ok());
    ASSERT_TRUE(graph->AddProjectionEdge("D", "dname", 1.0).ok());
    ASSERT_TRUE(graph->AddProjectionEdge("M", "mid", 1.0).ok());
    ASSERT_TRUE(graph->AddJoinEdge("D", "did", "M", "did", 1.0).ok());
    auto schema = ResultSchemaGenerator(&*graph).Generate({std::string("D")},
                                                          *MinPathWeight(0.9));
    ASSERT_TRUE(schema.ok());
    const SeedTids seeds = {{*graph->RelationId("D"), {0, 1, 2, 3, 4, 5}}};

    const SourcePartitions partitions(&db, 4);
    const ShardQueryFaultPlan healthy =
        DecideShardFaultPlan(4, /*health=*/nullptr, /*ctx=*/nullptr,
                             /*hedging=*/false);
    ShardQueryFaultPlan skip = healthy;
    skip.live[kSkipped] = 0;
    skip.skipped = {kSkipped};
    // What the skipped run must emit of M: the tuples that join a seed
    // (director 1..6) and sit on a live partition.
    std::vector<int64_t> expect;
    size_t dropped = 0;
    for (Tid tid = 0; tid < movies->num_tuples(); ++tid) {
      if (movies->ColumnValue(tid, 1).AsInt64() > 6) continue;
      if (partitions.ShardOf("M", tid) == kSkipped) {
        ++dropped;
      } else {
        expect.push_back(movies->ColumnValue(tid, 0).AsInt64());
      }
    }
    ASSERT_GT(dropped, 0u);

    for (SubsetStrategy strategy :
         {SubsetStrategy::kNaiveQ, SubsetStrategy::kRoundRobin}) {
      SCOPED_TRACE(std::string(indexed ? "indexed " : "scanned ") +
                   SubsetStrategyToString(strategy));
      DbGenOptions options;
      options.strategy = strategy;
      ExecutionContext healthy_ctx;
      ExecutionContext skip_ctx;
      ResultDatabaseGenerator gen(&db);
      auto full = gen.Generate(*schema, seeds, *UnlimitedCardinality(),
                               options, &healthy_ctx,
                               PartitionedQuery{&partitions, &healthy});
      ASSERT_TRUE(full.ok()) << full.status().ToString();
      auto live = gen.Generate(*schema, seeds, *UnlimitedCardinality(),
                               options, &skip_ctx,
                               PartitionedQuery{&partitions, &skip});
      ASSERT_TRUE(live.ok()) << live.status().ToString();

      const ResultRelation* emitted = live->relation("M");
      ASSERT_NE(emitted, nullptr);
      auto mid_at = emitted->schema.AttributeIndex("mid");
      ASSERT_TRUE(mid_at.ok());
      std::vector<int64_t> got;
      for (size_t row = 0; row < emitted->num_tuples(); ++row) {
        got.push_back(emitted->Cell(row, *mid_at).AsInt64());
      }
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, expect);
      ASSERT_NE(full->relation("M"), nullptr);
      EXPECT_EQ(full->relation("M")->num_tuples(), expect.size() + dropped);

      const AccessStats& want = healthy_ctx.stats();
      const AccessStats& charged = skip_ctx.stats();
      EXPECT_GT(want.index_probes.load() + want.sequential_scans.load(), 0u);
      EXPECT_EQ(charged.index_probes.load(), want.index_probes.load());
      EXPECT_EQ(charged.sequential_scans.load(),
                want.sequential_scans.load());
    }
  }
}

// ---------------------------------------------------------------------------
// The partition cap.

class ShardedDatabaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MoviesConfig config;
    config.num_movies = 150;
    auto ds = MoviesDataset::Create(config);
    ASSERT_TRUE(ds.ok());
    dataset_ = std::make_unique<MoviesDataset>(std::move(*ds));
  }

  std::unique_ptr<MoviesDataset> dataset_;
};

TEST_F(ShardedDatabaseTest, CreateRejectsPartitionCountsAboveTheCap) {
  // Each partition costs a breaker and a latency ring, so Create refuses
  // absurd counts before allocating any.
  const Database& db = dataset_->db();
  const SchemaGraph& graph = dataset_->graph();
  for (size_t partitions : {std::numeric_limits<size_t>::max(),
                            size_t{1} << 40, PrecisEngine::kMaxPartitions + 1}) {
    auto engine = PrecisEngine::Create(&db, &graph, partitions);
    ASSERT_FALSE(engine.ok()) << partitions;
    EXPECT_TRUE(engine.status().IsInvalidArgument())
        << engine.status().ToString();
  }
  auto at_cap = PrecisEngine::Create(&db, &graph, PrecisEngine::kMaxPartitions);
  ASSERT_TRUE(at_cap.ok()) << at_cap.status().ToString();
  EXPECT_EQ(at_cap->num_partitions(), PrecisEngine::kMaxPartitions);
}

// ---------------------------------------------------------------------------
// The determinism suite: sharded answers are byte-identical to the single
// engine under every stop/fault/strategy combination.

/// Every occurrence's tids, which the body renders only as a count.
std::string MatchTids(const PrecisAnswer& answer) {
  std::string out;
  for (const TokenMatch& match : answer.matches) {
    out += match.resolved_token + ":";
    for (const TokenOccurrence& occ : match.occurrences()) {
      out += occ.relation + "." + occ.attribute + "[";
      for (Tid tid : occ.tids) out += std::to_string(tid) + ",";
      out += "]";
    }
    out += ";";
  }
  return out;
}

struct RunDigest {
  std::string answer_json;
  std::string match_tids;
  std::string degradation;
  std::vector<std::string> executed_edges;
  std::vector<std::string> truncated;
  StopReason stop = StopReason::kNone;
  StopReason ctx_stop = StopReason::kNone;
  std::string db_bytes;
};

class ShardDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MoviesConfig config;
    config.num_movies = 120;
    auto ds = MoviesDataset::Create(config);
    ASSERT_TRUE(ds.ok());
    dataset_ = std::make_unique<MoviesDataset>(std::move(*ds));
    auto engine = PrecisEngine::Create(&dataset_->db(), &dataset_->graph());
    ASSERT_TRUE(engine.ok());
    engine_ = std::make_unique<PrecisEngine>(std::move(*engine));
    for (size_t n : {1u, 2u, 4u, 8u}) {
      auto sharded =
          PrecisEngine::Create(&dataset_->db(), &dataset_->graph(), n);
      ASSERT_TRUE(sharded.ok());
      sharded_.push_back(std::make_unique<PrecisEngine>(std::move(*sharded)));
    }
  }

  /// One configured run against either engine; `sharded == nullptr` runs
  /// the single-engine reference, which must itself match the sequential
  /// walk oracle under the identical configuration.
  RunDigest Run(const PrecisEngine* sharded,
                const std::vector<std::string>& tokens, SubsetStrategy strategy,
                FaultInjector* injector, uint64_t fault_seed, uint64_t budget,
                bool expired_deadline) {
    RunDigest digest =
        RunOne(sharded == nullptr ? kSingle : kSharded, sharded, tokens,
               strategy, injector, fault_seed, budget, expired_deadline);
    if (sharded == nullptr) {
      RunDigest oracle = RunOne(kOracle, nullptr, tokens, strategy, injector,
                                fault_seed, budget, expired_deadline);
      ExpectIdentical(oracle, digest, "single engine vs sequential walk");
    }
    return digest;
  }

  enum Mode { kOracle, kSingle, kSharded };

  RunDigest RunOne(Mode mode, const PrecisEngine* sharded,
                   const std::vector<std::string>& tokens,
                   SubsetStrategy strategy, FaultInjector* injector,
                   uint64_t fault_seed, uint64_t budget,
                   bool expired_deadline) {
    auto degree = MinPathWeight(0.8);
    auto cardinality = MaxTuplesPerRelation(4);
    DbGenOptions options;
    options.strategy = strategy;

    ExecutionContext ctx;
    if (budget > 0) ctx.SetAccessBudget(budget);
    if (expired_deadline) ctx.SetDeadlineAfter(1e-9);
    if (injector != nullptr) {
      injector->Reseed(fault_seed);  // identical fault sequence per run
      ctx.SetFaultInjector(injector);
      RetryPolicy policy;
      policy.initial_backoff_ns = 0;
      ctx.set_retry_policy(policy);
    }

    const PrecisQuery query{tokens};
    auto answer =
        mode == kSharded
            ? sharded->Answer(query, *degree, *cardinality, options, &ctx)
        : mode == kSingle
            ? engine_->Answer(query, *degree, *cardinality, options, &ctx)
            : OracleAnswer(dataset_->db(), dataset_->graph(),
                           engine_->index(), query, *degree, *cardinality,
                           options, &ctx);
    EXPECT_TRUE(answer.ok()) << answer.status().ToString();
    RunDigest digest;
    if (!answer.ok()) return digest;
    digest.answer_json = AnswerToJson(*answer);
    digest.match_tids = MatchTids(*answer);
    digest.degradation = answer->report.degradation.ToString();
    digest.executed_edges = answer->report.executed_edges;
    digest.truncated = answer->report.truncated_relations;
    digest.stop = answer->report.stop_reason;
    digest.ctx_stop = ctx.stop_reason();
    std::ostringstream os;
    EXPECT_TRUE(SaveDatabase(Materialized(answer->database), &os).ok());
    digest.db_bytes = os.str();
    return digest;
  }

  void ExpectIdentical(const RunDigest& expect, const RunDigest& got,
                       const std::string& label) {
    EXPECT_EQ(got.answer_json, expect.answer_json) << label;
    EXPECT_EQ(got.match_tids, expect.match_tids) << label;
    EXPECT_EQ(got.degradation, expect.degradation) << label;
    EXPECT_EQ(got.executed_edges, expect.executed_edges) << label;
    EXPECT_EQ(got.truncated, expect.truncated) << label;
    EXPECT_EQ(got.stop, expect.stop) << label;
    EXPECT_EQ(got.ctx_stop, expect.ctx_stop) << label;
    EXPECT_EQ(got.db_bytes, expect.db_bytes) << label;
  }

  std::unique_ptr<MoviesDataset> dataset_;
  std::unique_ptr<PrecisEngine> engine_;
  std::vector<std::unique_ptr<PrecisEngine>> sharded_;
};

TEST_F(ShardDeterminismTest, CleanRunsByteIdenticalAcrossShardCounts) {
  const std::vector<std::vector<std::string>> queries = {
      {"Woody Allen"}, {"Comedy"}, {"Woody Allen", "Drama"}};
  for (SubsetStrategy strategy :
       {SubsetStrategy::kAuto, SubsetStrategy::kNaiveQ,
        SubsetStrategy::kRoundRobin}) {
    for (const auto& tokens : queries) {
      RunDigest expect = Run(nullptr, tokens, strategy, nullptr, 0, 0, false);
      for (const auto& sharded : sharded_) {
        RunDigest got =
            Run(sharded.get(), tokens, strategy, nullptr, 0, 0, false);
        ExpectIdentical(expect, got,
                        "shards=" + std::to_string(sharded->num_partitions()) +
                            " strategy=" +
                            std::to_string(static_cast<int>(strategy)));
      }
    }
  }
}

TEST_F(ShardDeterminismTest, OverlappingTokensPinSeedOrder) {
  // Two tokens matching overlapping tuples of one relation: the second
  // token's tids follow the first's, minus the overlap. Seed order decides
  // which seeds survive a tight cardinality cut, so both engines (and the
  // oracle) must assemble seeds identically.
  auto tids_in = [&](const std::string& token, const std::string& relation) {
    std::vector<Tid> tids;
    const OccurrenceList occurrences = engine_->index().Lookup(token);
    for (const TokenOccurrence& occ : *occurrences) {
      if (occ.relation == relation) {
        tids.insert(tids.end(), occ.tids.begin(), occ.tids.end());
      }
    }
    return tids;
  };
  const std::vector<Tid> first = tids_in("Paris", "ACTOR");
  const std::vector<Tid> second = tids_in("June", "ACTOR");
  size_t overlap = 0;
  for (Tid tid : second) {
    overlap += std::count(first.begin(), first.end(), tid);
  }
  ASSERT_GT(overlap, 0u);
  ASSERT_GT(second.size(), overlap);

  for (SubsetStrategy strategy :
       {SubsetStrategy::kNaiveQ, SubsetStrategy::kRoundRobin}) {
    RunDigest expect =
        Run(nullptr, {"Paris", "June"}, strategy, nullptr, 0, 0, false);
    for (const auto& sharded : sharded_) {
      RunDigest got = Run(sharded.get(), {"Paris", "June"}, strategy, nullptr,
                          0, 0, false);
      ExpectIdentical(expect, got,
                      "overlap shards=" +
                          std::to_string(sharded->num_partitions()));
    }
  }
}

TEST_F(ShardDeterminismTest, FaultInjectedRunsByteIdentical) {
  FaultInjector injector(1);
  injector.SetAll(FaultSchedule::Probability(0.1));
  for (uint64_t seed : {1u, 7u, 23u}) {
    for (SubsetStrategy strategy :
         {SubsetStrategy::kNaiveQ, SubsetStrategy::kRoundRobin}) {
      RunDigest expect =
          Run(nullptr, {"Woody Allen"}, strategy, &injector, seed, 0, false);
      for (const auto& sharded : sharded_) {
        RunDigest got = Run(sharded.get(), {"Woody Allen"}, strategy,
                            &injector, seed, 0, false);
        ExpectIdentical(expect, got,
                        "faults seed=" + std::to_string(seed) + " shards=" +
                            std::to_string(sharded->num_partitions()));
      }
    }
  }
}

TEST_F(ShardDeterminismTest, BudgetStopsByteIdentical) {
  for (uint64_t budget : {1u, 5u, 25u, 100u}) {
    RunDigest expect = Run(nullptr, {"Woody Allen"},
                           SubsetStrategy::kRoundRobin, nullptr, 0, budget,
                           false);
    for (const auto& sharded : sharded_) {
      RunDigest got = Run(sharded.get(), {"Woody Allen"},
                          SubsetStrategy::kRoundRobin, nullptr, 0, budget,
                          false);
      ExpectIdentical(expect, got,
                      "budget=" + std::to_string(budget) + " shards=" +
                          std::to_string(sharded->num_partitions()));
    }
    if (budget == 1) {
      EXPECT_EQ(expect.ctx_stop, StopReason::kAccessBudgetExhausted);
    }
  }
}

TEST_F(ShardDeterminismTest, ExpiredDeadlineStopsByteIdentical) {
  RunDigest expect = Run(nullptr, {"Woody Allen"}, SubsetStrategy::kAuto,
                         nullptr, 0, 0, true);
  EXPECT_EQ(expect.ctx_stop, StopReason::kDeadlineExceeded);
  for (const auto& sharded : sharded_) {
    RunDigest got = Run(sharded.get(), {"Woody Allen"}, SubsetStrategy::kAuto,
                        nullptr, 0, 0, true);
    ExpectIdentical(expect, got,
                    "deadline shards=" +
                        std::to_string(sharded->num_partitions()));
  }
}

TEST_F(ShardDeterminismTest, FaultAndBudgetCombinedByteIdentical) {
  FaultInjector injector(9);
  injector.SetAll(FaultSchedule::Probability(0.05));
  RunDigest expect = Run(nullptr, {"Comedy"}, SubsetStrategy::kRoundRobin,
                         &injector, 9, 40, false);
  for (const auto& sharded : sharded_) {
    RunDigest got = Run(sharded.get(), {"Comedy"},
                        SubsetStrategy::kRoundRobin, &injector, 9, 40, false);
    ExpectIdentical(expect, got,
                    "faults+budget shards=" +
                        std::to_string(sharded->num_partitions()));
  }
}

TEST_F(ShardDeterminismTest, SynonymsAndHomonymsByteIdenticalAcrossPartitions) {
  // §5.1 over partitions: a synonym resolves before the one index lookup,
  // and the homonym split answers each occurrence, so both match the
  // one-partition engine byte for byte.
  SynonymTable synonyms;
  ASSERT_TRUE(synonyms.AddSynonym("W. Allen", "Woody Allen").ok());
  auto degree = MinPathWeight(0.8);
  auto cardinality = MaxTuplesPerRelation(4);
  auto answers = [&](PrecisEngine* engine) {
    engine->set_synonyms(&synonyms);
    std::vector<std::string> out;
    auto combined =
        engine->Answer(PrecisQuery{{"W. Allen"}}, *degree, *cardinality);
    EXPECT_TRUE(combined.ok()) << combined.status().ToString();
    if (combined.ok()) out.push_back(AnswerToJson(*combined));
    auto split = engine->AnswerPerOccurrence(PrecisQuery{{"Woody Allen"}},
                                             *degree, *cardinality);
    EXPECT_TRUE(split.ok()) << split.status().ToString();
    if (split.ok()) {
      for (const PrecisAnswer& answer : *split) {
        out.push_back(answer.matches[0].occurrences()[0].relation + " " +
                      AnswerToJson(answer));
      }
    }
    engine->set_synonyms(nullptr);
    return out;
  };

  const std::vector<std::string> expect = answers(engine_.get());
  ASSERT_EQ(expect.size(), 3u);
  EXPECT_NE(expect[0].find("\"resolved_token\":\"Woody Allen\""),
            std::string::npos)
      << expect[0];
  EXPECT_EQ(expect[1].rfind("ACTOR ", 0), 0u);
  EXPECT_EQ(expect[2].rfind("DIRECTOR ", 0), 0u);
  for (const auto& sharded : sharded_) {
    EXPECT_EQ(answers(sharded.get()), expect)
        << "partitions=" << sharded->num_partitions();
  }
}

// ---------------------------------------------------------------------------
// Caching over the one source epoch.

class ShardedCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MoviesConfig config;
    config.num_movies = 120;
    auto ds = MoviesDataset::Create(config);
    ASSERT_TRUE(ds.ok());
    dataset_ = std::make_unique<MoviesDataset>(std::move(*ds));
    auto sharded =
        PrecisEngine::Create(&dataset_->db(), &dataset_->graph(), 4);
    ASSERT_TRUE(sharded.ok());
    engine_ = std::make_unique<PrecisEngine>(std::move(*sharded));
    engine_->set_caches_enabled(true);
  }

  std::shared_ptr<const PrecisAnswer> Ask(const std::string& token) {
    auto degree = MinPathWeight(0.9);
    auto cardinality = MaxTuplesPerRelation(3);
    auto answer =
        engine_->AnswerShared(PrecisQuery{{token}}, *degree, *cardinality);
    EXPECT_TRUE(answer.ok());
    return answer.ok() ? *answer : nullptr;
  }

  /// A fresh GENRE tuple; `gid` must be unused.
  Tuple FreshGenreTuple(int64_t gid) {
    auto genre = dataset_->db().GetRelation("GENRE");
    Value mid = (*genre)->ColumnValue(0, 1);  // GENRE(gid*, mid, genre)
    return Tuple{Value(gid), mid, Value("fresh-genre")};
  }

  /// Inserts into the source, which the engine reads at every partition
  /// count.
  Result<Tid> InsertIntoSource(Tuple tuple) {
    auto genre = dataset_->db().GetRelation("GENRE");
    if (!genre.ok()) return genre.status();
    return (*genre)->Insert(std::move(tuple));
  }

  std::unique_ptr<MoviesDataset> dataset_;
  std::unique_ptr<PrecisEngine> engine_;
};

TEST_F(ShardedCacheTest, RepeatQueryHitsFullAnswerCache) {
  ASSERT_NE(Ask("Woody Allen"), nullptr);  // first sight: turned away
  auto first = Ask("Woody Allen");
  ASSERT_NE(first, nullptr);
  auto second = Ask("Woody Allen");
  ASSERT_NE(second, nullptr);
  auto third = Ask("Woody Allen");
  ASSERT_NE(third, nullptr);
  EXPECT_EQ(engine_->answer_cache_stats().hits, 2u);
  // Hits hand back the SAME stored immutable answer, not a copy.
  EXPECT_EQ(second.get(), third.get());
  EXPECT_EQ(AnswerToJson(*first), AnswerToJson(*second));
}

TEST_F(ShardedCacheTest, SingleShardInsertRebuildsAnswerWhileTokenLookupsHit) {
  ASSERT_NE(Ask("Woody Allen"), nullptr);  // first sight: turned away
  ASSERT_NE(Ask("Woody Allen"), nullptr);  // stored
  ASSERT_NE(Ask("Woody Allen"), nullptr);  // warm: full-answer hit
  ASSERT_EQ(engine_->answer_cache_stats().hits, 1u);

  // One insert into the source moves its epoch.
  const LruCacheStats before = engine_->token_cache_stats();
  ASSERT_TRUE(InsertIntoSource(FreshGenreTuple(2000000)).ok());

  // The full answer must rebuild (its key carries the source's epoch)...
  uint64_t full_hits = engine_->answer_cache_stats().hits;
  ASSERT_NE(Ask("Woody Allen"), nullptr);
  EXPECT_EQ(engine_->answer_cache_stats().hits, full_hits);

  // ...while the token lookup hits the level-1 cache: postings are never
  // re-indexed, so an insert cannot make a cached lookup stale.
  const LruCacheStats after = engine_->token_cache_stats();
  EXPECT_GT(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
}

TEST_F(ShardedCacheTest, InsertKeepsAnswersIdenticalToSingleEngine) {
  // Warm every cache level, then mutate: post-insert answers must still be
  // byte-identical to a single engine over the same mutated source (both
  // engines index at Create; later inserts are not re-indexed).
  // Two calls: a level stores a key on its second sight.
  ASSERT_NE(Ask("Woody Allen"), nullptr);
  ASSERT_NE(Ask("Woody Allen"), nullptr);

  auto single = PrecisEngine::Create(&dataset_->db(), &dataset_->graph());
  ASSERT_TRUE(single.ok());
  ASSERT_TRUE(InsertIntoSource(FreshGenreTuple(3000000)).ok());

  auto degree = MinPathWeight(0.9);
  auto cardinality = MaxTuplesPerRelation(3);
  auto expect =
      single->Answer(PrecisQuery{{"Woody Allen"}}, *degree, *cardinality);
  auto got =
      engine_->Answer(PrecisQuery{{"Woody Allen"}}, *degree, *cardinality);
  ASSERT_TRUE(expect.ok());
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(AnswerToJson(*got), AnswerToJson(*expect));
}

TEST_F(ShardedCacheTest, BodyCacheMemoizesRendersAndInvalidatesOnInsert) {
  auto degree = MinPathWeight(0.9);
  auto cardinality = MaxTuplesPerRelation(3);
  auto ask = [&] {
    auto rendered = engine_->AnswerSharedRendered(PrecisQuery{{"Woody Allen"}},
                                                  *degree, *cardinality);
    EXPECT_TRUE(rendered.ok());
    return rendered.ok() ? *rendered : RenderedAnswer{};
  };
  ASSERT_NE(ask().body_json, nullptr);  // first sight: turned away
  auto first = ask();
  ASSERT_NE(first.body_json, nullptr);
  EXPECT_EQ(*first.body_json, AnswerToJson(*first.answer));
  // A repeat serves the very same memoized string (zero serialization).
  auto second = ask();
  ASSERT_NE(second.body_json, nullptr);
  EXPECT_EQ(first.body_json.get(), second.body_json.get());
  EXPECT_EQ(engine_->body_cache_stats().hits, 1u);

  // One insert moves the source's epoch — the key no longer matches, so
  // the body is re-rendered from the rebuilt answer.
  ASSERT_TRUE(InsertIntoSource(FreshGenreTuple(4000000)).ok());
  auto after = ask();
  ASSERT_NE(after.body_json, nullptr);
  EXPECT_NE(after.body_json.get(), first.body_json.get());
  EXPECT_EQ(*after.body_json, AnswerToJson(*after.answer));
}

// ---------------------------------------------------------------------------
// PrecisService over a partitioned engine.

TEST(ShardedServiceTest, AnswersMatchSingleEngineAndMetricsFillShards) {
  MoviesConfig config;
  config.num_movies = 120;
  auto ds = MoviesDataset::Create(config);
  ASSERT_TRUE(ds.ok());
  auto single = PrecisEngine::Create(&ds->db(), &ds->graph());
  ASSERT_TRUE(single.ok());
  auto sharded = PrecisEngine::Create(&ds->db(), &ds->graph(), 4);
  ASSERT_TRUE(sharded.ok());

  PrecisService::Options options;
  options.num_workers = 2;
  auto service = PrecisService::Create(&*sharded, options);
  ASSERT_TRUE(service.ok());

  auto degree = MinPathWeight(0.8);
  auto cardinality = MaxTuplesPerRelation(5);
  auto reference =
      single->Answer(PrecisQuery{{"Woody Allen"}}, *degree, *cardinality);
  ASSERT_TRUE(reference.ok());
  const std::string expected = AnswerToJson(*reference);

  for (int i = 0; i < 6; ++i) {
    ServiceRequest request;
    request.query = PrecisQuery{{"Woody Allen"}};
    request.min_path_weight = 0.8;
    request.tuples_per_relation = 5;
    ServiceResponse response = (*service)->Execute(std::move(request));
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    ASSERT_NE(response.answer, nullptr);
    EXPECT_EQ(AnswerToJson(*response.answer), expected);
  }

  PrecisService::Metrics metrics = (*service)->metrics();
  EXPECT_EQ(metrics.queries_served, 6u);
  ASSERT_EQ(metrics.shards.size(), 4u);
  uint64_t total_tuples = 0;
  for (const auto& shard : metrics.shards) total_tuples += shard.tuples;
  EXPECT_EQ(total_tuples, ds->db().TotalTuples());
  (*service)->Shutdown();
}

TEST(ShardedServiceTest, OnePartitionServesInPlaceAndRejectsReplicas) {
  MoviesConfig config;
  config.num_movies = 80;
  auto ds = MoviesDataset::Create(config);
  ASSERT_TRUE(ds.ok());
  // Replicas hedge between partitions; one partition has nothing to hedge.
  EXPECT_FALSE(PrecisEngine::Create(&ds->db(), &ds->graph(), 1,
                                    /*with_replicas=*/true)
                   .ok());
  auto engine = PrecisEngine::Create(&ds->db(), &ds->graph(), 1);
  ASSERT_TRUE(engine.ok());
  // One partition is the database read in place: no copy, no health.
  EXPECT_EQ(engine->num_partitions(), 1u);
  EXPECT_EQ(engine->partitions(), nullptr);
  EXPECT_EQ(engine->health(), nullptr);
  auto service = PrecisService::Create(&*engine);
  ASSERT_TRUE(service.ok());

  ServiceRequest request;
  request.query = PrecisQuery{{"Woody Allen"}};
  request.min_path_weight = 0.9;
  request.tuples_per_relation = 3;
  ServiceResponse response = (*service)->Execute(std::move(request));
  ASSERT_TRUE(response.status.ok());
  ASSERT_NE(response.answer, nullptr);
  EXPECT_FALSE(response.answer->empty());
  PrecisService::Metrics metrics = (*service)->metrics();
  EXPECT_EQ(metrics.queries_served, 1u);
  EXPECT_TRUE(metrics.shards.empty());
  (*service)->Shutdown();
}

// ---------------------------------------------------------------------------
// Circuit breaker state machine (DESIGN.md §17).

TEST(CircuitBreakerTest, OnlyConsecutiveFailuresOpenTheCircuit) {
  CircuitBreakerPolicy policy;
  policy.failure_threshold = 3;
  policy.cooldown_rejects = 2;
  CircuitBreaker breaker(policy);

  // A success in between resets the consecutive count: still closed.
  breaker.RecordFailure();
  breaker.RecordFailure();
  breaker.RecordSuccess();
  breaker.RecordFailure();
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_TRUE(breaker.Allow());

  breaker.RecordFailure();  // third consecutive
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  CircuitBreakerStats stats = breaker.stats();
  EXPECT_EQ(stats.opened_total, 1u);
  EXPECT_EQ(stats.failures_total, 5u);
  EXPECT_EQ(stats.successes_total, 1u);
}

TEST(CircuitBreakerTest, CooldownAdmitsOneProbeWhoseOutcomeDecides) {
  CircuitBreakerPolicy policy;
  policy.failure_threshold = 1;
  policy.cooldown_rejects = 2;
  CircuitBreaker breaker(policy);

  breaker.RecordFailure();
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);

  // The decision-counted cooldown: two rejections, then the next caller is
  // admitted as the half-open probe.
  EXPECT_FALSE(breaker.Allow());
  EXPECT_FALSE(breaker.Allow());
  EXPECT_TRUE(breaker.Allow());
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  // One probe at a time: concurrent callers are rejected meanwhile.
  EXPECT_FALSE(breaker.Allow());

  // A failed probe goes straight back to open and restarts the cooldown.
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_FALSE(breaker.Allow());
  EXPECT_FALSE(breaker.Allow());

  // A successful probe closes the circuit for good.
  EXPECT_TRUE(breaker.Allow());
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_TRUE(breaker.Allow());

  CircuitBreakerStats stats = breaker.stats();
  EXPECT_EQ(stats.opened_total, 2u);
  EXPECT_EQ(stats.half_open_probes, 2u);
  EXPECT_EQ(stats.rejected_total, 5u);
}

// ---------------------------------------------------------------------------
// Shard fault domains: degradation, byte-identity, breakers, hedging
// (DESIGN.md §17).

class ShardFaultDomainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MoviesConfig config;
    config.num_movies = 120;
    auto ds = MoviesDataset::Create(config);
    ASSERT_TRUE(ds.ok());
    dataset_ = std::make_unique<MoviesDataset>(std::move(*ds));
  }

  std::unique_ptr<PrecisEngine> MakeEngine(size_t shards,
                                           bool replicas = false) {
    auto engine = PrecisEngine::Create(&dataset_->db(), &dataset_->graph(),
                                       shards, replicas);
    EXPECT_TRUE(engine.ok());
    return engine.ok() ? std::make_unique<PrecisEngine>(std::move(*engine))
                       : nullptr;
  }

  /// Latches `shard` permanently dead: the first kShardSubquery check in
  /// its domain fires a permanent error, so every later probe fails too.
  static void ScheduleDeadShard(FaultInjector* injector, uint32_t shard) {
    FaultSchedule dead = FaultSchedule::Steps({1}, FaultKind::kPermanentError);
    dead.domains = {shard};
    injector->SetSchedule(FaultSite::kShardSubquery, dead);
  }

  static void AttachInjector(ExecutionContext* ctx, FaultInjector* injector) {
    ctx->SetFaultInjector(injector);
    RetryPolicy policy;
    policy.initial_backoff_ns = 0;  // fast tests; decisions are unaffected
    ctx->set_retry_policy(policy);
  }

  struct Digest {
    std::string answer_json;
    std::string match_tids;
    std::string degradation;
    std::string db_bytes;
  };

  /// One query against `engine` with `dead_shard` latched dead under
  /// `seed`, using a fresh injector per run so the latch/check streams
  /// restart identically.
  Digest RunDead(const PrecisEngine& engine, uint32_t dead_shard,
                 uint64_t seed, size_t parallelism) {
    FaultInjector injector(seed);
    ScheduleDeadShard(&injector, dead_shard);
    ExecutionContext ctx;
    AttachInjector(&ctx, &injector);
    DbGenOptions options;
    options.strategy = SubsetStrategy::kRoundRobin;
    options.parallelism = parallelism;
    auto answer =
        engine.Answer(PrecisQuery{{"Woody Allen"}}, *MinPathWeight(0.8),
                      *MaxTuplesPerRelation(4), options, &ctx);
    EXPECT_TRUE(answer.ok()) << answer.status().ToString();
    Digest digest;
    if (!answer.ok()) return digest;
    digest.answer_json = AnswerToJson(*answer);
    digest.match_tids = MatchTids(*answer);
    digest.degradation = answer->report.degradation.ToString();
    std::ostringstream os;
    EXPECT_TRUE(SaveDatabase(Materialized(answer->database), &os).ok());
    digest.db_bytes = os.str();
    return digest;
  }

  std::unique_ptr<MoviesDataset> dataset_;
};

TEST_F(ShardFaultDomainTest, KilledShardAnswersDegradedWithHonestReport) {
  auto engine = MakeEngine(4);
  ASSERT_NE(engine, nullptr);
  FaultInjector injector(5);
  ScheduleDeadShard(&injector, 2);
  ExecutionContext ctx;
  AttachInjector(&ctx, &injector);
  ShardQueryStats stats;
  auto answer = engine->Answer(PrecisQuery{{"Woody Allen"}},
                               *MinPathWeight(0.8), *MaxTuplesPerRelation(4),
                               DbGenOptions(), &ctx, &stats);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();

  // The answer came without shard 2 and the report says so.
  const DegradationReport& degradation = answer->report.degradation;
  EXPECT_TRUE(degradation.degraded());
  EXPECT_EQ(degradation.shards_skipped, (std::vector<uint32_t>{2}));
  EXPECT_EQ(degradation.shards_total, 4u);
  uint64_t unavailable = 0;
  for (const RelationDegradation& r : degradation.relations) {
    unavailable += r.unavailable_tuples;
  }
  EXPECT_GT(unavailable, 0u) << "the dead shard's resident result tuples "
                                "must be accounted as unavailable";

  // The telemetry agrees and the exported JSON carries the block.
  EXPECT_EQ(stats.shards_skipped, (std::vector<uint32_t>{2}));
  const std::string json = AnswerToJson(*answer);
  EXPECT_NE(json.find("\"shards_skipped\":[2]"), std::string::npos) << json;
  EXPECT_NE(json.find("\"shards_total\":4"), std::string::npos);
  EXPECT_NE(json.find("\"unavailable_tuples\""), std::string::npos);
}

TEST_F(ShardFaultDomainTest, DegradedAnswersByteIdenticalAcrossReruns) {
  // The determinism invariant: with the same seed and the same dead shard,
  // reruns are byte-identical at any shard count and dbgen parallelism —
  // including reruns where the breaker (opened by earlier queries) skips
  // the shard without probing instead of probing and failing.
  for (size_t shards : {2u, 4u, 8u}) {
    auto engine = MakeEngine(shards);
    ASSERT_NE(engine, nullptr);
    const uint32_t dead = static_cast<uint32_t>(shards - 1);
    for (uint64_t seed : {1u, 23u}) {
      Digest expect = RunDead(*engine, dead, seed, 1);
      ASSERT_NE(expect.degradation.find("shards_skipped"), std::string::npos)
          << expect.degradation;
      for (int rerun = 0; rerun < 2; ++rerun) {
        for (size_t parallelism : {1u, 4u}) {
          Digest got = RunDead(*engine, dead, seed, parallelism);
          const std::string label =
              "shards=" + std::to_string(shards) + " seed=" +
              std::to_string(seed) + " parallelism=" +
              std::to_string(parallelism);
          EXPECT_EQ(got.answer_json, expect.answer_json) << label;
          EXPECT_EQ(got.match_tids, expect.match_tids) << label;
          EXPECT_EQ(got.degradation, expect.degradation) << label;
          EXPECT_EQ(got.db_bytes, expect.db_bytes) << label;
        }
      }
    }
  }
}

TEST_F(ShardFaultDomainTest, DeadPartitionDropsExactlyItsOwnSeedTuples) {
  // Reference: the one-partition engine's matches, minus the tids the dead
  // partition owns, with groups left empty dropped.
  auto single = MakeEngine(1);
  ASSERT_NE(single, nullptr);
  const std::vector<std::string> tokens = {"Comedy", "Drama", "Woody Allen"};
  size_t dropped_total = 0;
  for (size_t shards : {2u, 4u}) {
    for (uint32_t dead = 0; dead < shards; ++dead) {
      // A fresh engine per dead partition: breakers persist across queries.
      auto engine = MakeEngine(shards);
      ASSERT_NE(engine, nullptr);
      const SourcePartitions& partitions = *engine->partitions();
      for (const std::string& token : tokens) {
        const std::string label = "shards=" + std::to_string(shards) +
                                  " dead=" + std::to_string(dead) + " " +
                                  token;
        auto full = single->Answer(PrecisQuery{{token}}, *MinPathWeight(0.8),
                                   *MaxTuplesPerRelation(4));
        ASSERT_TRUE(full.ok()) << label;
        ASSERT_EQ(full->matches.size(), 1u) << label;
        std::vector<TokenOccurrence> expect;
        for (const TokenOccurrence& occ : full->matches[0].occurrences()) {
          TokenOccurrence live{occ.relation, occ.attribute, {}};
          for (Tid tid : occ.tids) {
            if (partitions.ShardOf(occ.relation, tid) == dead) {
              ++dropped_total;
            } else {
              live.tids.push_back(tid);
            }
          }
          if (!live.tids.empty()) expect.push_back(std::move(live));
        }

        FaultInjector injector(7);
        ScheduleDeadShard(&injector, dead);
        ExecutionContext ctx;
        AttachInjector(&ctx, &injector);
        auto degraded =
            engine->Answer(PrecisQuery{{token}}, *MinPathWeight(0.8),
                           *MaxTuplesPerRelation(4), DbGenOptions(), &ctx);
        ASSERT_TRUE(degraded.ok()) << label;
        EXPECT_EQ(degraded->report.degradation.shards_skipped,
                  (std::vector<uint32_t>{dead}))
            << label;
        ASSERT_EQ(degraded->matches.size(), 1u) << label;
        const std::vector<TokenOccurrence>& got =
            degraded->matches[0].occurrences();
        ASSERT_EQ(got.size(), expect.size()) << label;
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].relation, expect[i].relation) << label;
          EXPECT_EQ(got[i].attribute, expect[i].attribute) << label;
          EXPECT_EQ(got[i].tids, expect[i].tids) << label;
        }
        // The body counts what survived the fault plan, not what matched.
        const std::string json = AnswerToJson(*degraded);
        for (const TokenOccurrence& occ : expect) {
          const std::string entry =
              "{\"relation\":\"" + occ.relation + "\",\"attribute\":\"" +
              occ.attribute + "\",\"matched_tuples\":" +
              std::to_string(occ.tids.size()) + "}";
          EXPECT_NE(json.find(entry), std::string::npos)
              << label << " " << entry;
        }
      }
    }
  }
  EXPECT_GT(dropped_total, 0u) << "some dead partition must own a seed";
}

TEST_F(ShardFaultDomainTest, UnavailableTuplesCountTheSourceAsItIsNow) {
  // Outage accounting reads the source, not a snapshot of it: a GENRE tuple
  // inserted after Create counts toward its owner's unavailable tuples, and
  // toward that partition's /metrics tuples.
  auto engine = MakeEngine(4);
  ASSERT_NE(engine, nullptr);
  const SourcePartitions& partitions = *engine->partitions();
  Database& db = dataset_->db();
  auto genre = db.GetRelation("GENRE");
  ASSERT_TRUE(genre.ok());
  const Tid inserted = (*genre)->num_tuples();
  const Value mid = (*genre)->ColumnValue(0, 1);  // GENRE(gid*, mid, genre)
  ASSERT_TRUE(
      (*genre)->Insert(Tuple{Value(int64_t{9000000}), mid, Value("outage")})
          .ok());
  const uint32_t dead =
      static_cast<uint32_t>(partitions.ShardOf("GENRE", inserted));
  auto owned_by_dead = [&](const std::string& name) {
    auto relation = db.GetRelation(name);
    EXPECT_TRUE(relation.ok()) << name;
    uint64_t owned = 0;
    for (Tid tid = 0; relation.ok() && tid < (*relation)->num_tuples();
         ++tid) {
      if (partitions.ShardOf(name, tid) == dead) ++owned;
    }
    return owned;
  };

  FaultInjector injector(3);
  ScheduleDeadShard(&injector, dead);
  ExecutionContext ctx;
  AttachInjector(&ctx, &injector);
  auto answer =
      engine->Answer(PrecisQuery{{"Comedy"}}, *MinPathWeight(0.8),
                     *MaxTuplesPerRelation(4), DbGenOptions(), &ctx);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  std::map<std::string, uint64_t> unavailable;
  for (const RelationDegradation& r : answer->report.degradation.relations) {
    unavailable[r.relation] = r.unavailable_tuples;
  }
  ASSERT_EQ(unavailable.count("GENRE"), 1u);
  for (RelationNodeId rel : answer->schema.relations()) {
    const std::string& name = dataset_->graph().relation_name(rel);
    EXPECT_EQ(unavailable[name], owned_by_dead(name)) << name;
  }

  auto service = PrecisService::Create(engine.get());
  ASSERT_TRUE(service.ok());
  PrecisService::Metrics metrics = (*service)->metrics();
  ASSERT_EQ(metrics.shards.size(), 4u);
  uint64_t total_tuples = 0;
  for (const auto& shard : metrics.shards) total_tuples += shard.tuples;
  EXPECT_EQ(total_tuples, db.TotalTuples());
  uint64_t dead_tuples = 0;
  for (const std::string& name : db.RelationNames()) {
    dead_tuples += owned_by_dead(name);
  }
  EXPECT_EQ(metrics.shards[dead].tuples, dead_tuples);
  (*service)->Shutdown();
}

TEST_F(ShardFaultDomainTest, TranslatorLeadsWithThePartitionNotice) {
  auto engine = MakeEngine(4);
  ASSERT_NE(engine, nullptr);
  FaultInjector injector(9);
  ScheduleDeadShard(&injector, 1);
  ExecutionContext ctx;
  AttachInjector(&ctx, &injector);
  auto answer = engine->Answer(PrecisQuery{{"Woody Allen"}},
                               *MinPathWeight(0.8), *MaxTuplesPerRelation(4),
                               DbGenOptions(), &ctx);
  ASSERT_TRUE(answer.ok());
  ASSERT_FALSE(answer->report.degradation.shards_skipped.empty());

  auto catalog = BuildMoviesTemplateCatalog();
  ASSERT_TRUE(catalog.ok());
  Translator translator(&*catalog);
  auto text = translator.Render(*answer);
  ASSERT_TRUE(text.ok());
  // An honest answer leads with what it is missing.
  EXPECT_EQ(text->rfind("[answers from 3 of 4 partitions]", 0), 0u) << *text;
}

TEST_F(ShardFaultDomainTest, DegradedAnswersAreNeverCached) {
  auto engine = MakeEngine(4);
  ASSERT_NE(engine, nullptr);
  engine->set_caches_enabled(true);
  FaultInjector injector(3);
  ScheduleDeadShard(&injector, 1);
  auto ask = [&](ExecutionContext* ctx) {
    return engine->AnswerShared(PrecisQuery{{"Woody Allen"}},
                                *MinPathWeight(0.9), *MaxTuplesPerRelation(3),
                                DbGenOptions(), ctx);
  };

  // Two degraded runs (below the breaker's failure threshold of 3, so the
  // later fault-free queries are not themselves skipped by an open
  // breaker): none may be served from (or admitted to) the cache, nor
  // even reach its doorkeeper, where a second sight would be stored.
  for (int i = 0; i < 2; ++i) {
    ExecutionContext ctx;
    AttachInjector(&ctx, &injector);
    auto answer = ask(&ctx);
    ASSERT_TRUE(answer.ok());
    EXPECT_TRUE((*answer)->report.degradation.degraded()) << i;
  }
  EXPECT_EQ(engine->answer_cache_stats().hits, 0u);
  EXPECT_EQ(engine->answer_cache_stats().inserts, 0u);
  EXPECT_EQ(engine->answer_cache_stats().rejected, 0u);

  // The same query without the fault domain caches normally, proving the
  // misses above were taint, not a broken cache.
  ASSERT_TRUE(ask(nullptr).ok());  // first sight: turned away
  auto first = ask(nullptr);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE((*first)->report.degradation.degraded());
  auto second = ask(nullptr);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(engine->answer_cache_stats().hits, 1u);
}

TEST_F(ShardFaultDomainTest, BreakerOpensOnDeadShardThenHalfOpenProbes) {
  auto engine = MakeEngine(4);
  ASSERT_NE(engine, nullptr);
  FaultInjector injector(7);
  ScheduleDeadShard(&injector, 1);

  // Serve a run of queries against the permanently dead shard. With the
  // default policy (threshold 3, cooldown 8) the breaker opens after three
  // probed failures, then cycles reject/half-open-probe/reopen — every
  // query still answers, always without shard 1.
  uint64_t breaker_rejects_seen = 0;
  for (int i = 0; i < 30; ++i) {
    ExecutionContext ctx;
    AttachInjector(&ctx, &injector);
    ShardQueryStats stats;
    auto answer = engine->Answer(PrecisQuery{{"Comedy"}}, *MinPathWeight(0.9),
                                 *MaxTuplesPerRelation(3), DbGenOptions(),
                                 &ctx, &stats);
    ASSERT_TRUE(answer.ok()) << i;
    EXPECT_EQ(stats.shards_skipped, (std::vector<uint32_t>{1})) << i;
    breaker_rejects_seen += stats.breaker_rejects;
  }

  CircuitBreakerStats breaker = engine->health()->breaker(1).stats();
  EXPECT_EQ(breaker.state, BreakerState::kOpen);
  EXPECT_GE(breaker.opened_total, 2u);  // initial open + >= 1 failed probe
  EXPECT_GE(breaker.half_open_probes, 1u);
  EXPECT_GT(breaker.rejected_total, 0u);
  EXPECT_EQ(breaker.successes_total, 0u);
  EXPECT_GT(breaker_rejects_seen, 0u);

  // Healthy shards' breakers stayed closed, accumulating successes.
  for (size_t s : {0u, 2u, 3u}) {
    CircuitBreakerStats healthy = engine->health()->breaker(s).stats();
    EXPECT_EQ(healthy.state, BreakerState::kClosed) << s;
    EXPECT_EQ(healthy.failures_total, 0u) << s;
    EXPECT_GT(healthy.successes_total, 0u) << s;
  }
  EXPECT_GE(engine->health()->shard_skips.load(std::memory_order_relaxed),
            30u);
}

TEST_F(ShardFaultDomainTest, HedgedSubqueriesNeverChangeAnswerBytes) {
  auto engine = MakeEngine(4, /*with_replicas=*/true);
  ASSERT_NE(engine, nullptr);
  auto run = [&](uint64_t stall_ns, ShardQueryStats* stats) {
    FaultInjector injector(11);
    FaultSchedule stall =
        FaultSchedule::Probability(1.0, FaultKind::kLatencySpike);
    stall.latency_spike_ns = stall_ns;
    stall.domains = {2};
    injector.SetSchedule(FaultSite::kShardTimeout, stall);
    ExecutionContext ctx;
    AttachInjector(&ctx, &injector);
    DbGenOptions options;
    options.strategy = SubsetStrategy::kRoundRobin;
    auto answer =
        engine->Answer(PrecisQuery{{"Woody Allen"}}, *MinPathWeight(0.8),
                       *MaxTuplesPerRelation(4), options, &ctx, stats);
    EXPECT_TRUE(answer.ok());
    return answer.ok() ? AnswerToJson(*answer) : std::string();
  };
  // Reference: the same armed schedule with a 1 ns stall — far below the
  // 0.5 ms floor of the hedging delay, so no hedge fires (and the run is
  // fault-tainted exactly like the hedged one, keeping the reports
  // comparable).
  const std::string expect = run(1, nullptr);

  // Stall shard 2 well past its hedging delay: each edge's wait is cut to
  // that delay and the hedge wins. A stall moves time, never tids, so the
  // bytes cannot change.
  ShardQueryStats stats;
  const std::string got = run(8'000'000, &stats);  // 8 ms

  EXPECT_EQ(got, expect);
  EXPECT_TRUE(stats.shards_skipped.empty());
  EXPECT_GT(stats.hedged_subqueries, 0u);
  EXPECT_GT(stats.hedge_wins, 0u) << "a hedge must beat an 8 ms stall";
  EXPECT_LE(stats.hedge_wins, stats.hedged_subqueries);
  const ShardHealthTracker& health = *engine->health();
  EXPECT_GE(health.hedged_subqueries.load(std::memory_order_relaxed),
            stats.hedged_subqueries);
  EXPECT_GE(health.hedge_wins.load(std::memory_order_relaxed),
            stats.hedge_wins);
}

TEST_F(ShardFaultDomainTest, StallIsOneComputedWaitPerEdge) {
  // An 8 ms stall on partition 2 of 4. With hedging, every edge waits only
  // the hedging delay, and its hedge fires and wins; without, every edge
  // sleeps the whole stall. Either way the bytes are a 1 ns stall's.
  struct Run {
    std::string json;
    size_t edges = 0;
    double wall_ms = 0.0;
  };
  auto run = [&](const PrecisEngine& engine, uint64_t stall_ns,
                 ShardQueryStats* stats) {
    FaultInjector injector(11);
    FaultSchedule stall =
        FaultSchedule::Probability(1.0, FaultKind::kLatencySpike);
    stall.latency_spike_ns = stall_ns;
    stall.domains = {2};
    injector.SetSchedule(FaultSite::kShardTimeout, stall);
    ExecutionContext ctx;
    AttachInjector(&ctx, &injector);
    DbGenOptions options;
    options.strategy = SubsetStrategy::kRoundRobin;
    const auto start = std::chrono::steady_clock::now();
    auto answer =
        engine.Answer(PrecisQuery{{"Woody Allen"}}, *MinPathWeight(0.8),
                      *MaxTuplesPerRelation(4), options, &ctx, stats);
    Run out;
    out.wall_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - start)
                      .count();
    EXPECT_TRUE(answer.ok());
    if (!answer.ok()) return out;
    out.json = AnswerToJson(*answer);
    out.edges = answer->report.executed_edges.size();
    return out;
  };
  for (bool hedging : {true, false}) {
    SCOPED_TRACE(hedging ? "hedging" : "no hedging");
    auto engine = MakeEngine(4, hedging);
    ASSERT_NE(engine, nullptr);
    const Run expect = run(*engine, 1, nullptr);
    ShardQueryStats stats;
    const Run got = run(*engine, 8'000'000, &stats);
    EXPECT_EQ(got.json, expect.json);
    ASSERT_GT(got.edges, 0u);
    if (hedging) {
      EXPECT_EQ(stats.hedged_subqueries, got.edges);
      EXPECT_EQ(stats.hedge_wins, got.edges);
    } else {
      EXPECT_EQ(stats.hedged_subqueries, 0u);
      EXPECT_EQ(stats.hedge_wins, 0u);
      // A sleep never returns early, so only the lower bound holds.
      EXPECT_GE(got.wall_ms, 8.0 * static_cast<double>(got.edges));
    }
  }
}

TEST(ShardedServiceTest, KilledShardServesDegradedAndExportsBreakers) {
  MoviesConfig config;
  config.num_movies = 120;
  auto ds = MoviesDataset::Create(config);
  ASSERT_TRUE(ds.ok());
  auto sharded = PrecisEngine::Create(&ds->db(), &ds->graph(), 4);
  ASSERT_TRUE(sharded.ok());

  FaultInjector injector(42);
  FaultSchedule dead = FaultSchedule::Steps({1}, FaultKind::kPermanentError);
  dead.domains = {1};
  injector.SetSchedule(FaultSite::kShardSubquery, dead);

  PrecisService::Options options;
  options.num_workers = 2;
  options.fault_injector = &injector;
  options.retry_policy.initial_backoff_ns = 0;
  auto service = PrecisService::Create(&*sharded, options);
  ASSERT_TRUE(service.ok());

  for (int i = 0; i < 5; ++i) {
    ServiceRequest request;
    request.query = PrecisQuery{{"Woody Allen"}};
    request.min_path_weight = 0.8;
    request.tuples_per_relation = 5;
    ServiceResponse response = (*service)->Execute(std::move(request));
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    ASSERT_NE(response.answer, nullptr);
    EXPECT_TRUE(response.answer->report.degradation.degraded()) << i;
  }

  PrecisService::Metrics metrics = (*service)->metrics();
  EXPECT_EQ(metrics.shard_degraded_queries, 5u);
  EXPECT_EQ(metrics.shard_skips_total, 5u);
  EXPECT_GT(metrics.shard_probe_retries_total, 0u);
  ASSERT_EQ(metrics.shards.size(), 4u);
  // Threshold 3: the dead shard's breaker opened during the run and the
  // later queries fast-failed it without probing.
  EXPECT_EQ(metrics.shards[1].breaker_state, "open");
  EXPECT_GE(metrics.shards[1].breaker_failures, 3u);
  EXPECT_GE(metrics.shards[1].breaker_opened, 1u);
  EXPECT_GT(metrics.shard_breaker_rejects_total, 0u);
  for (size_t s : {0u, 2u, 3u}) {
    EXPECT_EQ(metrics.shards[s].breaker_state, "closed") << s;
  }
  (*service)->Shutdown();
}

}  // namespace
}  // namespace precis
