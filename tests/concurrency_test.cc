#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "datagen/movies_dataset.h"
#include "materialized.h"
#include "precis/engine.h"
#include "service/precis_service.h"
#include "storage/serialization.h"

namespace precis {
namespace {

/// Concurrent read-path contract: one engine, one source database, many
/// threads asking queries at once. Access counters are atomic and the
/// schema cache is locked, so runs must be crash-free, answers identical
/// to the single-threaded result, and counters exactly accounted.
class ConcurrencyTest : public ::testing::Test {
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

  std::unique_ptr<MoviesDataset> dataset_;
  std::unique_ptr<PrecisEngine> engine_;
};

TEST_F(ConcurrencyTest, ParallelQueriesAgreeWithSerialAnswer) {
  auto d = MinPathWeight(0.9);
  auto c = MaxTuplesPerRelation(5);
  auto reference = engine_->Answer(PrecisQuery{{"Woody Allen"}}, *d, *c);
  ASSERT_TRUE(reference.ok());
  std::string expected = Materialized(reference->database).DescribeSchema();

  constexpr int kThreads = 8;
  constexpr int kQueriesPerThread = 20;
  std::vector<std::thread> threads;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<int> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int q = 0; q < kQueriesPerThread; ++q) {
        auto answer = engine_->Answer(PrecisQuery{{"Woody Allen"}}, *d, *c);
        if (!answer.ok()) {
          ++failures[t];
          continue;
        }
        if (Materialized(answer->database).DescribeSchema() != expected) {
          ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0) << "thread " << t;
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
}

TEST_F(ConcurrencyTest, AtomicCountersAccountForEveryQuery) {
  auto d = MinPathWeight(0.9);
  auto c = MaxTuplesPerRelation(3);
  // Serial baseline for one query's statement count.
  dataset_->db().ResetStats();
  ASSERT_TRUE(engine_->Answer(PrecisQuery{{"Woody Allen"}}, *d, *c).ok());
  uint64_t per_query = dataset_->db().stats().statements;
  ASSERT_GT(per_query, 0u);

  constexpr int kThreads = 6;
  constexpr int kQueriesPerThread = 10;
  dataset_->db().ResetStats();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int q = 0; q < kQueriesPerThread; ++q) {
        auto answer = engine_->Answer(PrecisQuery{{"Woody Allen"}}, *d, *c);
        if (!answer.ok()) std::abort();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // Relaxed atomics lose no increments: the totals add up exactly.
  EXPECT_EQ(dataset_->db().stats().statements,
            per_query * kThreads * kQueriesPerThread);
}

TEST_F(ConcurrencyTest, SchemaCacheUnderContention) {
  engine_->set_caches_enabled(true);
  auto d = MinPathWeight(0.9);
  auto c = MaxTuplesPerRelation(3);
  // One call before the threads: the key's first sight, turned away at the
  // door, so the threads' first Put stores it.
  ASSERT_TRUE(engine_->Answer(PrecisQuery{{"Woody Allen"}}, *d, *c).ok());
  constexpr int kThreads = 8;
  constexpr int kQueriesPerThread = 25;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int q = 0; q < kQueriesPerThread; ++q) {
        auto answer = engine_->Answer(PrecisQuery{{"Woody Allen"}}, *d, *c);
        if (!answer.ok()) std::abort();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // Every query either hit or missed; the sum is exact. (Several threads
  // may race to fill the same key, so misses can exceed 1 but stay small.)
  const LruCacheStats schema = engine_->schema_cache_stats();
  EXPECT_EQ(schema.hits + schema.misses,
            static_cast<size_t>(kThreads * kQueriesPerThread + 1));
  EXPECT_LE(schema.misses, static_cast<size_t>(kThreads + 1));
  EXPECT_GE(schema.hits,
            static_cast<size_t>(kThreads * kQueriesPerThread - kThreads));
  EXPECT_EQ(schema.rejected, 1u);
}

TEST_F(ConcurrencyTest, PerContextStatsSumToGlobalCounters) {
  auto d = MinPathWeight(0.8);
  auto c = MaxTuplesPerRelation(4);
  const std::vector<std::string> tokens = {"Woody Allen", "Match Point",
                                           "Comedy", "Drama",
                                           "Scarlett Johansson"};
  constexpr int kThreads = 6;
  constexpr int kQueriesPerThread = 12;

  dataset_->db().ResetStats();
  std::vector<AccessStats> per_thread(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int q = 0; q < kQueriesPerThread; ++q) {
        ExecutionContext ctx;
        const std::string& token = tokens[(t + q) % tokens.size()];
        auto answer =
            engine_->Answer(PrecisQuery{{token}}, *d, *c, DbGenOptions(),
                            &ctx);
        if (!answer.ok()) std::abort();
        per_thread[t] += ctx.stats();
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // Every access was double-booked: once into the query's own context and
  // once into the database's global counters. With no other activity the
  // two views must agree exactly.
  AccessStats sum;
  for (const AccessStats& s : per_thread) sum += s;
  const AccessStats& global = dataset_->db().stats();
  EXPECT_EQ(sum.index_probes.load(std::memory_order_relaxed),
            global.index_probes.load(std::memory_order_relaxed));
  EXPECT_EQ(sum.tuple_fetches.load(std::memory_order_relaxed),
            global.tuple_fetches.load(std::memory_order_relaxed));
  EXPECT_EQ(sum.sequential_scans.load(std::memory_order_relaxed),
            global.sequential_scans.load(std::memory_order_relaxed));
  EXPECT_EQ(sum.statements.load(std::memory_order_relaxed),
            global.statements.load(std::memory_order_relaxed));
  EXPECT_GT(sum.tuple_fetches.load(std::memory_order_relaxed), 0u);
}

TEST_F(ConcurrencyTest, DeadlineStoppedQueriesStayWellFormedUnderLoad) {
  auto d = MinPathWeight(0.8);
  auto c = MaxTuplesPerRelation(4);
  constexpr int kThreads = 6;
  std::vector<std::thread> threads;
  std::vector<int> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int q = 0; q < 10; ++q) {
        ExecutionContext ctx;
        // Alternate between already-expired and generous deadlines so
        // partial and complete answers interleave on the same engine.
        ctx.SetDeadlineAfter(q % 2 == 0 ? 1e-9 : 60.0);
        auto answer = engine_->Answer(PrecisQuery{{"Woody Allen"}}, *d, *c,
                                      DbGenOptions(), &ctx);
        if (!answer.ok() ||
            !Materialized(answer->database).ValidateForeignKeys().ok()) {
          ++failures[t];
          continue;
        }
        // An expired deadline must be flagged; report and context agree.
        if (q % 2 == 0 &&
            (answer->report.stop_reason != StopReason::kDeadlineExceeded ||
             ctx.stop_reason() != StopReason::kDeadlineExceeded)) {
          ++failures[t];
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], 0) << t;
}

TEST_F(ConcurrencyTest, MixedQueriesInParallel) {
  auto d = MinPathWeight(0.8);
  auto c = MaxTuplesPerRelation(4);
  const std::vector<std::string> tokens = {"Woody Allen", "Match Point",
                                           "Comedy", "Drama",
                                           "Scarlett Johansson"};
  constexpr int kThreads = 5;
  std::vector<std::thread> threads;
  std::vector<int> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int q = 0; q < 15; ++q) {
        const std::string& token = tokens[(t + q) % tokens.size()];
        auto answer = engine_->Answer(PrecisQuery{{token}}, *d, *c);
        if (!answer.ok() ||
            !Materialized(answer->database).ValidateForeignKeys().ok()) {
          ++failures[t];
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], 0);
}

TEST_F(ConcurrencyTest, FullyCachedEngineUnderContention) {
  // All three cache levels on, many threads, a repeating token mix: every
  // answer a thread receives — cached or freshly built — must equal the
  // single-threaded reference, and the answer-cache counters must account
  // for every call exactly (one lookup per AnswerShared).
  auto d = MinPathWeight(0.9);
  auto c = MaxTuplesPerRelation(3);
  const std::vector<std::string> tokens = {"Woody Allen", "Comedy", "Drama"};
  std::vector<std::string> expected;
  for (const std::string& token : tokens) {
    auto reference = engine_->Answer(PrecisQuery{{token}}, *d, *c);
    ASSERT_TRUE(reference.ok());
    expected.push_back(Materialized(reference->database).DescribeSchema());
  }

  engine_->set_caches_enabled(true);
  // Each query's first sight, turned away at the door, before the threads:
  // their first Put of each key stores it.
  for (const std::string& token : tokens) {
    ASSERT_TRUE(engine_->AnswerShared(PrecisQuery{{token}}, *d, *c).ok());
  }
  constexpr int kThreads = 8;
  constexpr int kQueriesPerThread = 25;
  std::vector<std::thread> threads;
  std::vector<int> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int q = 0; q < kQueriesPerThread; ++q) {
        size_t pick = static_cast<size_t>(t + q) % tokens.size();
        auto answer =
            engine_->AnswerShared(PrecisQuery{{tokens[pick]}}, *d, *c);
        if (!answer.ok() ||
            Materialized((*answer)->database).DescribeSchema() !=
                expected[pick]) {
          ++failures[t];
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], 0) << t;

  LruCacheStats stats = engine_->answer_cache_stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kThreads * kQueriesPerThread) +
                tokens.size());
  // Threads may race to build the same key, but never more than once each
  // per distinct query (plus the sight before the threads).
  EXPECT_LE(stats.misses,
            static_cast<uint64_t>((kThreads + 1) * tokens.size()));
  EXPECT_GT(stats.hits, 0u);
  EXPECT_EQ(stats.rejected, tokens.size());
}

TEST_F(ConcurrencyTest, IntraQueryParallelismUnderInterQueryLoad) {
  // The two parallelism axes at once: many threads each run queries whose
  // database generation fans out chunk tasks onto the ONE shared TaskPool
  // (DbGenOptions::pool == nullptr). Every answer must be byte-identical
  // to the sequential single-threaded reference.
  auto d = MinPathWeight(0.8);
  auto c = MaxTuplesPerRelation(10);
  auto serialize = [](const Database& db) {
    std::ostringstream os;
    EXPECT_TRUE(SaveDatabase(db, &os).ok());
    return os.str();
  };
  auto reference = engine_->Answer(PrecisQuery{{"Woody Allen"}}, *d, *c);
  ASSERT_TRUE(reference.ok());
  std::string expected = serialize(Materialized(reference->database));

  DbGenOptions parallel_options;
  parallel_options.parallelism = 4;  // shared pool

  constexpr int kThreads = 6;
  constexpr int kQueriesPerThread = 8;
  std::vector<std::thread> threads;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<int> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int q = 0; q < kQueriesPerThread; ++q) {
        auto answer = engine_->Answer(PrecisQuery{{"Woody Allen"}}, *d, *c,
                                      parallel_options);
        if (!answer.ok()) {
          ++failures[t];
          continue;
        }
        std::ostringstream os;
        if (!SaveDatabase(Materialized(answer->database), &os).ok() ||
            os.str() != expected) {
          ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0) << "thread " << t;
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
}

TEST_F(ConcurrencyTest, ServiceWorkersShareTheTaskPool) {
  // PrecisService with a service-wide dbgen_parallelism default: four
  // service workers each fan their queries' chunk tasks onto the shared
  // pool. All answers complete, validate, and agree with the sequential
  // reference.
  auto d = MinPathWeight(0.8);
  auto c = MaxTuplesPerRelation(10);
  auto reference = engine_->Answer(PrecisQuery{{"Woody Allen"}}, *d, *c);
  ASSERT_TRUE(reference.ok());
  std::ostringstream ref_os;
  ASSERT_TRUE(SaveDatabase(Materialized(reference->database), &ref_os).ok());
  const std::string expected = ref_os.str();

  PrecisService::Options options;
  options.num_workers = 4;
  options.dbgen_parallelism = 4;
  auto service = PrecisService::Create(engine_.get(), options);
  ASSERT_TRUE(service.ok());

  std::vector<ServiceRequest> requests;
  for (int i = 0; i < 24; ++i) {
    ServiceRequest request;
    request.query = PrecisQuery{{"Woody Allen"}};
    request.min_path_weight = 0.8;
    request.tuples_per_relation = 10;
    requests.push_back(std::move(request));
  }
  auto futures = (*service)->SubmitBatch(std::move(requests));
  for (auto& future : futures) {
    ServiceResponse response = future.get();
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    ASSERT_NE(response.answer, nullptr);
    std::ostringstream os;
    ASSERT_TRUE(
        SaveDatabase(Materialized(response.answer->database), &os).ok());
    EXPECT_EQ(os.str(), expected);
  }
  (*service)->Shutdown();
}

TEST_F(ConcurrencyTest, ShardedServiceByteIdenticalUnderConcurrentLoad) {
  // PrecisService over a 4-partition engine under the same contention
  // shape: four workers submit a mixed batch whose chunk tasks land on the
  // shared TaskPool. Every answer must be byte-identical to the
  // one-partition sequential reference.
  auto d = MinPathWeight(0.8);
  auto c = MaxTuplesPerRelation(10);
  auto reference = engine_->Answer(PrecisQuery{{"Woody Allen"}}, *d, *c);
  ASSERT_TRUE(reference.ok());
  std::ostringstream ref_os;
  ASSERT_TRUE(SaveDatabase(Materialized(reference->database), &ref_os).ok());
  const std::string expected = ref_os.str();

  auto sharded = PrecisEngine::Create(&dataset_->db(), &dataset_->graph(), 4);
  ASSERT_TRUE(sharded.ok());
  sharded->set_caches_enabled(true);

  PrecisService::Options options;
  options.num_workers = 4;
  auto service = PrecisService::Create(&*sharded, options);
  ASSERT_TRUE(service.ok());

  std::vector<ServiceRequest> requests;
  for (int i = 0; i < 24; ++i) {
    ServiceRequest request;
    request.query = PrecisQuery{{"Woody Allen"}};
    request.min_path_weight = 0.8;
    request.tuples_per_relation = 10;
    requests.push_back(std::move(request));
  }
  auto futures = (*service)->SubmitBatch(std::move(requests));
  for (auto& future : futures) {
    ServiceResponse response = future.get();
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    ASSERT_NE(response.answer, nullptr);
    std::ostringstream os;
    ASSERT_TRUE(
        SaveDatabase(Materialized(response.answer->database), &os).ok());
    EXPECT_EQ(os.str(), expected);
  }

  PrecisService::Metrics metrics = (*service)->metrics();
  EXPECT_EQ(metrics.queries_served, 24u);
  ASSERT_EQ(metrics.shards.size(), 4u);
  (*service)->Shutdown();
}

}  // namespace
}  // namespace precis
