#include "service/precis_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "datagen/movies_dataset.h"
#include "precis/engine.h"
#include "precis/json_export.h"

namespace precis {
namespace {

class ServiceTest : public ::testing::Test {
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

  ServiceRequest MakeRequest(const std::string& token) {
    ServiceRequest request;
    request.query.tokens = {token};
    request.min_path_weight = 0.9;
    request.tuples_per_relation = 5;
    return request;
  }

  std::unique_ptr<MoviesDataset> dataset_;
  std::unique_ptr<PrecisEngine> engine_;
};

TEST_F(ServiceTest, RejectsNullEngine) {
  EXPECT_FALSE(PrecisService::Create(nullptr).ok());
}

TEST_F(ServiceTest, RejectsResponseTimeTargetWithoutCostParameters) {
  PrecisService::Options options;
  options.response_time_target_seconds = 0.5;  // but cost_params all zero
  EXPECT_FALSE(PrecisService::Create(engine_.get(), options).ok());
}

TEST_F(ServiceTest, ExecuteMatchesDirectEngineAnswer) {
  auto d = MinPathWeight(0.9);
  auto c = MaxTuplesPerRelation(5);
  auto direct = engine_->Answer(PrecisQuery{{"Woody Allen"}}, *d, *c);
  ASSERT_TRUE(direct.ok());

  auto service = PrecisService::Create(engine_.get());
  ASSERT_TRUE(service.ok());
  ServiceResponse response = (*service)->Execute(MakeRequest("Woody Allen"));
  ASSERT_TRUE(response.status.ok());
  ASSERT_NE(response.answer, nullptr);
  EXPECT_EQ(response.stop_reason, StopReason::kNone);
  EXPECT_EQ(response.answer->database.DescribeSchema(),
            direct->database.DescribeSchema());
  EXPECT_GE(response.latency_seconds, 0.0);
}

TEST_F(ServiceTest, RenderBodyReturnsSerializedAnswerOnlyWhenAsked) {
  auto service = PrecisService::Create(engine_.get());
  ASSERT_TRUE(service.ok());
  // Default: embedded callers pay no serialization.
  ServiceResponse plain = (*service)->Execute(MakeRequest("Woody Allen"));
  ASSERT_TRUE(plain.status.ok());
  EXPECT_EQ(plain.body_json, nullptr);
  // render_body: the response carries the exact AnswerToJson bytes.
  ServiceRequest request = MakeRequest("Woody Allen");
  request.render_body = true;
  ServiceResponse rendered = (*service)->Execute(std::move(request));
  ASSERT_TRUE(rendered.status.ok());
  ASSERT_NE(rendered.body_json, nullptr);
  EXPECT_EQ(*rendered.body_json, AnswerToJson(*rendered.answer));
}

TEST_F(ServiceTest, ResponsesCarryPerStageSpans) {
  auto service = PrecisService::Create(engine_.get());
  ASSERT_TRUE(service.ok());
  ServiceResponse response = (*service)->Execute(MakeRequest("Woody Allen"));
  ASSERT_TRUE(response.status.ok());
  std::vector<std::string> names;
  for (const TraceSpan& span : response.spans) names.push_back(span.name);
  EXPECT_NE(std::find(names.begin(), names.end(), "match_tokens"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "schema_gen"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "db_gen"), names.end());
}

TEST_F(ServiceTest, PerQueryStatsSumToGlobalCounters) {
  // The load: several submitter threads, mixed tokens, one shared engine.
  // Each query's context observes only its own accesses; the database's
  // global counters observe everyone's. With nothing else running, the
  // per-query attribution must account for the global delta exactly.
  const std::vector<std::string> tokens = {"Woody Allen", "Match Point",
                                           "Comedy", "Drama",
                                           "Scarlett Johansson"};
  PrecisService::Options options;
  options.num_workers = 4;
  auto service = PrecisService::Create(engine_.get(), options);
  ASSERT_TRUE(service.ok());

  dataset_->db().ResetStats();
  constexpr int kThreads = 4;
  constexpr int kQueriesPerThread = 16;
  std::vector<std::thread> submitters;
  std::mutex sum_mutex;
  AccessStats per_query_sum;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int q = 0; q < kQueriesPerThread; ++q) {
        ServiceResponse response = (*service)->Execute(
            MakeRequest(tokens[(t + q) % tokens.size()]));
        if (!response.status.ok()) {
          ++failures;
          continue;
        }
        std::lock_guard<std::mutex> lock(sum_mutex);
        per_query_sum += response.stats;
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  ASSERT_EQ(failures.load(), 0);

  const AccessStats& global = dataset_->db().stats();
  EXPECT_EQ(per_query_sum.index_probes.load(std::memory_order_relaxed),
            global.index_probes.load(std::memory_order_relaxed));
  EXPECT_EQ(per_query_sum.tuple_fetches.load(std::memory_order_relaxed),
            global.tuple_fetches.load(std::memory_order_relaxed));
  EXPECT_EQ(per_query_sum.sequential_scans.load(std::memory_order_relaxed),
            global.sequential_scans.load(std::memory_order_relaxed));
  EXPECT_EQ(per_query_sum.statements.load(std::memory_order_relaxed),
            global.statements.load(std::memory_order_relaxed));

  // The service's own aggregate matches too.
  PrecisService::Metrics metrics = (*service)->metrics();
  EXPECT_EQ(metrics.queries_served,
            static_cast<uint64_t>(kThreads * kQueriesPerThread));
  EXPECT_EQ(metrics.total_stats.statements.load(std::memory_order_relaxed),
            global.statements.load(std::memory_order_relaxed));
}

TEST_F(ServiceTest, DeadlineExpiredQueriesReturnWellFormedPartialAnswers) {
  PrecisService::Options options;
  options.num_workers = 2;
  auto service = PrecisService::Create(engine_.get(), options);
  ASSERT_TRUE(service.ok());

  constexpr int kQueries = 20;
  std::vector<std::future<ServiceResponse>> futures;
  for (int i = 0; i < kQueries; ++i) {
    ServiceRequest request = MakeRequest("Woody Allen");
    request.deadline_seconds = 1e-9;  // expired before the pipeline starts
    futures.push_back((*service)->Submit(std::move(request)));
  }
  int deadline_hits = 0;
  for (auto& future : futures) {
    ServiceResponse response = future.get();
    // A deadline is not an error: the query still yields a well-formed
    // (possibly empty) answer, flagged as partial.
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    ASSERT_NE(response.answer, nullptr);
    EXPECT_TRUE(response.answer->database.ValidateForeignKeys().ok());
    if (response.stop_reason == StopReason::kDeadlineExceeded) {
      ++deadline_hits;
      EXPECT_TRUE(response.partial());
      EXPECT_TRUE(response.answer->report.partial());
      EXPECT_EQ(response.answer->report.stop_reason,
                StopReason::kDeadlineExceeded);
    }
  }
  EXPECT_EQ(deadline_hits, kQueries);
  EXPECT_EQ((*service)->metrics().deadline_hits,
            static_cast<uint64_t>(kQueries));
}

TEST_F(ServiceTest, AccessBudgetTruncatesAndIsCounted) {
  auto service = PrecisService::Create(engine_.get());
  ASSERT_TRUE(service.ok());

  ServiceRequest request = MakeRequest("Woody Allen");
  request.access_budget = 1;
  ServiceResponse response = (*service)->Execute(std::move(request));
  ASSERT_TRUE(response.status.ok());
  ASSERT_NE(response.answer, nullptr);
  EXPECT_EQ(response.stop_reason, StopReason::kAccessBudgetExhausted);
  EXPECT_TRUE(response.answer->database.ValidateForeignKeys().ok());
  EXPECT_EQ((*service)->metrics().budget_truncations, 1u);

  // An untruncated run of the same query fetches strictly more.
  ServiceResponse full = (*service)->Execute(MakeRequest("Woody Allen"));
  ASSERT_TRUE(full.status.ok());
  EXPECT_GT(full.stats.tuple_fetches.load(std::memory_order_relaxed),
            response.stats.tuple_fetches.load(std::memory_order_relaxed));
}

TEST_F(ServiceTest, ResponseTimeTargetDerivesDefaultBudget) {
  PrecisService::Options options;
  options.num_workers = 1;
  // Formula 3 with an absurdly tight target: the derived budget is tiny, so
  // every query truncates.
  options.response_time_target_seconds = 2e-9;
  options.cost_params.index_time_seconds = 1e-9;
  options.cost_params.tuple_time_seconds = 1e-9;
  auto service = PrecisService::Create(engine_.get(), options);
  ASSERT_TRUE(service.ok());
  ServiceResponse response = (*service)->Execute(MakeRequest("Woody Allen"));
  ASSERT_TRUE(response.status.ok());
  EXPECT_EQ(response.stop_reason, StopReason::kAccessBudgetExhausted);
}

TEST_F(ServiceTest, BatchResolvesEveryFutureInOrder) {
  const std::vector<std::string> tokens = {"Woody Allen", "Match Point",
                                           "Comedy"};
  PrecisService::Options options;
  options.num_workers = 3;
  auto service = PrecisService::Create(engine_.get(), options);
  ASSERT_TRUE(service.ok());

  std::vector<ServiceRequest> batch;
  for (int i = 0; i < 12; ++i) {
    batch.push_back(MakeRequest(tokens[i % tokens.size()]));
  }
  auto futures = (*service)->SubmitBatch(std::move(batch));
  ASSERT_EQ(futures.size(), 12u);
  for (size_t i = 0; i < futures.size(); ++i) {
    ServiceResponse response = futures[i].get();
    ASSERT_TRUE(response.status.ok()) << "request " << i;
    ASSERT_NE(response.answer, nullptr);
    // Order is preserved: future i answers request i's token.
    EXPECT_EQ(response.answer->matches.at(0).token,
              tokens[i % tokens.size()]);
  }
}

TEST_F(ServiceTest, ShutdownDrainsQueuedWorkAndRejectsNewWork) {
  PrecisService::Options options;
  options.num_workers = 2;
  auto service = PrecisService::Create(engine_.get(), options);
  ASSERT_TRUE(service.ok());

  std::vector<std::future<ServiceResponse>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back((*service)->Submit(MakeRequest("Woody Allen")));
  }
  (*service)->Shutdown();
  (*service)->Shutdown();  // idempotent
  for (auto& future : futures) {
    EXPECT_TRUE(future.get().status.ok());  // accepted work was drained
  }
  ServiceResponse rejected = (*service)->Execute(MakeRequest("Comedy"));
  EXPECT_FALSE(rejected.status.ok());
  EXPECT_EQ(rejected.answer, nullptr);
}

TEST_F(ServiceTest, MetricsPercentilesAreOrdered) {
  auto service = PrecisService::Create(engine_.get());
  ASSERT_TRUE(service.ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE((*service)->Execute(MakeRequest("Woody Allen")).status.ok());
  }
  PrecisService::Metrics metrics = (*service)->metrics();
  EXPECT_EQ(metrics.queries_served, 10u);
  EXPECT_EQ(metrics.failures, 0u);
  EXPECT_GT(metrics.p50_latency_seconds, 0.0);
  EXPECT_LE(metrics.p50_latency_seconds, metrics.p99_latency_seconds);
  EXPECT_GE(metrics.total_latency_seconds, metrics.p99_latency_seconds);
  EXPECT_GT(metrics.span_seconds.count("db_gen"), 0u);
}

TEST_F(ServiceTest, LatencyPercentilesCoverARecentWindowOnly) {
  auto service = PrecisService::Create(engine_.get());
  ASSERT_TRUE(service.ok());
  // 50 queries slowed by simulated storage latency: each pays well over
  // 10 ms, and together they are over 1% of all the queries below.
  std::vector<ServiceRequest> slow(50, MakeRequest("Woody Allen"));
  for (ServiceRequest& request : slow) {
    request.options.simulated_access_latency_ns = 1'000'000;
  }
  for (auto& future : (*service)->SubmitBatch(std::move(slow))) {
    ASSERT_TRUE(future.get().status.ok());
  }
  EXPECT_GT((*service)->metrics().p50_latency_seconds, 0.010);

  // A full window of plain queries pushes every slow sample out: p99
  // describes recent traffic, not the whole uptime.
  std::vector<ServiceRequest> plain(PrecisService::kLatencyWindow,
                                    MakeRequest("Woody Allen"));
  for (auto& future : (*service)->SubmitBatch(std::move(plain))) {
    ASSERT_TRUE(future.get().status.ok());
  }
  PrecisService::Metrics metrics = (*service)->metrics();
  EXPECT_EQ(metrics.queries_served, 50u + PrecisService::kLatencyWindow);
  EXPECT_LT(metrics.p99_latency_seconds, 0.010);
  // The total still covers every query, the slow ones included.
  EXPECT_GT(metrics.total_latency_seconds, 50 * 0.010);
}

}  // namespace
}  // namespace precis
