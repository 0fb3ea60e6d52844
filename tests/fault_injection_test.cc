// Chaos suite for deterministic fault injection (DESIGN.md §12).
//
// Three layers of coverage:
//   1. FaultInjector / RetryWithBackoff unit behaviour (schedules fire at
//      exactly the decided check indices, permanent faults latch, retries
//      stop at the policy bound and at the deadline).
//   2. End-to-end chaos over the movies workload: with every storage site
//      armed at p ∈ {0.01, 0.1}, every answer is OK (gracefully degraded),
//      structurally well-formed, and — the determinism contract — byte-
//      identical across reruns, across parallelism ∈ {1, 2, 8} and to the
//      sequential walk oracle (tests/sequential_walk.h).
//   3. The cache-taint regression: armed injectors, degraded answers and
//      truncated answers never enter the schema/answer caches, so a cache
//      hit always serves a clean, complete answer.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/execution_context.h"
#include "common/fault_injection.h"
#include "common/retry.h"
#include "datagen/movies_dataset.h"
#include "datagen/movies_templates.h"
#include "precis/engine.h"
#include "precis/json_export.h"
#include "sequential_walk.h"
#include "service/precis_service.h"
#include "translator/translator.h"

namespace precis {
namespace {

// ---------------------------------------------------------------------------
// FaultInjector unit behaviour.

TEST(FaultInjectorTest, OffInjectorNeverFires) {
  FaultInjector injector(7);
  EXPECT_FALSE(injector.armed());
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(injector.Check(FaultSite::kTupleFetch).ok());
  }
  EXPECT_EQ(injector.total_injected(), 0u);
  // Unarmed checks take the fast path and are not even counted.
  EXPECT_EQ(injector.site_stats(FaultSite::kTupleFetch).checks, 0u);
}

TEST(FaultInjectorTest, EveryNthFiresAtExactIndices) {
  FaultInjector injector(1);
  injector.SetSchedule(FaultSite::kIndexProbe, FaultSchedule::EveryNth(3));
  EXPECT_TRUE(injector.armed());
  std::vector<int> failed;
  for (int i = 1; i <= 9; ++i) {
    if (!injector.Check(FaultSite::kIndexProbe).ok()) failed.push_back(i);
  }
  EXPECT_EQ(failed, (std::vector<int>{3, 6, 9}));
  EXPECT_EQ(injector.site_stats(FaultSite::kIndexProbe).checks, 9u);
  EXPECT_EQ(injector.site_stats(FaultSite::kIndexProbe).injected, 3u);
}

TEST(FaultInjectorTest, StepsFireExactlyOnListedChecks) {
  FaultInjector injector(1);
  injector.SetSchedule(FaultSite::kTupleFetch,
                       FaultSchedule::Steps({2, 5}));
  std::vector<int> failed;
  for (int i = 1; i <= 6; ++i) {
    Status s = injector.Check(FaultSite::kTupleFetch);
    if (!s.ok()) {
      EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
      failed.push_back(i);
    }
  }
  EXPECT_EQ(failed, (std::vector<int>{2, 5}));
}

TEST(FaultInjectorTest, ProbabilityIsDeterministicPerSeed) {
  auto decisions = [](uint64_t seed) {
    FaultInjector injector(seed);
    injector.SetSchedule(FaultSite::kJoinValueLookup,
                         FaultSchedule::Probability(0.3));
    std::string bits;
    for (int i = 0; i < 200; ++i) {
      bits += injector.Check(FaultSite::kJoinValueLookup).ok() ? '0' : '1';
    }
    return bits;
  };
  EXPECT_EQ(decisions(42), decisions(42));       // same seed, same faults
  EXPECT_NE(decisions(42), decisions(43));       // seeds are independent
  EXPECT_NE(decisions(42).find('1'), std::string::npos);  // p=0.3 does fire
  EXPECT_NE(decisions(42).find('0'), std::string::npos);
}

TEST(FaultInjectorTest, PermanentFaultLatchesTheSite) {
  FaultInjector injector(5);
  injector.SetSchedule(
      FaultSite::kRelationScan,
      FaultSchedule::Steps({3}, FaultKind::kPermanentError));
  EXPECT_TRUE(injector.Check(FaultSite::kRelationScan).ok());
  EXPECT_TRUE(injector.Check(FaultSite::kRelationScan).ok());
  // Check #3 trips the latch; everything after fails too.
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(injector.Check(FaultSite::kRelationScan).IsUnavailable());
  }
}

TEST(FaultInjectorTest, ResetDisarmsAndReseedReplays) {
  FaultInjector injector(9);
  injector.SetAll(FaultSchedule::Probability(0.5));
  std::string first;
  for (int i = 0; i < 50; ++i) {
    first += injector.Check(FaultSite::kTupleFetch).ok() ? '0' : '1';
  }
  // Reseed with the same seed: counters restart, so the exact same
  // decision sequence replays (the chaos-rerun mechanism).
  injector.Reseed(9);
  std::string again;
  for (int i = 0; i < 50; ++i) {
    again += injector.Check(FaultSite::kTupleFetch).ok() ? '0' : '1';
  }
  EXPECT_EQ(first, again);
  injector.Reset();
  EXPECT_FALSE(injector.armed());
  EXPECT_EQ(injector.seed(), 9u);  // Reset keeps the seed
  EXPECT_TRUE(injector.Check(FaultSite::kTupleFetch).ok());
}

TEST(FaultInjectorTest, ParseFaultSiteAcceptsShortForms) {
  for (const auto& [name, site] :
       std::vector<std::pair<std::string, FaultSite>>{
           {"probe", FaultSite::kIndexProbe},
           {"index_probe", FaultSite::kIndexProbe},
           {"fetch", FaultSite::kTupleFetch},
           {"tuple_fetch", FaultSite::kTupleFetch},
           {"join", FaultSite::kJoinValueLookup},
           {"scan", FaultSite::kRelationScan},
           {"catalog", FaultSite::kTranslatorCatalog}}) {
    auto parsed = ParseFaultSite(name);
    ASSERT_TRUE(parsed.ok()) << name;
    EXPECT_EQ(*parsed, site) << name;
  }
  EXPECT_FALSE(ParseFaultSite("warp_core").ok());
}

// ---------------------------------------------------------------------------
// RetryWithBackoff.

TEST(RetryTest, RetriesTransientFaultUntilSuccess) {
  RetryPolicy policy;
  policy.initial_backoff_ns = 0;  // no sleeping in tests
  int calls = 0;
  uint64_t retries = 0;
  Status s = RetryWithBackoff(
      policy, nullptr,
      [&] {
        ++calls;
        return calls < 3 ? Status::Unavailable("flaky") : Status::OK();
      },
      &retries);
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(retries, 2u);
}

TEST(RetryTest, GivesUpAfterMaxAttempts) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_ns = 0;
  int calls = 0;
  Status s = RetryWithBackoff(policy, nullptr, [&] {
    ++calls;
    return Status::Unavailable("always down");
  });
  EXPECT_TRUE(s.IsUnavailable());
  EXPECT_EQ(calls, 3);
}

TEST(RetryTest, NonRetryableErrorsPassStraightThrough) {
  RetryPolicy policy;
  policy.initial_backoff_ns = 0;
  int calls = 0;
  Status s = RetryWithBackoff(policy, nullptr, [&] {
    ++calls;
    return Status::InvalidArgument("bad input");
  });
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(calls, 1);  // never retried
}

TEST(RetryTest, DeadlinePressureStopsRetries) {
  RetryPolicy policy;
  policy.initial_backoff_ns = 1'000'000;  // 1ms backoff vs ~0 remaining
  ExecutionContext ctx;
  ctx.SetDeadlineAfter(1e-9);
  int calls = 0;
  Status s = RetryWithBackoff(policy, &ctx, [&] {
    ++calls;
    return Status::Unavailable("down");
  });
  // The remaining time cannot cover the backoff: give up after attempt 1
  // instead of sleeping toward a missed deadline.
  EXPECT_TRUE(s.IsUnavailable());
  EXPECT_EQ(calls, 1);
}

TEST(RetryTest, WorksOverResultValues) {
  RetryPolicy policy;
  policy.initial_backoff_ns = 0;
  int calls = 0;
  Result<int> r = RetryWithBackoff(policy, nullptr, [&]() -> Result<int> {
    ++calls;
    if (calls < 2) return Status::Unavailable("flaky");
    return 17;
  });
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 17);
}

// ---------------------------------------------------------------------------
// End-to-end chaos over the movies workload.

class FaultChaosTest : public ::testing::Test {
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

  struct Outcome {
    std::string json;
    std::string degradation;
    bool tainted = false;
    bool ok = false;
  };

  /// Runs the whole token workload under one armed injector and returns
  /// the per-query outcomes. The injector is reseeded first, so the fault
  /// sequence depends only on (seed, workload) — never on earlier runs.
  /// `use_oracle` answers through the sequential walk instead of the
  /// engine's planner.
  std::vector<Outcome> RunWorkload(FaultInjector* injector, uint64_t seed,
                                   size_t parallelism, SubsetStrategy strategy,
                                   bool use_oracle = false) {
    injector->Reseed(seed);
    std::vector<Outcome> outcomes;
    for (const std::string& token : kTokens) {
      ExecutionContext ctx;
      ctx.SetFaultInjector(injector);
      RetryPolicy policy;
      policy.initial_backoff_ns = 0;  // decisions only; no sleeping
      ctx.set_retry_policy(policy);
      auto degree = MinPathWeight(0.9);
      auto cardinality = MaxTuplesPerRelation(5);
      DbGenOptions options;
      options.parallelism = parallelism;
      options.strategy = strategy;
      auto answer =
          use_oracle
              ? OracleAnswer(dataset_->db(), dataset_->graph(),
                             engine_->index(), PrecisQuery{{token}}, *degree,
                             *cardinality, options, &ctx)
              : engine_->Answer(PrecisQuery{{token}}, *degree, *cardinality,
                                options, &ctx);
      Outcome outcome;
      outcome.ok = answer.ok();
      if (answer.ok()) {
        // Degraded answers stay structurally well-formed.
        EXPECT_TRUE(answer->database.ValidateForeignKeys().ok())
            << token << ": " << answer->report.degradation.ToString();
        outcome.json = AnswerToJson(*answer);
        outcome.degradation = answer->report.degradation.ToString();
        outcome.tainted = answer->report.fault_tainted;
        EXPECT_TRUE(outcome.tainted);  // armed ⇒ tainted, fired or not
      } else {
        // The only error the injector produces is the typed transient one.
        EXPECT_TRUE(answer.status().IsUnavailable())
            << answer.status().ToString();
        outcome.json = answer.status().ToString();
      }
      outcomes.push_back(std::move(outcome));
    }
    return outcomes;
  }

  static void ExpectSameOutcomes(const std::vector<Outcome>& a,
                                 const std::vector<Outcome>& b,
                                 const std::string& label) {
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].ok, b[i].ok) << label << " query " << i;
      EXPECT_EQ(a[i].json, b[i].json) << label << " query " << i;
      EXPECT_EQ(a[i].degradation, b[i].degradation)
          << label << " query " << i;
    }
  }

  const std::vector<std::string> kTokens = {
      "Woody Allen", "Match Point", "Comedy", "Drama", "Scarlett Johansson",
      "London"};

  std::unique_ptr<MoviesDataset> dataset_;
  std::unique_ptr<PrecisEngine> engine_;
};

TEST_F(FaultChaosTest, EveryAnswerSurvivesProbabilisticFaults) {
  uint64_t injected_total = 0;
  for (double p : {0.01, 0.1}) {
    FaultInjector injector(2024);
    injector.SetAll(FaultSchedule::Probability(p));
    for (SubsetStrategy strategy :
         {SubsetStrategy::kNaiveQ, SubsetStrategy::kRoundRobin}) {
      auto outcomes = RunWorkload(&injector, 2024, 1, strategy);
      for (const Outcome& o : outcomes) {
        EXPECT_TRUE(o.ok);  // transient faults degrade, never error out
      }
      // Reseed (inside RunWorkload) clears counters, so harvest per run.
      injected_total += injector.total_injected();
    }
  }
  // The sweep must actually have exercised faults (p = 0.01 alone may
  // deterministically fire zero times on a small workload; the sum over
  // both rates and strategies cannot).
  EXPECT_GT(injected_total, 0u);
}

TEST_F(FaultChaosTest, SameSeedSameFaultsSameAnswers) {
  for (double p : {0.01, 0.1}) {
    FaultInjector injector(7);
    injector.SetAll(FaultSchedule::Probability(p));
    auto first = RunWorkload(&injector, 7, 1, SubsetStrategy::kAuto);
    auto second = RunWorkload(&injector, 7, 1, SubsetStrategy::kAuto);
    ExpectSameOutcomes(first, second, "rerun p=" + std::to_string(p));
  }
}

TEST_F(FaultChaosTest, ParallelismDoesNotChangeFaultedAnswers) {
  // The byte-identity guarantee must survive fault injection: the planner
  // replays the walk's fault/retry sequence, so the same seed yields the
  // same degraded answer as the sequential walk oracle — inline and at any
  // pool fan-out.
  for (double p : {0.01, 0.1}) {
    FaultInjector injector(99);
    injector.SetAll(FaultSchedule::Probability(p));
    auto oracle = RunWorkload(&injector, 99, 1, SubsetStrategy::kAuto,
                              /*use_oracle=*/true);
    for (size_t parallelism : {size_t{1}, size_t{2}, size_t{8}}) {
      auto parallel =
          RunWorkload(&injector, 99, parallelism, SubsetStrategy::kAuto);
      ExpectSameOutcomes(oracle, parallel,
                         "parallelism=" + std::to_string(parallelism) +
                             " p=" + std::to_string(p));
    }
  }
}

TEST_F(FaultChaosTest, TotalFetchFailureDegradesToEmptyButWellFormed) {
  FaultInjector injector(3);
  injector.SetSchedule(FaultSite::kTupleFetch,
                       FaultSchedule::Probability(1.0));
  auto outcomes = RunWorkload(&injector, 3, 1, SubsetStrategy::kAuto);
  size_t degraded = 0;
  for (const Outcome& o : outcomes) {
    EXPECT_TRUE(o.ok);
    // A token with no occurrences issues no fetches, so it cannot degrade;
    // every query that did touch storage must report its losses.
    if (!o.degradation.empty()) ++degraded;
  }
  EXPECT_GT(degraded, 0u);
  EXPECT_GT(injector.total_injected(), 0u);
}

TEST_F(FaultChaosTest, DegradationReportCountsDropsAndRetries) {
  // A single transient step: the first fetch attempt fails, the retry
  // succeeds — one retry, zero drops.
  FaultInjector injector(1);
  injector.SetSchedule(FaultSite::kTupleFetch, FaultSchedule::Steps({1}));
  ExecutionContext ctx;
  ctx.SetFaultInjector(&injector);
  RetryPolicy policy;
  policy.initial_backoff_ns = 0;
  ctx.set_retry_policy(policy);
  auto degree = MinPathWeight(0.9);
  auto cardinality = MaxTuplesPerRelation(5);
  auto answer = engine_->Answer(PrecisQuery{{"Woody Allen"}}, *degree,
                                *cardinality, DbGenOptions(), &ctx);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->report.degradation.total_retries(), 1u);
  EXPECT_EQ(answer->report.degradation.total_dropped_tuples(), 0u);
  EXPECT_FALSE(answer->report.degraded());  // retried ≠ degraded
  EXPECT_TRUE(answer->report.fault_tainted);

  // Four consecutive failing checks exhaust the 4-attempt policy: the
  // tuple is dropped and the answer reports the degradation.
  injector.Reseed(1);
  injector.SetSchedule(FaultSite::kTupleFetch,
                       FaultSchedule::Steps({1, 2, 3, 4}));
  ExecutionContext ctx2;
  ctx2.SetFaultInjector(&injector);
  ctx2.set_retry_policy(policy);
  auto degraded = engine_->Answer(PrecisQuery{{"Woody Allen"}}, *degree,
                                  *cardinality, DbGenOptions(), &ctx2);
  ASSERT_TRUE(degraded.ok());
  EXPECT_TRUE(degraded->report.degraded());
  EXPECT_EQ(degraded->report.degradation.total_dropped_tuples(), 1u);
  EXPECT_EQ(degraded->report.degradation.total_retries(), 3u);
}

TEST_F(FaultChaosTest, FaultsOffIsByteIdenticalToNoInjector) {
  // A present-but-disarmed injector must not change anything: no taint,
  // no degradation, same bytes as a run with no injector at all.
  auto degree = MinPathWeight(0.9);
  auto cardinality = MaxTuplesPerRelation(5);
  auto clean = engine_->Answer(PrecisQuery{{"Woody Allen"}}, *degree,
                               *cardinality, DbGenOptions());
  ASSERT_TRUE(clean.ok());

  FaultInjector injector(12345);  // never armed
  ExecutionContext ctx;
  ctx.SetFaultInjector(&injector);
  auto with_idle = engine_->Answer(PrecisQuery{{"Woody Allen"}}, *degree,
                                   *cardinality, DbGenOptions(), &ctx);
  ASSERT_TRUE(with_idle.ok());
  EXPECT_EQ(AnswerToJson(*clean), AnswerToJson(*with_idle));
  EXPECT_FALSE(with_idle->report.fault_tainted);
  EXPECT_FALSE(with_idle->report.degraded());
}

// ---------------------------------------------------------------------------
// Cache-taint regression: a cache hit always means a clean, complete answer.

class CacheTaintTest : public FaultChaosTest {};

TEST_F(CacheTaintTest, ArmedInjectorBlocksCacheInsertion) {
  engine_->set_caches_enabled(true);
  // Armed but silent (p = 0): the answer is bit-for-bit clean, yet the run
  // is tainted — it must NOT be inserted (the fingerprint cannot see the
  // injector, so a cached entry would shadow future faulted runs).
  FaultInjector injector(1);
  injector.SetSchedule(FaultSite::kTupleFetch,
                       FaultSchedule::Probability(0.0));
  ASSERT_TRUE(injector.armed());

  auto degree = MinPathWeight(0.9);
  auto cardinality = MaxTuplesPerRelation(5);
  // Twice: a second sight would be stored if the first had reached Put.
  for (int i = 0; i < 2; ++i) {
    ExecutionContext ctx;
    ctx.SetFaultInjector(&injector);
    auto tainted = engine_->AnswerShared(PrecisQuery{{"Woody Allen"}},
                                         *degree, *cardinality,
                                         DbGenOptions(), &ctx);
    ASSERT_TRUE(tainted.ok());
  }
  EXPECT_EQ(engine_->answer_cache_stats().inserts, 0u);
  EXPECT_EQ(engine_->answer_cache_stats().rejected, 0u);
  EXPECT_EQ(engine_->schema_cache_stats().inserts, 0u);
  EXPECT_EQ(engine_->schema_cache_stats().rejected, 0u);

  // A clean run of the same query does insert, on its second sight.
  ASSERT_TRUE(engine_
                  ->AnswerShared(PrecisQuery{{"Woody Allen"}}, *degree,
                                 *cardinality, DbGenOptions())
                  .ok());
  auto clean = engine_->AnswerShared(PrecisQuery{{"Woody Allen"}}, *degree,
                                     *cardinality, DbGenOptions());
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(engine_->answer_cache_stats().inserts, 1u);
  EXPECT_EQ(engine_->schema_cache_stats().inserts, 1u);

  // Lookups stay allowed while armed: the stored answer is clean by
  // construction, so handing it out is always safe (and skips the faulty
  // storage path entirely).
  ExecutionContext ctx2;
  ctx2.SetFaultInjector(&injector);
  auto hit = engine_->AnswerShared(PrecisQuery{{"Woody Allen"}}, *degree,
                                   *cardinality, DbGenOptions(), &ctx2);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit->get(), clean->get());  // the very same stored object
  EXPECT_FALSE((*hit)->report.fault_tainted);
  EXPECT_EQ(engine_->answer_cache_stats().hits, 1u);
}

TEST_F(CacheTaintTest, DegradedAnswerNeverEntersTheCache) {
  engine_->set_caches_enabled(true);
  FaultInjector injector(8);
  injector.SetSchedule(FaultSite::kTupleFetch,
                       FaultSchedule::Probability(1.0));
  auto degree = MinPathWeight(0.9);
  auto cardinality = MaxTuplesPerRelation(5);
  RetryPolicy policy;
  policy.initial_backoff_ns = 0;
  // Twice: a second sight would be stored if the first had reached Put.
  std::shared_ptr<const PrecisAnswer> degraded;
  for (int i = 0; i < 2; ++i) {
    ExecutionContext ctx;
    ctx.set_retry_policy(policy);
    ctx.SetFaultInjector(&injector);
    auto answer = engine_->AnswerShared(PrecisQuery{{"Woody Allen"}}, *degree,
                                        *cardinality, DbGenOptions(), &ctx);
    ASSERT_TRUE(answer.ok());
    EXPECT_TRUE((*answer)->report.degraded());
    degraded = *answer;
  }
  EXPECT_EQ(engine_->answer_cache_stats().inserts, 0u);
  EXPECT_EQ(engine_->answer_cache_stats().rejected, 0u);

  // The next clean query must rebuild from scratch — and produce a full
  // answer, not the degraded one — and is stored on its second sight.
  auto clean = engine_->AnswerShared(PrecisQuery{{"Woody Allen"}}, *degree,
                                     *cardinality, DbGenOptions());
  ASSERT_TRUE(clean.ok());
  EXPECT_FALSE((*clean)->report.degraded());
  EXPECT_NE(AnswerToJson(*degraded), AnswerToJson(**clean));
  ASSERT_TRUE(engine_
                  ->AnswerShared(PrecisQuery{{"Woody Allen"}}, *degree,
                                 *cardinality, DbGenOptions())
                  .ok());
  EXPECT_EQ(engine_->answer_cache_stats().inserts, 1u);
}

TEST_F(CacheTaintTest, TruncatedAnswerNeverEntersTheCache) {
  engine_->set_caches_enabled(true);
  auto degree = MinPathWeight(0.9);
  auto cardinality = MaxTuplesPerRelation(5);
  // Twice: a second sight would be stored if the first had reached Put.
  for (int i = 0; i < 2; ++i) {
    ExecutionContext ctx;
    ctx.SetAccessBudget(3);  // stops mid-generation
    auto partial = engine_->AnswerShared(PrecisQuery{{"Woody Allen"}},
                                         *degree, *cardinality,
                                         DbGenOptions(), &ctx);
    ASSERT_TRUE(partial.ok());
    ASSERT_TRUE((*partial)->report.partial());
  }
  EXPECT_EQ(engine_->answer_cache_stats().inserts, 0u);
  EXPECT_EQ(engine_->answer_cache_stats().rejected, 0u);
}

// ---------------------------------------------------------------------------
// Translator graceful degradation.

TEST_F(FaultChaosTest, TranslatorRendersPlaceholderOnCatalogFault) {
  auto catalog = BuildMoviesTemplateCatalog();
  ASSERT_TRUE(catalog.ok());
  Translator translator(&*catalog);
  auto degree = MinPathWeight(0.9);
  auto cardinality = MaxTuplesPerRelation(5);
  auto answer = engine_->Answer(PrecisQuery{{"Woody Allen"}}, *degree,
                                *cardinality, DbGenOptions());
  ASSERT_TRUE(answer.ok());

  // Catalog permanently down: the narrative degrades to per-occurrence
  // placeholders but Render still succeeds (answer = database; the text is
  // garnish).
  FaultInjector injector(4);
  injector.SetSchedule(
      FaultSite::kTranslatorCatalog,
      FaultSchedule::EveryNth(1, FaultKind::kPermanentError));
  ExecutionContext ctx;
  RetryPolicy policy;
  policy.initial_backoff_ns = 0;
  ctx.set_retry_policy(policy);
  ctx.SetFaultInjector(&injector);
  auto text = translator.Render(*answer, &ctx);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("narrative unavailable"), std::string::npos);

  // One transient blip: the retry recovers and the full narrative renders.
  FaultInjector blip(4);
  blip.SetSchedule(FaultSite::kTranslatorCatalog, FaultSchedule::Steps({1}));
  ExecutionContext ctx2;
  ctx2.set_retry_policy(policy);
  ctx2.SetFaultInjector(&blip);
  auto recovered = translator.Render(*answer, &ctx2);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->find("narrative unavailable"), std::string::npos);
  auto clean = translator.Render(*answer);
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(*recovered, *clean);
}

// ---------------------------------------------------------------------------
// PrecisService under faults and overload.

class ServiceFaultTest : public FaultChaosTest {
 protected:
  ServiceRequest MakeRequest(const std::string& token) {
    ServiceRequest request;
    request.query.tokens = {token};
    request.min_path_weight = 0.9;
    request.tuples_per_relation = 5;
    return request;
  }
};

TEST_F(ServiceFaultTest, LoadSheddingRejectsWithTypedStatus) {
  PrecisService::Options options;
  options.num_workers = 1;
  options.max_queue_depth = 2;
  auto service = PrecisService::Create(engine_.get(), options);
  ASSERT_TRUE(service.ok());

  // SubmitBatch enqueues under one lock while the idle worker waits on the
  // condition variable, so exactly max_queue_depth requests are admitted
  // and the rest shed — deterministically.
  std::vector<ServiceRequest> requests;
  for (int i = 0; i < 10; ++i) requests.push_back(MakeRequest("Woody Allen"));
  auto futures = (*service)->SubmitBatch(std::move(requests));
  ASSERT_EQ(futures.size(), 10u);
  size_t admitted = 0;
  size_t shed = 0;
  for (auto& future : futures) {
    ServiceResponse response = future.get();
    if (response.status.ok()) {
      ++admitted;
    } else {
      EXPECT_TRUE(response.status.IsOverloaded())
          << response.status.ToString();
      ++shed;
    }
  }
  EXPECT_EQ(admitted, 2u);
  EXPECT_EQ(shed, 8u);
  PrecisService::Metrics metrics = (*service)->metrics();
  EXPECT_EQ(metrics.queries_shed, 8u);
  EXPECT_EQ(metrics.queries_served, 2u);  // shed requests are not "served"
}

TEST_F(ServiceFaultTest, FaultedServiceDegradesAndCountsIt) {
  FaultInjector injector(6);
  injector.SetSchedule(FaultSite::kTupleFetch,
                       FaultSchedule::Probability(1.0));
  PrecisService::Options options;
  options.num_workers = 2;
  options.fault_injector = &injector;
  options.retry_policy.initial_backoff_ns = 0;
  auto service = PrecisService::Create(engine_.get(), options);
  ASSERT_TRUE(service.ok());

  std::vector<ServiceRequest> requests;
  for (const std::string& token : kTokens) requests.push_back(MakeRequest(token));
  auto futures = (*service)->SubmitBatch(std::move(requests));
  size_t degraded = 0;
  for (auto& future : futures) {
    ServiceResponse response = future.get();
    EXPECT_TRUE(response.status.ok()) << response.status.ToString();
    if (response.degraded) {
      ++degraded;
      EXPECT_GT(response.dropped_tuples, 0u);
    }
  }
  EXPECT_GT(degraded, 0u);
  PrecisService::Metrics metrics = (*service)->metrics();
  EXPECT_EQ(metrics.degraded_answers, degraded);
  EXPECT_GT(metrics.dropped_tuples_total, 0u);
  EXPECT_GT(metrics.retries_total, 0u);
  EXPECT_EQ(metrics.failures, 0u);
}

TEST_F(ServiceFaultTest, SingleWorkerFaultedServiceIsDeterministic) {
  auto run = [&](FaultInjector* injector) {
    injector->Reseed(11);
    PrecisService::Options options;
    options.num_workers = 1;  // one worker ⇒ one global check order
    options.fault_injector = injector;
    options.retry_policy.initial_backoff_ns = 0;
    auto service = PrecisService::Create(engine_.get(), options);
    EXPECT_TRUE(service.ok());
    std::vector<std::string> outcomes;
    for (const std::string& token : kTokens) {
      ServiceResponse response = (*service)->Execute(MakeRequest(token));
      EXPECT_TRUE(response.status.ok());
      outcomes.push_back(response.answer != nullptr
                             ? AnswerToJson(*response.answer) + "|" +
                                   response.answer->report.degradation
                                       .ToString()
                             : "<none>");
    }
    return outcomes;
  };
  FaultInjector injector(11);
  injector.SetAll(FaultSchedule::Probability(0.05));
  EXPECT_EQ(run(&injector), run(&injector));
}

}  // namespace
}  // namespace precis
