// Fuzz-lite: seeded random inputs against every parser in the codebase.
//
// Not a coverage-guided fuzzer — a deterministic robustness sweep: random
// byte soup and mutated near-valid inputs must always produce either a
// well-formed result or an error Status, never a crash or a hang.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/execution_context.h"
#include "common/fault_injection.h"
#include "common/random.h"
#include "datagen/movies_dataset.h"
#include "materialized.h"
#include "precis/engine.h"
#include "precis/json_export.h"
#include "semistructured/document.h"
#include "sequential_walk.h"
#include "semistructured/shredder.h"
#include "storage/serialization.h"
#include "translator/catalog.h"
#include "translator/template.h"

namespace precis {
namespace {

/// Random strings over an alphabet that stresses each grammar's special
/// characters.
std::string RandomSoup(Rng* rng, const std::string& alphabet, size_t max_len) {
  size_t len = static_cast<size_t>(rng->Uniform(0, static_cast<int64_t>(max_len)));
  std::string out;
  out.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    out.push_back(alphabet[rng->Index(alphabet.size())]);
  }
  return out;
}

/// Mutates a valid input: deletes, duplicates or flips random characters.
std::string Mutate(const std::string& base, Rng* rng, int edits) {
  std::string out = base;
  for (int e = 0; e < edits && !out.empty(); ++e) {
    size_t pos = rng->Index(out.size());
    switch (rng->Uniform(0, 2)) {
      case 0:
        out.erase(pos, 1);
        break;
      case 1:
        out.insert(pos, 1, out[pos]);
        break;
      default:
        out[pos] = static_cast<char>('!' + rng->Index(90));
    }
  }
  return out;
}

class FuzzLiteTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzLiteTest, TemplateParserNeverCrashes) {
  Rng rng(GetParam());
  const std::string alphabet = "@$%[](){}<>=i aARITYOFupperX_1\"\\";
  for (int i = 0; i < 400; ++i) {
    std::string input = RandomSoup(&rng, alphabet, 60);
    auto t = Template::Parse(input);
    if (t.ok()) {
      // Parsed templates must also evaluate (or error) without crashing.
      TemplateContext ctx;
      auto rendered = t->Evaluate(ctx, nullptr);
      (void)rendered;
    }
  }
}

TEST_P(FuzzLiteTest, TemplateMutationsOfValidSource) {
  Rng rng(GetParam() + 1000);
  const std::string base =
      "[i<arityof(@TITLE)]{@TITLE[$i$] (@YEAR[$i$]), }"
      "[i=arityof(@TITLE)]{@TITLE[$i$].} %MACRO% $upper(@X)$";
  for (int i = 0; i < 400; ++i) {
    std::string input = Mutate(base, &rng, 1 + static_cast<int>(rng.Index(5)));
    auto t = Template::Parse(input);
    if (t.ok()) {
      TemplateContext ctx;
      TemplateCatalog catalog;
      auto rendered = t->Evaluate(ctx, &catalog);
      (void)rendered;
    }
  }
}

TEST_P(FuzzLiteTest, DocumentParserNeverCrashes) {
  Rng rng(GetParam() + 2000);
  const std::string alphabet = "<>/=\"& ampltgquot;abX-_!";
  for (int i = 0; i < 400; ++i) {
    std::string input = RandomSoup(&rng, alphabet, 80);
    auto doc = ParseDocument(input);
    if (doc.ok()) {
      // Anything that parses must shred-or-error and re-render cleanly.
      auto xml = (*doc)->ToXml();
      EXPECT_FALSE(xml.empty());
      auto shredded = ShreddedDocument::Shred(**doc);
      (void)shredded;
    }
  }
}

TEST_P(FuzzLiteTest, DocumentMutationsOfValidSource) {
  Rng rng(GetParam() + 3000);
  const std::string base =
      "<lib name=\"x\"><b isbn=\"1\"><t>A &amp; B</t></b><b isbn=\"2\"/>"
      "</lib>";
  for (int i = 0; i < 400; ++i) {
    std::string input = Mutate(base, &rng, 1 + static_cast<int>(rng.Index(4)));
    auto doc = ParseDocument(input);
    if (doc.ok()) {
      auto again = ParseDocument((*doc)->ToXml());
      EXPECT_TRUE(again.ok());  // re-rendering is always reparseable
    }
  }
}

TEST_P(FuzzLiteTest, SerializationLoaderNeverCrashes) {
  Rng rng(GetParam() + 4000);
  const std::string base =
      "PRECISDB 1\nDATABASE d\nRELATION R 2\nATTR a INT64 PK\n"
      "ATTR b STRING\nINDEX R a\nDATA R 2\n1\thello\n2\t\\N\n";
  for (int i = 0; i < 300; ++i) {
    std::string input = Mutate(base, &rng, 1 + static_cast<int>(rng.Index(6)));
    std::istringstream in(input);
    auto db = LoadDatabase(&in);
    if (db.ok()) {
      // A successfully loaded database must be internally consistent.
      EXPECT_TRUE(db->ValidateForeignKeys().ok());
    }
  }
}

TEST_P(FuzzLiteTest, ChaosQueriesUnderInjectedFaultsNeverCrash) {
  // Fault-injection sweep over the movies workload (DESIGN.md §12): with
  // every storage site armed at p ∈ {0.01, 0.1}, randomized queries at
  // randomized parallelism must produce an OK (possibly degraded) answer or
  // the typed transient error — never a crash, hang, or malformed database —
  // and an identical rerun (same injector seed, same query) must reproduce
  // the identical outcome — the one the sequential walk oracle produces.
  MoviesConfig config;
  config.num_movies = 120;
  auto ds = MoviesDataset::Create(config);
  ASSERT_TRUE(ds.ok());
  auto engine = PrecisEngine::Create(&ds->db(), &ds->graph());
  ASSERT_TRUE(engine.ok());

  const std::vector<std::string> tokens = {
      "Woody Allen", "Match Point",        "Comedy", "Drama",
      "London",      "Scarlett Johansson", "1996",   "nonexistent token"};
  const std::vector<size_t> fanouts = {1, 2, 8};

  Rng rng(GetParam() + 5000);
  FaultInjector injector(GetParam());
  for (double p : {0.01, 0.1}) {
    injector.SetAll(FaultSchedule::Probability(p));
    for (int i = 0; i < 25; ++i) {
      const std::string& token = tokens[rng.Index(tokens.size())];
      const size_t parallelism = fanouts[rng.Index(fanouts.size())];
      const uint64_t fault_seed = static_cast<uint64_t>(rng.Uniform(0, 1u << 20));

      // `oracle` answers through the sequential walk instead.
      auto run = [&](bool oracle) -> std::string {
        injector.Reseed(fault_seed);
        ExecutionContext ctx;
        ctx.SetFaultInjector(&injector);
        RetryPolicy policy;
        policy.initial_backoff_ns = 0;  // decisions only; no sleeping
        ctx.set_retry_policy(policy);
        auto degree = MinPathWeight(0.9);
        auto cardinality = MaxTuplesPerRelation(4);
        DbGenOptions options;
        options.parallelism = parallelism;
        auto answer =
            oracle ? OracleAnswer(ds->db(), ds->graph(), engine->index(),
                                  PrecisQuery{{token}}, *degree, *cardinality,
                                  options, &ctx)
                   : engine->Answer(PrecisQuery{{token}}, *degree,
                                    *cardinality, options, &ctx);
        if (!answer.ok()) {
          // The only failure the injector can surface is the typed
          // transient error.
          EXPECT_TRUE(answer.status().IsUnavailable())
              << answer.status().ToString();
          return "error:" + answer.status().ToString();
        }
        EXPECT_TRUE(Materialized(answer->database).ValidateForeignKeys().ok());
        EXPECT_TRUE(answer->report.fault_tainted);
        return AnswerToJson(*answer) + "|" +
               answer->report.degradation.ToString();
      };
      std::string first = run(false);
      std::string again = run(false);
      EXPECT_EQ(first, again)
          << "p=" << p << " token=" << token << " parallelism=" << parallelism
          << " fault_seed=" << fault_seed;
      EXPECT_EQ(first, run(true))
          << "oracle p=" << p << " token=" << token
          << " parallelism=" << parallelism << " fault_seed=" << fault_seed;
    }
  }
}

TEST_P(FuzzLiteTest, ShardedChaosMatchesSingleEngineUnderFaults) {
  // The partitioned arm of the chaos sweep: the same randomized
  // fault-injected queries against engines over 2 and 5 partitions must
  // not merely be stable across reruns — every run must produce the
  // byte-identical outcome the one-partition engine produces for the same
  // injector seed (the planner replays the identical fault-check sequence;
  // DESIGN.md §15).
  MoviesConfig config;
  config.num_movies = 120;
  auto ds = MoviesDataset::Create(config);
  ASSERT_TRUE(ds.ok());
  auto engine = PrecisEngine::Create(&ds->db(), &ds->graph());
  ASSERT_TRUE(engine.ok());
  std::vector<std::unique_ptr<PrecisEngine>> sharded;
  for (size_t n : {2u, 5u}) {
    auto e = PrecisEngine::Create(&ds->db(), &ds->graph(), n);
    ASSERT_TRUE(e.ok());
    sharded.push_back(std::make_unique<PrecisEngine>(std::move(*e)));
  }

  const std::vector<std::string> tokens = {
      "Woody Allen", "Match Point", "Comedy", "Drama",
      "London",      "1996",        "nonexistent token"};

  Rng rng(GetParam() + 6000);
  FaultInjector injector(GetParam());
  injector.SetAll(FaultSchedule::Probability(0.05));
  for (int i = 0; i < 12; ++i) {
    const std::string& token = tokens[rng.Index(tokens.size())];
    const uint64_t fault_seed = static_cast<uint64_t>(rng.Uniform(0, 1u << 20));

    // `shard_engine == nullptr` runs the one-partition engine; `oracle` the
    // sequential walk.
    auto run = [&](const PrecisEngine* shard_engine,
                   bool oracle = false) -> std::string {
      injector.Reseed(fault_seed);
      ExecutionContext ctx;
      ctx.SetFaultInjector(&injector);
      RetryPolicy policy;
      policy.initial_backoff_ns = 0;  // decisions only; no sleeping
      ctx.set_retry_policy(policy);
      auto degree = MinPathWeight(0.9);
      auto cardinality = MaxTuplesPerRelation(4);
      auto answer =
          shard_engine != nullptr
              ? shard_engine->Answer(PrecisQuery{{token}}, *degree,
                                     *cardinality, DbGenOptions(), &ctx)
          : oracle ? OracleAnswer(ds->db(), ds->graph(), engine->index(),
                                  PrecisQuery{{token}}, *degree, *cardinality,
                                  DbGenOptions(), &ctx)
                   : engine->Answer(PrecisQuery{{token}}, *degree,
                                    *cardinality, DbGenOptions(), &ctx);
      if (!answer.ok()) {
        EXPECT_TRUE(answer.status().IsUnavailable())
            << answer.status().ToString();
        return "error:" + answer.status().ToString();
      }
      EXPECT_TRUE(Materialized(answer->database).ValidateForeignKeys().ok());
      return AnswerToJson(*answer) + "|" +
             answer->report.degradation.ToString();
    };
    const std::string expect = run(nullptr);
    EXPECT_EQ(run(nullptr, /*oracle=*/true), expect)
        << "oracle token=" << token << " fault_seed=" << fault_seed;
    for (const auto& shard_engine : sharded) {
      EXPECT_EQ(run(shard_engine.get()), expect)
          << "partitions=" << shard_engine->num_partitions()
          << " token=" << token << " fault_seed=" << fault_seed;
    }
  }
}

TEST_P(FuzzLiteTest, BodyCacheStaysCoherentUnderInsertQueryInterleavings) {
  // Randomized interleavings of inserts (each bumps a mutation epoch) and
  // repeated rendered queries against fully-cached engines — over one
  // partition and over three. Whatever the interleaving, the served body bytes must always
  // equal a fresh uncached render of the current database state: a stale
  // memoized body surviving an epoch bump is exactly the bug this hunts
  // (DESIGN.md §16).
  MoviesConfig config;
  config.num_movies = 120;
  auto ds = MoviesDataset::Create(config);
  ASSERT_TRUE(ds.ok());
  auto cached = PrecisEngine::Create(&ds->db(), &ds->graph());
  ASSERT_TRUE(cached.ok());
  cached->set_caches_enabled(true);
  auto fresh = PrecisEngine::Create(&ds->db(), &ds->graph());
  ASSERT_TRUE(fresh.ok());
  auto sharded = PrecisEngine::Create(&ds->db(), &ds->graph(), 3);
  ASSERT_TRUE(sharded.ok());
  sharded->set_caches_enabled(true);

  auto genre = ds->db().GetRelation("GENRE");
  ASSERT_TRUE(genre.ok());
  auto movie = ds->db().GetRelation("MOVIE");
  ASSERT_TRUE(movie.ok());
  ASSERT_GT((*movie)->num_tuples(), 0u);

  const std::vector<std::string> tokens = {"Woody Allen", "Comedy", "Drama",
                                           "Match Point"};
  Rng rng(GetParam() + 7000);
  auto degree = MinPathWeight(0.9);
  auto cardinality = MaxTuplesPerRelation(4);
  int64_t next_gid = 5000000 + static_cast<int64_t>(GetParam()) * 10000;
  for (int i = 0; i < 30; ++i) {
    if (rng.Index(3) == 0) {
      // One insert into the source database, which every engine reads in
      // place.
      int64_t mid = (*movie)->tuple(rng.Index((*movie)->num_tuples()))[0]
                        .AsInt64();
      Tuple tuple{Value(next_gid++), Value(mid), Value("fuzzwave")};
      ASSERT_TRUE((*genre)->Insert(std::move(tuple)).ok());
      continue;
    }
    const std::string& token = tokens[rng.Index(tokens.size())];
    auto expect = fresh->Answer(PrecisQuery{{token}}, *degree, *cardinality);
    ASSERT_TRUE(expect.ok());
    const std::string expected = AnswerToJson(*expect);

    // One to three calls in a row: a body is stored on its second sight
    // under one epoch and served from the third.
    const size_t calls = 1 + rng.Index(3);
    for (size_t call = 0; call < calls; ++call) {
      auto single = cached->AnswerSharedRendered(PrecisQuery{{token}},
                                                 *degree, *cardinality);
      ASSERT_TRUE(single.ok());
      ASSERT_NE(single->body_json, nullptr);
      EXPECT_EQ(*single->body_json, expected)
          << "single engine served stale bytes for '" << token
          << "' at step " << i << " call " << call;
      auto shard = sharded->AnswerSharedRendered(PrecisQuery{{token}},
                                                 *degree, *cardinality);
      ASSERT_TRUE(shard.ok());
      ASSERT_NE(shard->body_json, nullptr);
      EXPECT_EQ(*shard->body_json, expected)
          << "partitioned engine served stale bytes for '" << token
          << "' at step " << i << " call " << call;
    }
  }
  // The coherence checks above cover memoized bodies only if some were
  // served.
  EXPECT_GT(cached->body_cache_stats().hits, 0u);
  EXPECT_GT(sharded->body_cache_stats().hits, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzLiteTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace precis
