// Determinism suite for the Fig. 5 planner (DESIGN.md §11, §15): for every
// strategy, option and stop mode, the planner must produce a database that
// is BYTE-IDENTICAL (via storage/serialization) to the sequential walk
// oracle, with an equal DbGenReport — run inline, on pools of 1, 2 and 8
// threads, and as 2- and 4-partition queries under a healthy fault plan
// over the same database.

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/execution_context.h"
#include "common/task_pool.h"
#include "datagen/movies_dataset.h"
#include "materialized.h"
#include "precis/database_generator.h"
#include "precis/schema_generator.h"
#include "precis/tuple_weights.h"
#include "sequential_walk.h"
#include "shard/shard_health.h"
#include "shard/source_partitions.h"
#include "storage/serialization.h"

namespace precis {
namespace {

struct RunResult {
  bool ok = false;
  std::string bytes;  // SaveDatabase text of the emitted database
  DbGenReport report;
  StopReason ctx_stop = StopReason::kNone;
  AccessStats stats;  // the run's per-query charges
};

/// One way of producing a result database: the oracle walk or the planner
/// over some partitioning of the database, writing its report.
using Generator =
    std::function<Result<Database>(ExecutionContext* ctx, DbGenReport*)>;

/// One generation run under a fresh context (attached when `configure` is
/// given, or when `with_context` asks for per-query stats).
RunResult RunOnce(const Generator& generate,
                  const std::function<void(ExecutionContext&)>& configure,
                  bool with_context = false) {
  RunResult out;
  ExecutionContext ctx;
  if (configure) configure(ctx);
  DbGenReport report;
  auto result =
      generate(configure || with_context ? &ctx : nullptr, &report);
  if (!result.ok()) {
    ADD_FAILURE() << "Generate failed: " << result.status().ToString();
    return out;
  }
  std::ostringstream os;
  Status saved = SaveDatabase(*result, &os);
  if (!saved.ok()) {
    ADD_FAILURE() << "SaveDatabase failed: " << saved.ToString();
    return out;
  }
  out.ok = true;
  out.bytes = os.str();
  out.report = std::move(report);
  out.ctx_stop = ctx.stop_reason();
  out.stats = ctx.stats();
  return out;
}

Generator Oracle(const Database& db, const ResultSchema& schema,
                 const SeedTids& seeds, const CardinalityConstraint& c,
                 const DbGenOptions& options) {
  return [&db, &schema, &seeds, &c, options](ExecutionContext* ctx,
                                             DbGenReport* report) {
    return SequentialWalk(db, schema, seeds, c, options, ctx, report);
  };
}

Generator Planner(const Database& db, const ResultSchema& schema,
                  const SeedTids& seeds, const CardinalityConstraint& c,
                  const DbGenOptions& options,
                  const PartitionedQuery& partitioned = {}) {
  return [&db, &schema, &seeds, &c, options, partitioned](
             ExecutionContext* ctx, DbGenReport* report) {
    ResultDatabaseGenerator gen(&db);
    auto result = gen.Generate(schema, seeds, c, options, ctx, partitioned);
    *report = gen.last_report();
    return Materialized(result);
  };
}

void ExpectSameOutcome(const RunResult& oracle, const RunResult& got) {
  ASSERT_TRUE(oracle.ok);
  ASSERT_TRUE(got.ok);
  EXPECT_EQ(got.bytes, oracle.bytes) << "emitted database differs";
  EXPECT_EQ(got.report.executed_edges, oracle.report.executed_edges);
  EXPECT_EQ(got.report.truncated_relations,
            oracle.report.truncated_relations);
  EXPECT_EQ(got.report.dropped_foreign_keys,
            oracle.report.dropped_foreign_keys);
  EXPECT_EQ(got.report.total_tuples, oracle.report.total_tuples);
  EXPECT_EQ(got.report.sql_trace, oracle.report.sql_trace);
  EXPECT_EQ(got.report.degradation.ToString(),
            oracle.report.degradation.ToString());
  EXPECT_EQ(got.report.fault_tainted, oracle.report.fault_tainted);
  EXPECT_EQ(static_cast<int>(got.report.stop_reason),
            static_cast<int>(oracle.report.stop_reason));
  EXPECT_EQ(static_cast<int>(got.ctx_stop), static_cast<int>(oracle.ctx_stop));
}

/// Runs the oracle walk, then the planner inline, on pools of 1/2/8
/// threads (parallelism 2/2/8, including the degenerate
/// parallelism=2-on-1-thread case) and over 2 and 4 partitions under a
/// healthy plan, asserting byte-identity every time.
void ExpectDeterministic(
    const Database& db, const ResultSchema& schema, const SeedTids& seeds,
    const CardinalityConstraint& c, DbGenOptions base,
    const std::function<void(ExecutionContext&)>& configure = nullptr) {
  base.parallelism = 1;
  base.pool = nullptr;
  RunResult oracle = RunOnce(Oracle(db, schema, seeds, c, base), configure);
  ASSERT_TRUE(oracle.ok);

  {
    SCOPED_TRACE("inline");
    ExpectSameOutcome(
        oracle, RunOnce(Planner(db, schema, seeds, c, base), configure));
  }

  TaskPool pool1(1);
  TaskPool pool2(2);
  TaskPool pool8(8);
  struct Config {
    size_t parallelism;
    TaskPool* pool;
    const char* label;
  };
  const Config configs[] = {
      {2, &pool1, "parallelism=2 on 1-thread pool"},
      {2, &pool2, "parallelism=2 on 2-thread pool"},
      {8, &pool8, "parallelism=8 on 8-thread pool"},
  };
  for (const Config& config : configs) {
    SCOPED_TRACE(config.label);
    DbGenOptions options = base;
    options.parallelism = config.parallelism;
    options.pool = config.pool;
    ExpectSameOutcome(
        oracle, RunOnce(Planner(db, schema, seeds, c, options), configure));
  }

  for (size_t partitions : {size_t{2}, size_t{4}}) {
    SCOPED_TRACE("partitions=" + std::to_string(partitions));
    const SourcePartitions sharded(&db, partitions);
    const ShardQueryFaultPlan healthy =
        DecideShardFaultPlan(partitions, /*health=*/nullptr, /*ctx=*/nullptr,
                             /*hedging=*/false);
    DbGenOptions options = base;
    options.pool = &pool2;
    ExpectSameOutcome(
        oracle, RunOnce(Planner(db, schema, seeds, c, options,
                                PartitionedQuery{&sharded, &healthy}),
                        configure));
  }
}

/// An inline planner run charges the oracle's probes, scans and statements
/// exactly, and never more tuple fetches (duplicates are not re-fetched).
void ExpectInlineStatsMatchOracle(const Database& db,
                                  const ResultSchema& schema,
                                  const SeedTids& seeds,
                                  const CardinalityConstraint& c,
                                  const DbGenOptions& options) {
  RunResult oracle = RunOnce(Oracle(db, schema, seeds, c, options), nullptr,
                             /*with_context=*/true);
  RunResult planned = RunOnce(Planner(db, schema, seeds, c, options), nullptr,
                              /*with_context=*/true);
  ASSERT_TRUE(oracle.ok);
  ASSERT_TRUE(planned.ok);
  EXPECT_EQ(planned.bytes, oracle.bytes);
  EXPECT_EQ(planned.stats.index_probes.load(),
            oracle.stats.index_probes.load());
  EXPECT_EQ(planned.stats.sequential_scans.load(),
            oracle.stats.sequential_scans.load());
  EXPECT_EQ(planned.stats.statements.load(), oracle.stats.statements.load());
  EXPECT_LE(planned.stats.tuple_fetches.load(),
            oracle.stats.tuple_fetches.load());
  // Every emitted tuple was materialized exactly once.
  EXPECT_EQ(planned.stats.tuple_fetches.load(), planned.report.total_tuples);
}

// ===== Hand-built two-relation fixture (mirrors database_generator_test) ==

class ParallelDbGenSmallTest : public ::testing::Test {
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
    for (int64_t did = 1; did <= 4; ++did) {
      ASSERT_TRUE(
          (*dr)->Insert({did, "Director " + std::to_string(did)}).ok());
    }
    int64_t mid = 1;
    for (int64_t did = 1; did <= 4; ++did) {
      for (int i = 0; i < 5; ++i) {
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
    auto schema =
        schema_gen.Generate({std::string("D")}, *MinPathWeight(0.9));
    ASSERT_TRUE(schema.ok());
    schema_ = std::make_unique<ResultSchema>(std::move(*schema));
    d_id_ = *graph_->RelationId("D");
  }

  SeedTids AllDirectorSeeds() { return {{d_id_, {0, 1, 2, 3}}}; }

  Database db_;
  std::unique_ptr<SchemaGraph> graph_;
  std::unique_ptr<ResultSchema> schema_;
  RelationNodeId d_id_ = 0;
};

TEST_F(ParallelDbGenSmallTest, NaiveQIsByteIdentical) {
  DbGenOptions options;
  options.strategy = SubsetStrategy::kNaiveQ;
  ExpectDeterministic(db_, *schema_, AllDirectorSeeds(),
                      *MaxTuplesPerRelation(3), options);
}

TEST_F(ParallelDbGenSmallTest, RoundRobinIsByteIdentical) {
  DbGenOptions options;
  options.strategy = SubsetStrategy::kRoundRobin;
  ExpectDeterministic(db_, *schema_, AllDirectorSeeds(),
                      *MaxTuplesPerRelation(3), options);
}

TEST_F(ParallelDbGenSmallTest, AutoStrategyIsByteIdentical) {
  DbGenOptions options;
  options.strategy = SubsetStrategy::kAuto;
  ExpectDeterministic(db_, *schema_, AllDirectorSeeds(),
                      *MaxTuplesPerRelation(3), options);
}

TEST_F(ParallelDbGenSmallTest, UnlimitedCardinalityIsByteIdentical) {
  ExpectDeterministic(db_, *schema_, AllDirectorSeeds(),
                      *UnlimitedCardinality(), DbGenOptions());
}

TEST_F(ParallelDbGenSmallTest, SqlTraceIsReplicatedExactly) {
  DbGenOptions options;
  options.strategy = SubsetStrategy::kRoundRobin;
  options.trace_sql = true;
  ExpectDeterministic(db_, *schema_, AllDirectorSeeds(),
                      *MaxTuplesPerRelation(3), options);
}

TEST_F(ParallelDbGenSmallTest, TupleWeightedTruncationIsByteIdentical) {
  // Later movies weigh more, so weighted truncation must pick tids in
  // descending-weight order — in both modes, identically.
  TupleWeightStore store;
  std::vector<double> weights;
  for (size_t tid = 0; tid < 20; ++tid) {
    weights.push_back(0.05 * static_cast<double>(tid + 1));
  }
  ASSERT_TRUE(store.SetWeights(db_, "M", std::move(weights)).ok());
  DbGenOptions options;
  options.strategy = SubsetStrategy::kNaiveQ;
  options.tuple_weights = &store;
  ExpectDeterministic(db_, *schema_, AllDirectorSeeds(),
                      *MaxTuplesPerRelation(4), options);
}

TEST_F(ParallelDbGenSmallTest, SimulatedLatencyDoesNotChangeBytes) {
  DbGenOptions options;
  options.strategy = SubsetStrategy::kRoundRobin;
  options.simulated_access_latency_ns = 20000;  // 20µs per accepted tuple
  ExpectDeterministic(db_, *schema_, AllDirectorSeeds(),
                      *MaxTuplesPerRelation(3), options);
}

TEST_F(ParallelDbGenSmallTest, PreCancelledContextIsByteIdentical) {
  ExpectDeterministic(db_, *schema_, AllDirectorSeeds(),
                      *MaxTuplesPerRelation(3), DbGenOptions(),
                      [](ExecutionContext& ctx) { ctx.Cancel(); });
}

TEST_F(ParallelDbGenSmallTest, ExpiredDeadlineIsByteIdentical) {
  ExpectDeterministic(
      db_, *schema_, AllDirectorSeeds(), *MaxTuplesPerRelation(3),
      DbGenOptions(), [](ExecutionContext& ctx) {
        ctx.SetDeadline(ExecutionContext::Clock::now() -
                        std::chrono::seconds(1));
      });
}

TEST_F(ParallelDbGenSmallTest, TinyAccessBudgetStopsIdentically) {
  // Budget exhausts midway through the walk: the parallel planner charges
  // a SIMULATED access sequence replaying the sequential one, so the stop
  // point — and therefore the emitted bytes — must agree exactly.
  for (uint64_t budget : {1u, 2u, 3u, 5u, 8u, 13u, 21u}) {
    SCOPED_TRACE("budget=" + std::to_string(budget));
    ExpectDeterministic(db_, *schema_, AllDirectorSeeds(),
                        *MaxTuplesPerRelation(3), DbGenOptions(),
                        [budget](ExecutionContext& ctx) {
                          ctx.SetAccessBudget(budget);
                        });
  }
}

// ===== Double join attribute: the edges of Value equality =================
//
// P(pid*, w DOUBLE, label) seeds the walk and the edge P.w -> C.w drives C
// by double join keys holding +0.0, -0.0 and NaN. The planner decides key
// distinctness on canonical key bits, the oracle on Value equality: -0.0
// repeats +0.0 (the first one seen stays on the IN-list), and every NaN
// stays on it and matches nothing. C.pid -> P.pid carries over through the
// result's primary-key set when P keeps its key.

class ParallelDbGenDoubleKeyTest : public ::testing::Test {
 protected:
  /// Builds the fixture; `indexed` puts an index on C.w (postings read in
  /// place) or leaves its lookups to scans (buffers the lookup owns).
  void Build(bool indexed) {
    db_ = Database();
    RelationSchema p("P", {{"pid", DataType::kInt64},
                           {"w", DataType::kDouble},
                           {"label", DataType::kString}});
    ASSERT_TRUE(p.SetPrimaryKey("pid").ok());
    ASSERT_TRUE(db_.CreateRelation(std::move(p)).ok());
    RelationSchema c("C", {{"cid", DataType::kInt64},
                           {"pid", DataType::kInt64},
                           {"w", DataType::kDouble},
                           {"name", DataType::kString}});
    ASSERT_TRUE(c.SetPrimaryKey("cid").ok());
    ASSERT_TRUE(db_.CreateRelation(std::move(c)).ok());
    ASSERT_TRUE(db_.AddForeignKey({"C", "pid", "P", "pid"}).ok());

    const double nan = std::numeric_limits<double>::quiet_NaN();
    auto pr = db_.GetRelation("P");
    const double p_keys[] = {0.0, nan, -0.0, 1.5, nan, 2.5};
    for (int64_t pid = 1; pid <= 6; ++pid) {
      ASSERT_TRUE((*pr)->Insert({pid, Value(p_keys[pid - 1]),
                                 "p" + std::to_string(pid)})
                      .ok());
    }
    auto cr = db_.GetRelation("C");
    const double c_keys[] = {-0.0, 0.0, nan, 1.5, 2.5, 3.5};
    for (int64_t cid = 1; cid <= 18; ++cid) {
      ASSERT_TRUE((*cr)->Insert({cid, (cid * 5) % 6 + 1,
                                 Value(c_keys[cid % 6]),
                                 "c" + std::to_string(cid)})
                      .ok());
    }
    if (indexed) {
      ASSERT_TRUE((*cr)->CreateIndex("w").ok());
    }

    auto g = SchemaGraph::FromDatabase(db_);
    ASSERT_TRUE(g.ok());
    graph_ = std::make_unique<SchemaGraph>(std::move(*g));
    ASSERT_TRUE(graph_->AddProjectionEdge("P", "pid", 1.0).ok());
    ASSERT_TRUE(graph_->AddProjectionEdge("P", "label", 1.0).ok());
    ASSERT_TRUE(graph_->AddProjectionEdge("C", "pid", 1.0).ok());
    ASSERT_TRUE(graph_->AddProjectionEdge("C", "name", 1.0).ok());
    ASSERT_TRUE(graph_->AddJoinEdge("P", "w", "C", "w", 1.0).ok());
    ResultSchemaGenerator schema_gen(graph_.get());
    auto schema =
        schema_gen.Generate({std::string("P")}, *MinPathWeight(0.9));
    ASSERT_TRUE(schema.ok());
    schema_ = std::make_unique<ResultSchema>(std::move(*schema));
    p_id_ = *graph_->RelationId("P");
  }

  SeedTids AllSeeds() { return {{p_id_, {0, 1, 2, 3, 4, 5}}}; }

  Database db_;
  std::unique_ptr<SchemaGraph> graph_;
  std::unique_ptr<ResultSchema> schema_;
  RelationNodeId p_id_ = 0;
};

TEST_F(ParallelDbGenDoubleKeyTest, SignedZeroAndNaNKeysAreByteIdentical) {
  for (bool indexed : {true, false}) {
    for (SubsetStrategy strategy :
         {SubsetStrategy::kNaiveQ, SubsetStrategy::kRoundRobin}) {
      SCOPED_TRACE(std::string(indexed ? "indexed " : "scanned ") +
                   SubsetStrategyToString(strategy));
      Build(indexed);
      DbGenOptions options;
      options.strategy = strategy;
      options.trace_sql = true;
      ExpectDeterministic(db_, *schema_, AllSeeds(), *UnlimitedCardinality(),
                          options);
      // Truncating P to four tuples leaves C rows whose parent is cut,
      // so the carried-over FK is checked and dropped.
      ExpectDeterministic(db_, *schema_, AllSeeds(),
                          *MaxTuplesPerRelation(4), options);
    }
  }
}

TEST_F(ParallelDbGenDoubleKeyTest, SignedZerosJoinAndNaNsMatchNothing) {
  Build(/*indexed=*/true);
  ResultDatabaseGenerator gen(&db_);
  DbGenOptions options;
  options.strategy = SubsetStrategy::kNaiveQ;  // one IN-list for the edge
  options.trace_sql = true;
  auto result = gen.Generate(*schema_, AllSeeds(), *UnlimitedCardinality(),
                             options, nullptr);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // C rows keyed +-0.0 (6), 1.5 (3) and 2.5 (3) join; NaN and 3.5 do not.
  ASSERT_NE(result->relation("C"), nullptr);
  EXPECT_EQ(result->relation("C")->num_tuples(), 12u);
  // The IN-list: +0.0 first seen (the later -0.0 repeats it), both NaNs.
  ASSERT_EQ(gen.last_report().sql_trace.size(), 2u);
  EXPECT_NE(gen.last_report().sql_trace[1].find("IN (0, nan, 1.5, nan, 2.5)"),
            std::string::npos)
      << gen.last_report().sql_trace[1];
  EXPECT_TRUE(gen.last_report().dropped_foreign_keys.empty());
  ASSERT_EQ(result->foreign_keys().size(), 1u);
}

// ===== Movies dataset: multi-relation schema, deeper walk ================

class ParallelDbGenMoviesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MoviesConfig config;
    config.num_movies = 200;
    auto ds = MoviesDataset::Create(config);
    ASSERT_TRUE(ds.ok());
    dataset_ = std::make_unique<MoviesDataset>(std::move(*ds));

    ResultSchemaGenerator schema_gen(&dataset_->graph());
    auto schema = schema_gen.Generate({std::string("DIRECTOR")},
                                      *MinPathWeight(0.5));
    ASSERT_TRUE(schema.ok());
    schema_ = std::make_unique<ResultSchema>(std::move(*schema));
    director_id_ = *dataset_->graph().RelationId("DIRECTOR");
  }

  SeedTids DirectorSeeds() { return {{director_id_, {0, 1, 2, 3, 4}}}; }

  std::unique_ptr<MoviesDataset> dataset_;
  std::unique_ptr<ResultSchema> schema_;
  RelationNodeId director_id_ = 0;
};

TEST_F(ParallelDbGenMoviesTest, RoundRobinDeepWalkIsByteIdentical) {
  DbGenOptions options;
  options.strategy = SubsetStrategy::kRoundRobin;
  ExpectDeterministic(dataset_->db(), *schema_, DirectorSeeds(),
                      *MaxTuplesPerRelation(40), options);
}

TEST_F(ParallelDbGenMoviesTest, NaiveQDeepWalkIsByteIdentical) {
  DbGenOptions options;
  options.strategy = SubsetStrategy::kNaiveQ;
  ExpectDeterministic(dataset_->db(), *schema_, DirectorSeeds(),
                      *MaxTuplesPerRelation(40), options);
}

TEST_F(ParallelDbGenMoviesTest, UnlimitedDeepWalkIsByteIdentical) {
  ExpectDeterministic(dataset_->db(), *schema_, DirectorSeeds(),
                      *UnlimitedCardinality(), DbGenOptions());
}

TEST_F(ParallelDbGenMoviesTest, PathAwarePropagationIsByteIdentical) {
  DbGenOptions options;
  options.strategy = SubsetStrategy::kAuto;
  options.path_aware_propagation = true;
  ExpectDeterministic(dataset_->db(), *schema_, DirectorSeeds(),
                      *MaxTuplesPerRelation(25), options);
}

TEST_F(ParallelDbGenMoviesTest, PathAwareOffIsByteIdentical) {
  DbGenOptions options;
  options.strategy = SubsetStrategy::kAuto;
  options.path_aware_propagation = false;
  ExpectDeterministic(dataset_->db(), *schema_, DirectorSeeds(),
                      *MaxTuplesPerRelation(25), options);
}

TEST_F(ParallelDbGenMoviesTest, TupleWeightedDeepWalkIsByteIdentical) {
  TupleWeightStore store;
  ASSERT_TRUE(WeightsFromNumericAttribute(dataset_->db(), "MOVIE", "year",
                                          &store)
                  .ok());
  DbGenOptions options;
  options.strategy = SubsetStrategy::kRoundRobin;
  options.tuple_weights = &store;
  ExpectDeterministic(dataset_->db(), *schema_, DirectorSeeds(),
                      *MaxTuplesPerRelation(20), options);
}

TEST_F(ParallelDbGenMoviesTest, MidWalkBudgetStopsIdentically) {
  for (uint64_t budget : {10u, 50u, 100u, 250u, 600u}) {
    SCOPED_TRACE("budget=" + std::to_string(budget));
    DbGenOptions options;
    options.strategy = SubsetStrategy::kRoundRobin;
    ExpectDeterministic(dataset_->db(), *schema_, DirectorSeeds(),
                        *MaxTuplesPerRelation(40), options,
                        [budget](ExecutionContext& ctx) {
                          ctx.SetAccessBudget(budget);
                        });
  }
}

TEST_F(ParallelDbGenMoviesTest, IncludeJoinAttributesIsByteIdentical) {
  DbGenOptions options;
  options.include_join_attributes = false;
  options.strategy = SubsetStrategy::kRoundRobin;
  ExpectDeterministic(dataset_->db(), *schema_, DirectorSeeds(),
                      *MaxTuplesPerRelation(30), options);
}

TEST_F(ParallelDbGenMoviesTest, SharedPoolDefaultIsByteIdentical) {
  // pool == nullptr routes to TaskPool::Shared(): the production path used
  // by PrecisService workers.
  DbGenOptions par;
  par.parallelism = 4;  // pool stays nullptr -> Shared()
  auto c = MaxTuplesPerRelation(30);
  const SeedTids seeds = DirectorSeeds();
  ExpectSameOutcome(
      RunOnce(Oracle(dataset_->db(), *schema_, seeds, *c, DbGenOptions()),
              nullptr),
      RunOnce(Planner(dataset_->db(), *schema_, seeds, *c, par), nullptr));
}

TEST_F(ParallelDbGenMoviesTest, InlineStatsMatchOracleProbesAndStatements) {
  TupleWeightStore store;
  ASSERT_TRUE(WeightsFromNumericAttribute(dataset_->db(), "MOVIE", "year",
                                          &store)
                  .ok());
  for (SubsetStrategy strategy :
       {SubsetStrategy::kAuto, SubsetStrategy::kNaiveQ,
        SubsetStrategy::kRoundRobin}) {
    for (const TupleWeightStore* weights :
         std::vector<const TupleWeightStore*>{nullptr, &store}) {
      SCOPED_TRACE("strategy=" +
                   std::string(SubsetStrategyToString(strategy)) +
                   (weights != nullptr ? " weighted" : ""));
      DbGenOptions options;
      options.strategy = strategy;
      options.tuple_weights = weights;
      ExpectInlineStatsMatchOracle(dataset_->db(), *schema_, DirectorSeeds(),
                                   *MaxTuplesPerRelation(25), options);
      ExpectInlineStatsMatchOracle(dataset_->db(), *schema_, DirectorSeeds(),
                                   *UnlimitedCardinality(), options);
    }
  }
}

}  // namespace
}  // namespace precis
