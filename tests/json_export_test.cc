#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <stack>
#include <string>
#include <utility>
#include <vector>

#include "common/execution_context.h"
#include "common/fault_injection.h"
#include "datagen/movies_dataset.h"
#include "precis/engine.h"
#include "precis/json_export.h"
#include "storage/serialization.h"

namespace precis {
namespace {

/// Structural sanity: braces/brackets balance and strings close (a real
/// parser is out of scope; this catches emitter bracket bugs).
bool BalancedJson(const std::string& s) {
  std::stack<char> stack;
  bool in_string = false;
  for (size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        break;
      case '{':
      case '[':
        stack.push(c);
        break;
      case '}':
        if (stack.empty() || stack.top() != '{') return false;
        stack.pop();
        break;
      case ']':
        if (stack.empty() || stack.top() != '[') return false;
        stack.pop();
        break;
      default:
        break;
    }
  }
  return stack.empty() && !in_string;
}

TEST(JsonEscapeTest, EscapesSpecials) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(JsonEscape(std::string("a\x01z")), "a\\u0001z");
}

TEST(ValueToJsonTest, AllScalarKinds) {
  EXPECT_EQ(ValueToJson(Value::Null()), "null");
  EXPECT_EQ(ValueToJson(Value(int64_t{-7})), "-7");
  EXPECT_EQ(ValueToJson(Value("x\"y")), "\"x\\\"y\"");
  EXPECT_EQ(ValueToJson(Value(0.5)), "0.5");
}

TEST(AnswerToJsonTest, DatabaseStructureAndBalance) {
  Database db("demo");
  RelationSchema r("R", {{"id", DataType::kInt64},
                         {"s", DataType::kString}});
  ASSERT_TRUE(r.SetPrimaryKey("id").ok());
  ASSERT_TRUE(db.CreateRelation(r).ok());
  auto rel = db.GetRelation("R");
  ASSERT_TRUE((*rel)->Insert({int64_t{1}, "hello"}).ok());
  ASSERT_TRUE((*rel)->Insert({int64_t{2}, Value::Null()}).ok());
  ASSERT_TRUE((*rel)->Insert({int64_t{3}, "skipped"}).ok());
  auto graph = SchemaGraph::FromDatabase(db);
  ASSERT_TRUE(graph.ok());

  // A view of R's first two tuples, rendered through a whole answer.
  std::vector<ResultRelation> relations;
  relations.push_back(ResultRelation{*rel, r, {0, 1}, {0, 1}});
  PrecisAnswer answer{{}, ResultSchema(&*graph),
                      ResultDatabase(std::move(relations)), DbGenReport{}};
  std::string json = AnswerToJson(answer);
  EXPECT_TRUE(BalancedJson(json)) << json;
  EXPECT_NE(json.find("\"database\":{\"name\":\"precis_result\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"primary_key\":true"), std::string::npos);
  EXPECT_NE(json.find("\"tuples\":[[1,\"hello\"],[2,null]]"),
            std::string::npos)
      << json;
  EXPECT_EQ(json.find("skipped"), std::string::npos);
}

TEST(AnswerToJsonTest, FullAnswerSerializes) {
  MoviesConfig config;
  config.num_movies = 10;
  auto ds = MoviesDataset::Create(config);
  ASSERT_TRUE(ds.ok());
  auto engine = PrecisEngine::Create(&ds->db(), &ds->graph());
  ASSERT_TRUE(engine.ok());
  auto answer = engine->Answer(PrecisQuery{{"Woody Allen"}},
                               *MinPathWeight(0.9), *MaxTuplesPerRelation(3));
  ASSERT_TRUE(answer.ok());

  std::string json = AnswerToJson(*answer);
  EXPECT_TRUE(BalancedJson(json)) << json;
  EXPECT_NE(json.find("\"token\":\"Woody Allen\""), std::string::npos);
  EXPECT_NE(json.find("\"relation\":\"DIRECTOR\""), std::string::npos);
  EXPECT_NE(json.find("\"token_relation\":true"), std::string::npos);
  EXPECT_NE(json.find("\"in_degree\":2"), std::string::npos);  // MOVIE
  EXPECT_NE(json.find("\"from\":\"DIRECTOR\""), std::string::npos);
  EXPECT_NE(json.find("\"Match Point\""), std::string::npos);
  EXPECT_NE(json.find("\"executed_edges\""), std::string::npos);
}

TEST(AnswerToJsonTest, CleanAnswerReportsNoDegradation) {
  MoviesConfig config;
  config.num_movies = 10;
  auto ds = MoviesDataset::Create(config);
  ASSERT_TRUE(ds.ok());
  auto engine = PrecisEngine::Create(&ds->db(), &ds->graph());
  ASSERT_TRUE(engine.ok());
  auto answer = engine->Answer(PrecisQuery{{"Woody Allen"}},
                               *MinPathWeight(0.9), *MaxTuplesPerRelation(3));
  ASSERT_TRUE(answer.ok());
  std::string json = AnswerToJson(*answer);
  EXPECT_TRUE(BalancedJson(json)) << json;
  EXPECT_NE(json.find("\"stop_reason\":\"none\""), std::string::npos);
  EXPECT_NE(json.find("\"fault_tainted\":false"), std::string::npos);
  EXPECT_NE(json.find("\"degradation\":[]"), std::string::npos);
}

TEST(AnswerToJsonTest, BudgetCutAnswerReportsStopReason) {
  MoviesConfig config;
  config.num_movies = 20;
  auto ds = MoviesDataset::Create(config);
  ASSERT_TRUE(ds.ok());
  auto engine = PrecisEngine::Create(&ds->db(), &ds->graph());
  ASSERT_TRUE(engine.ok());
  ExecutionContext ctx;
  ctx.SetAccessBudget(1);  // starves generation almost immediately
  auto answer =
      engine->Answer(PrecisQuery{{"Woody Allen"}}, *MinPathWeight(0.5),
                     *MaxTuplesPerRelation(10), DbGenOptions(), &ctx);
  ASSERT_TRUE(answer.ok());
  ASSERT_EQ(answer->report.stop_reason, StopReason::kAccessBudgetExhausted);
  std::string json = AnswerToJson(*answer);
  EXPECT_TRUE(BalancedJson(json)) << json;
  EXPECT_NE(json.find("\"stop_reason\":\"access budget exhausted\""),
            std::string::npos);
}

TEST(AnswerToJsonTest, FaultTaintedAnswerReportsPerRelationLosses) {
  MoviesConfig config;
  config.num_movies = 30;
  auto ds = MoviesDataset::Create(config);
  ASSERT_TRUE(ds.ok());
  auto engine = PrecisEngine::Create(&ds->db(), &ds->graph());
  ASSERT_TRUE(engine.ok());

  FaultInjector injector(11);
  injector.SetSchedule(FaultSite::kTupleFetch, FaultSchedule::EveryNth(2));
  ExecutionContext ctx;
  ctx.SetFaultInjector(&injector);
  RetryPolicy policy;
  policy.max_attempts = 1;  // first failure drops the tuple: losses for sure
  policy.initial_backoff_ns = 0;
  ctx.set_retry_policy(policy);

  auto answer =
      engine->Answer(PrecisQuery{{"Woody Allen"}}, *MinPathWeight(0.5),
                     *MaxTuplesPerRelation(10), DbGenOptions(), &ctx);
  ASSERT_TRUE(answer.ok());
  ASSERT_TRUE(answer->report.fault_tainted);
  ASSERT_TRUE(answer->report.degradation.degraded())
      << "every-2nd tuple fetch with no retries must cost something";

  std::string json = AnswerToJson(*answer);
  EXPECT_TRUE(BalancedJson(json)) << json;
  EXPECT_NE(json.find("\"fault_tainted\":true"), std::string::npos);
  // Per-relation entries carry the loss accounting fields.
  EXPECT_NE(json.find("\"degradation\":[{\"relation\":\""),
            std::string::npos);
  EXPECT_NE(json.find("\"dropped_tuples\":"), std::string::npos);
  EXPECT_NE(json.find("\"failed_lookups\":"), std::string::npos);
  EXPECT_NE(json.find("\"retries\":"), std::string::npos);
}

TEST(AnswerToJsonTest, OccurrencesRenderTheirMatchedTupleCount) {
  MoviesConfig config;
  config.num_movies = 120;
  auto ds = MoviesDataset::Create(config);
  ASSERT_TRUE(ds.ok());
  auto engine = PrecisEngine::Create(&ds->db(), &ds->graph());
  ASSERT_TRUE(engine.ok());
  // A homonym: the token occurs in more than one (relation, attribute).
  const OccurrenceList occurrences = engine->index().Lookup("Woody Allen");
  ASSERT_GE(occurrences->size(), 2u);
  auto answer = engine->Answer(PrecisQuery{{"Woody Allen"}},
                               *MinPathWeight(0.9), *MaxTuplesPerRelation(3));
  ASSERT_TRUE(answer.ok());

  const std::string json = AnswerToJson(*answer);
  EXPECT_TRUE(BalancedJson(json)) << json;
  for (const TokenOccurrence& occ : *occurrences) {
    const std::string entry = "{\"relation\":\"" + occ.relation +
                              "\",\"attribute\":\"" + occ.attribute +
                              "\",\"matched_tuples\":" +
                              std::to_string(occ.tids.size()) + "}";
    EXPECT_NE(json.find(entry), std::string::npos) << entry << "\n" << json;
  }
  EXPECT_EQ(json.find("\"tids\""), std::string::npos) << json;
}

TEST(AnswerToJsonTest, MatchesDoNotGrowWithPostings) {
  // A GENRE token over 6,000 films matches far more tuples than c = 10
  // keeps; the body's matches section stays a count per occurrence.
  MoviesConfig config;
  config.num_movies = 6000;
  auto ds = MoviesDataset::Create(config);
  ASSERT_TRUE(ds.ok());
  auto engine = PrecisEngine::Create(&ds->db(), &ds->graph());
  ASSERT_TRUE(engine.ok());
  auto answer = engine->Answer(PrecisQuery{{"Comedy"}}, *MinPathWeight(0.9),
                               *MaxTuplesPerRelation(10));
  ASSERT_TRUE(answer.ok());
  size_t matched = 0;
  for (const TokenMatch& match : answer->matches) {
    for (const TokenOccurrence& occ : match.occurrences()) {
      matched += occ.tids.size();
    }
  }
  // Each rendered tid would take at least two bytes ("7,").
  ASSERT_GT(matched, 128u);

  const std::string json = AnswerToJson(*answer);
  const size_t begin = json.find("{\"matches\":");
  const size_t end = json.find(",\"schema\":");
  ASSERT_EQ(begin, 0u) << json.substr(0, 64);
  ASSERT_NE(end, std::string::npos);
  EXPECT_LT(end - begin, 256u) << json.substr(begin, end - begin);
}

TEST(AnswerToJsonTest, EmptyAnswerSerializes) {
  MoviesConfig config;
  config.num_movies = 5;
  auto ds = MoviesDataset::Create(config);
  ASSERT_TRUE(ds.ok());
  auto engine = PrecisEngine::Create(&ds->db(), &ds->graph());
  ASSERT_TRUE(engine.ok());
  auto answer = engine->Answer(PrecisQuery{{"zzz-nothing"}},
                               *MinPathWeight(0.9), *MaxTuplesPerRelation(3));
  ASSERT_TRUE(answer.ok());
  std::string json = AnswerToJson(*answer);
  EXPECT_TRUE(BalancedJson(json)) << json;
  EXPECT_NE(json.find("\"occurrences\":[]"), std::string::npos);
}

// The answer is a view over the source: it reads cells through the source
// relations by tid and keeps no column pointer, so appends that reallocate
// every column it reads change none of its bytes.
TEST(AnswerToJsonTest, SameBytesAfterSourceGrows) {
  MoviesConfig config;
  config.num_movies = 40;
  auto ds = MoviesDataset::Create(config);
  ASSERT_TRUE(ds.ok());
  auto engine = PrecisEngine::Create(&ds->db(), &ds->graph());
  ASSERT_TRUE(engine.ok());
  auto answer = engine->Answer(PrecisQuery{{"Woody Allen"}},
                               *MinPathWeight(0.5), *MaxTuplesPerRelation(5));
  ASSERT_TRUE(answer.ok());
  ASSERT_GT(answer->database.TotalTuples(), 0u);
  auto save = [&] {
    auto db = answer->database.Materialize();
    EXPECT_TRUE(db.ok());
    std::ostringstream os;
    EXPECT_TRUE(SaveDatabase(*db, &os).ok());
    return os.str();
  };
  const std::string json = AnswerToJson(*answer);
  const std::string saved = save();

  for (const ResultRelation& view : answer->database.relations()) {
    auto source = ds->db().GetRelation(view.name());
    ASSERT_TRUE(source.ok());
    Relation& rel = **source;
    const RelationSchema& schema = rel.schema();
    // Appends until every column's capacity has at least doubled, so each
    // column the view reads has moved. Only the key must be set (unique);
    // every other attribute is NULL.
    const size_t columns = rel.bytes().columns;
    for (int64_t i = 0; rel.bytes().columns < 2 * columns + 4096; ++i) {
      Tuple t(schema.num_attributes());
      if (schema.primary_key()) {
        const size_t pk = *schema.primary_key();
        switch (schema.attribute(pk).type) {
          case DataType::kInt64:
            t[pk] = Value(int64_t{1} << 40 | i);
            break;
          case DataType::kDouble:
            t[pk] = Value(1e15 + static_cast<double>(i));
            break;
          case DataType::kString:
            t[pk] = Value("grown " + std::to_string(i));
            break;
        }
      }
      ASSERT_TRUE(rel.Insert(t).ok()) << view.name();
    }
  }
  EXPECT_EQ(AnswerToJson(*answer), json);
  EXPECT_EQ(save(), saved);
}

}  // namespace
}  // namespace precis
