// Tests for the HTTP front end (DESIGN.md §14), bottom-up:
//
//   1. json_lite: the strict request-body parser.
//   2. HttpRequestParser: incremental framing, keep-alive semantics, and
//      every rejection path (the parser must never be undefined on hostile
//      bytes — each failure has an HTTP status).
//   3. ParseQueryRequest: body schema -> ServiceRequest validation.
//   4. End-to-end over real sockets: byte-identity of served answers with
//      the in-process engine, backpressure as 503, deadlines as 504 partial
//      answers, keep-alive/pipelining, profile routing, /metrics, and a
//      concurrent-connection hammer meant to run under ThreadSanitizer.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "datagen/movies_dataset.h"
#include "precis/engine.h"
#include "precis/json_export.h"
#include "server/http.h"
#include "server/http_client.h"
#include "server/http_server.h"
#include "server/json_lite.h"
#include "server/request_parse.h"
#include "service/precis_service.h"

namespace precis {
namespace {

// ---------------------------------------------------------------------------
// json_lite

TEST(JsonLiteTest, ParsesScalars) {
  EXPECT_TRUE(ParseJson("null")->is_null());
  EXPECT_TRUE(ParseJson("true")->boolean);
  EXPECT_FALSE(ParseJson("false")->boolean);
  auto n = ParseJson("-12.5e1");
  ASSERT_TRUE(n.ok());
  EXPECT_DOUBLE_EQ(n->number, -125.0);
  auto i = ParseJson("42");
  ASSERT_TRUE(i.ok());
  EXPECT_TRUE(i->is_integer);
  EXPECT_EQ(i->integer, 42);
  auto s = ParseJson("\"a\\nb\\u0041\"");
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->string, "a\nbA");
}

TEST(JsonLiteTest, ParsesNestedStructures) {
  auto v = ParseJson(
      "{\"a\": [1, 2, {\"b\": null}], \"c\": {\"d\": \"e\"}, \"f\": true}");
  ASSERT_TRUE(v.ok());
  ASSERT_TRUE(v->is_object());
  const JsonValue* a = v->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->array.size(), 3u);
  EXPECT_EQ(a->array[0].integer, 1);
  EXPECT_TRUE(a->array[2].Find("b")->is_null());
  EXPECT_EQ(v->Find("c")->Find("d")->string, "e");
  EXPECT_EQ(v->Find("missing"), nullptr);
}

TEST(JsonLiteTest, SurrogatePairDecodesToUtf8) {
  auto v = ParseJson("\"\\uD83D\\uDE00\"");  // 😀
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->string, "\xF0\x9F\x98\x80");
}

TEST(JsonLiteTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("{}extra").ok());     // trailing garbage
  EXPECT_FALSE(ParseJson("01").ok());          // leading zero
  EXPECT_FALSE(ParseJson("{'a': 1}").ok());    // single quotes
  EXPECT_FALSE(ParseJson("\"a\nb\"").ok());    // raw control char
  EXPECT_FALSE(ParseJson("[1,]").ok());        // trailing comma
  EXPECT_FALSE(ParseJson("{\"a\" 1}").ok());   // missing colon
  EXPECT_FALSE(ParseJson("\"\\uD83D\"").ok()); // lone surrogate
}

TEST(JsonLiteTest, RejectsRunawayNesting) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(ParseJson(deep).ok());
}

// ---------------------------------------------------------------------------
// HttpRequestParser

HttpRequestParser FedWith(const std::string& bytes, size_t chunk = 0) {
  HttpRequestParser parser;
  if (chunk == 0) {
    parser.Feed(bytes.data(), bytes.size());
  } else {
    for (size_t i = 0; i < bytes.size(); i += chunk) {
      parser.Feed(bytes.data() + i, std::min(chunk, bytes.size() - i));
    }
  }
  return parser;
}

TEST(HttpParserTest, ParsesSimpleGet) {
  auto parser = FedWith("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
  ASSERT_TRUE(parser.complete());
  EXPECT_EQ(parser.request().method, "GET");
  EXPECT_EQ(parser.request().target, "/healthz");
  EXPECT_TRUE(parser.request().keep_alive);  // 1.1 default
  ASSERT_NE(parser.request().FindHeader("host"), nullptr);
  EXPECT_EQ(*parser.request().FindHeader("HOST"), "x");
}

TEST(HttpParserTest, ByteAtATimeFeedMatchesOneShot) {
  std::string raw =
      "POST /query HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody";
  auto parser = FedWith(raw, 1);
  ASSERT_TRUE(parser.complete());
  EXPECT_EQ(parser.request().method, "POST");
  EXPECT_EQ(parser.request().body, "body");
}

TEST(HttpParserTest, KeepAliveSemantics) {
  EXPECT_FALSE(FedWith("GET / HTTP/1.0\r\n\r\n").request().keep_alive);
  EXPECT_TRUE(
      FedWith("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
          .request()
          .keep_alive);
  EXPECT_FALSE(FedWith("GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
                   .request()
                   .keep_alive);
}

TEST(HttpParserTest, PipelinedRequestsSurviveReset) {
  std::string two =
      "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
  auto parser = FedWith(two);
  ASSERT_TRUE(parser.complete());
  EXPECT_EQ(parser.request().target, "/a");
  parser.ResetForNext();
  ASSERT_TRUE(parser.complete());  // surplus re-parsed immediately
  EXPECT_EQ(parser.request().target, "/b");
  parser.ResetForNext();
  EXPECT_FALSE(parser.complete());
  EXPECT_TRUE(parser.buffer_empty());
}

TEST(HttpParserTest, RejectionStatuses) {
  struct Case {
    const char* raw;
    int status;
  } cases[] = {
      {"GET / HTTP/2.0\r\n\r\n", 505},
      {"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 501},
      {"POST / HTTP/1.1\r\n\r\n", 411},  // no Content-Length
      {"GET\r\n\r\n", 400},
      {"GET / HTTP/1.1\r\nBad Name: x\r\n\r\n", 400},  // space in name
      {"GET / HTTP/1.1\r\nContent-Length: 9999999999999\r\n\r\n", 413},
  };
  for (const Case& c : cases) {
    auto parser = FedWith(c.raw);
    EXPECT_TRUE(parser.failed()) << c.raw;
    EXPECT_EQ(parser.error_status(), c.status) << c.raw;
  }
}

TEST(HttpParserTest, OversizedHeadersRejectedWith431) {
  HttpParserLimits limits;
  limits.max_header_bytes = 128;
  HttpRequestParser parser(limits);
  std::string raw = "GET / HTTP/1.1\r\nX-Pad: " + std::string(200, 'a');
  parser.Feed(raw.data(), raw.size());
  ASSERT_TRUE(parser.failed());
  EXPECT_EQ(parser.error_status(), 431);
}

TEST(HttpParserTest, OversizedBodyRejectedWith413) {
  HttpParserLimits limits;
  limits.max_body_bytes = 8;
  HttpRequestParser parser(limits);
  std::string raw = "POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n123456789";
  parser.Feed(raw.data(), raw.size());
  ASSERT_TRUE(parser.failed());
  EXPECT_EQ(parser.error_status(), 413);
}

// ---------------------------------------------------------------------------
// ParseQueryRequest

TEST(RequestParseTest, FullBodyMapsEveryKnob) {
  auto parsed = ParseQueryRequest(
      "{\"tokens\": [\"Woody Allen\", \"Comedy\"], \"min_path_weight\": 0.7,"
      " \"max_projections\": 9, \"tuples_per_relation\": 5,"
      " \"deadline_ms\": 250, \"budget\": 1000, \"parallelism\": 4,"
      " \"strategy\": \"roundrobin\", \"profile\": \"boost\"}");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const ServiceRequest& r = parsed->request;
  ASSERT_EQ(r.query.tokens.size(), 2u);
  EXPECT_EQ(r.query.tokens[0], "Woody Allen");
  EXPECT_DOUBLE_EQ(r.min_path_weight, 0.7);
  EXPECT_EQ(r.max_projections, 9u);
  EXPECT_EQ(r.tuples_per_relation, 5u);
  EXPECT_DOUBLE_EQ(r.deadline_seconds, 0.25);
  EXPECT_EQ(r.access_budget, 1000u);
  EXPECT_EQ(r.options.parallelism, 4u);
  EXPECT_EQ(r.options.strategy, SubsetStrategy::kRoundRobin);
  EXPECT_EQ(parsed->profile, "boost");
}

TEST(RequestParseTest, MinimalBodyUsesDefaults) {
  auto parsed = ParseQueryRequest("{\"tokens\":[\"x\"]}");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->request.deadline_seconds, 0.0);
  EXPECT_EQ(parsed->request.options.parallelism, 1u);  // DbGen default
  EXPECT_TRUE(parsed->profile.empty());
}

TEST(RequestParseTest, RejectsBadBodies) {
  EXPECT_FALSE(ParseQueryRequest("not json").ok());
  EXPECT_FALSE(ParseQueryRequest("[1,2]").ok());        // not an object
  EXPECT_FALSE(ParseQueryRequest("{}").ok());           // no tokens
  EXPECT_FALSE(ParseQueryRequest("{\"tokens\":[]}").ok());
  EXPECT_FALSE(ParseQueryRequest("{\"tokens\":[42]}").ok());
  EXPECT_FALSE(ParseQueryRequest("{\"tokens\":[\"\"]}").ok());
  EXPECT_FALSE(
      ParseQueryRequest("{\"tokens\":[\"x\"],\"deadline_ms\":-1}").ok());
  EXPECT_FALSE(
      ParseQueryRequest("{\"tokens\":[\"x\"],\"budget\":1.5}").ok());
  EXPECT_FALSE(
      ParseQueryRequest("{\"tokens\":[\"x\"],\"strategy\":\"bogus\"}").ok());
  EXPECT_FALSE(
      ParseQueryRequest("{\"tokens\":[\"x\"],\"parallelism\":65}").ok());
}

TEST(RequestParseTest, EnforcesTokenLimits) {
  QueryRequestLimits limits;
  std::string many = "{\"tokens\":[";
  for (size_t i = 0; i <= limits.max_tokens; ++i) {
    if (i > 0) many += ",";
    many += "\"t\"";
  }
  many += "]}";
  EXPECT_FALSE(ParseQueryRequest(many).ok());
  std::string fat = "{\"tokens\":[\"" +
                    std::string(limits.max_token_bytes + 1, 'a') + "\"]}";
  EXPECT_FALSE(ParseQueryRequest(fat).ok());
}

// ---------------------------------------------------------------------------
// End-to-end over real sockets

const MoviesDataset& TestDataset() {
  static const MoviesDataset* dataset = [] {
    MoviesConfig config;
    config.num_movies = 50;
    auto ds = MoviesDataset::Create(config);
    if (!ds.ok()) std::abort();
    return new MoviesDataset(std::move(*ds));
  }();
  return *dataset;
}

/// Two engines over one dataset — read in place, and in 3 partitions —
/// with a service each ("default" and "boost" profiles) + server.
struct Harness {
  Harness() = default;
  Harness(Harness&&) = default;
  Harness& operator=(Harness&&) = default;

  std::unique_ptr<PrecisEngine> engine;
  std::unique_ptr<PrecisEngine> boost_engine;
  std::unique_ptr<PrecisService> service;
  std::unique_ptr<PrecisService> boost_service;
  std::unique_ptr<HttpServer> server;

  static Harness Start(PrecisService::Options service_options =
                           PrecisService::Options(),
                       HttpServer::Options server_options =
                           HttpServer::Options()) {
    Harness h;
    auto engine =
        PrecisEngine::Create(&TestDataset().db(), &TestDataset().graph());
    EXPECT_TRUE(engine.ok());
    h.engine = std::make_unique<PrecisEngine>(std::move(*engine));
    auto service = PrecisService::Create(h.engine.get(), service_options);
    EXPECT_TRUE(service.ok());
    h.service = std::move(*service);
    auto boost_engine = PrecisEngine::Create(&TestDataset().db(),
                                             &TestDataset().graph(), 3);
    EXPECT_TRUE(boost_engine.ok());
    h.boost_engine = std::make_unique<PrecisEngine>(std::move(*boost_engine));
    auto boost = PrecisService::Create(h.boost_engine.get());
    EXPECT_TRUE(boost.ok());
    h.boost_service = std::move(*boost);
    auto server = HttpServer::Create(
        {{"default", h.service.get()}, {"boost", h.boost_service.get()}},
        server_options);
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    h.server = std::move(*server);
    return h;
  }

  HttpClient Client() {
    auto client = HttpClient::Connect("127.0.0.1", server->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(*client);
  }

  ~Harness() {
    // Server first (it still routes into the services), then workers.
    if (server) server->Stop();
  }
};

TEST(HttpServerTest, RequiresDefaultProfile) {
  auto engine =
      PrecisEngine::Create(&TestDataset().db(), &TestDataset().graph());
  ASSERT_TRUE(engine.ok());
  auto service = PrecisService::Create(&*engine);
  ASSERT_TRUE(service.ok());
  auto server =
      HttpServer::Create({{"boost", service->get()}}, HttpServer::Options());
  EXPECT_FALSE(server.ok());
}

TEST(HttpServerTest, HealthzAndMetrics) {
  Harness h = Harness::Start();
  HttpClient client = h.Client();

  auto health = client.Get("/healthz");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->status, 200);
  EXPECT_EQ(health->body, "ok\n");

  auto head = client.Request("HEAD", "/healthz", "");
  ASSERT_TRUE(head.ok());
  EXPECT_EQ(head->status, 200);
  EXPECT_TRUE(head->body.empty());

  auto metrics = client.Get("/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->status, 200);
  auto parsed = ParseJson(metrics->body);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n"
                           << metrics->body;
  ASSERT_NE(parsed->Find("server"), nullptr);
  const JsonValue* profiles = parsed->Find("profiles");
  ASSERT_NE(profiles, nullptr);
  const JsonValue* default_profile = profiles->Find("default");
  ASSERT_NE(default_profile, nullptr);
  const JsonValue* boost = profiles->Find("boost");
  ASSERT_NE(boost, nullptr);

  // The one-partition engine has no shards block; the 3-partition one
  // reports every partition, together holding the whole dataset.
  EXPECT_EQ(default_profile->Find("shards"), nullptr);
  const JsonValue* shards = boost->Find("shards");
  ASSERT_NE(shards, nullptr) << metrics->body;
  const JsonValue* count = shards->Find("count");
  ASSERT_NE(count, nullptr);
  EXPECT_EQ(count->number, 3.0);
  const JsonValue* per_shard = shards->Find("per_shard");
  ASSERT_NE(per_shard, nullptr);
  ASSERT_TRUE(per_shard->is_array());
  ASSERT_EQ(per_shard->array.size(), 3u);
  double tuples = 0;
  for (const JsonValue& shard : per_shard->array) {
    const JsonValue* shard_tuples = shard.Find("tuples");
    ASSERT_NE(shard_tuples, nullptr);
    tuples += shard_tuples->number;
  }
  EXPECT_EQ(tuples, static_cast<double>(TestDataset().db().TotalTuples()));
}

TEST(HttpServerTest, MetricsReportStageTotalsAndAdmission) {
  // One cache miss: /metrics sums its stage times per profile, and the
  // cache rows show the answer turned away at the door.
  Harness h = Harness::Start();
  h.engine->set_caches_enabled(true);
  HttpClient client = h.Client();
  auto miss = client.Post("/query", "{\"tokens\":[\"Woody Allen\"]}");
  ASSERT_TRUE(miss.ok()) << miss.status().ToString();
  ASSERT_EQ(miss->status, 200);

  auto metrics = client.Get("/metrics");
  ASSERT_TRUE(metrics.ok());
  auto parsed = ParseJson(metrics->body);
  ASSERT_TRUE(parsed.ok()) << metrics->body;
  const JsonValue* profiles = parsed->Find("profiles");
  ASSERT_NE(profiles, nullptr) << metrics->body;
  const JsonValue* profile = profiles->Find("default");
  ASSERT_NE(profile, nullptr) << metrics->body;
  const JsonValue* total = profile->Find("total_latency_seconds");
  ASSERT_NE(total, nullptr) << metrics->body;
  EXPECT_GT(total->number, 0.0);
  const JsonValue* spans = profile->Find("span_seconds");
  ASSERT_NE(spans, nullptr) << metrics->body;
  for (const char* stage :
       {"answer_cache", "db_gen", "match_tokens", "schema_gen"}) {
    const JsonValue* seconds = spans->Find(stage);
    ASSERT_NE(seconds, nullptr) << stage;
    EXPECT_TRUE(seconds->is_number()) << stage;
  }
  EXPECT_GT(spans->Find("db_gen")->number, 0.0);

  const JsonValue* caches = profile->Find("caches");
  ASSERT_NE(caches, nullptr) << metrics->body;
  const JsonValue* answer = caches->Find("answer");
  ASSERT_NE(answer, nullptr) << metrics->body;
  ASSERT_NE(answer->Find("rejected"), nullptr) << metrics->body;
  ASSERT_NE(answer->Find("doorkeeper_bytes"), nullptr) << metrics->body;
  EXPECT_EQ(answer->Find("rejected")->number, 1.0);
  EXPECT_GT(answer->Find("doorkeeper_bytes")->number, 0.0);
  EXPECT_EQ(answer->Find("entries")->number, 0.0);
}

TEST(HttpServerTest, MetricsReportSymbolTableCapacity) {
  // The interner's footprint comes from its capacities, so it covers at
  // least the string bytes it holds.
  Harness h = Harness::Start();
  HttpClient client = h.Client();
  auto metrics = client.Get("/metrics");
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  auto parsed = ParseJson(metrics->body);
  ASSERT_TRUE(parsed.ok()) << metrics->body;
  const JsonValue* profiles = parsed->Find("profiles");
  ASSERT_NE(profiles, nullptr) << metrics->body;
  const JsonValue* profile = profiles->Find("default");
  ASSERT_NE(profile, nullptr) << metrics->body;
  const JsonValue* symbols = profile->Find("symbols");
  ASSERT_NE(symbols, nullptr) << metrics->body;
  const JsonValue* bytes = symbols->Find("bytes");
  const JsonValue* reserved = symbols->Find("reserved_bytes");
  ASSERT_NE(bytes, nullptr) << metrics->body;
  ASSERT_NE(reserved, nullptr) << metrics->body;
  EXPECT_GT(bytes->number, 0.0);
  EXPECT_GE(reserved->number, bytes->number);
}

TEST(HttpServerTest, ServedAnswerIsByteIdenticalToInProcess) {
  Harness h = Harness::Start();
  const std::string body =
      "{\"tokens\":[\"Woody Allen\"],\"tuples_per_relation\":4,"
      "\"min_path_weight\":0.5}";

  // The in-process answer for the *same* request JSON through the same
  // parser — the acceptance gate for the whole front end.
  auto parsed = ParseQueryRequest(body);
  ASSERT_TRUE(parsed.ok());
  ServiceResponse local = h.service->Execute(std::move(parsed->request));
  ASSERT_TRUE(local.status.ok());
  const std::string expected = AnswerToJson(*local.answer);

  HttpClient client = h.Client();
  auto served = client.Post("/query", body);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  ASSERT_EQ(served->status, 200);
  EXPECT_EQ(served->body, expected);
  ASSERT_NE(served->FindHeader("X-Precis-Stop-Reason"), nullptr);
  EXPECT_EQ(*served->FindHeader("X-Precis-Stop-Reason"), "none");
  ASSERT_NE(served->FindHeader("Content-Type"), nullptr);
  EXPECT_EQ(*served->FindHeader("Content-Type"), "application/json");
}

TEST(HttpServerTest, CacheHitServesIdenticalBytesToMissRender) {
  // With the engine caches on, the first /query renders the body and the
  // doorkeeper records it; the second renders and memoizes it; the repeat
  // is served from the body cache through the zero-copy write path
  // (DESIGN.md §16). The wire bytes must not change.
  Harness h = Harness::Start();
  h.engine->set_caches_enabled(true);
  const std::string body =
      "{\"tokens\":[\"Woody Allen\"],\"tuples_per_relation\":4}";
  HttpClient client = h.Client();
  auto first = client.Post("/query", body);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(first->status, 200);
  auto miss = client.Post("/query", body);
  ASSERT_TRUE(miss.ok()) << miss.status().ToString();
  ASSERT_EQ(miss->status, 200);
  auto hit = client.Post("/query", body);
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  ASSERT_EQ(hit->status, 200);
  EXPECT_EQ(hit->body, miss->body);
  EXPECT_EQ(first->body, miss->body);
  // The repeat actually came from the memoized render.
  EXPECT_GE(h.engine->body_cache_stats().hits, 1u);
  // And both agree with a fresh in-process render of the same request.
  auto parsed = ParseQueryRequest(body);
  ASSERT_TRUE(parsed.ok());
  ServiceResponse local = h.service->Execute(std::move(parsed->request));
  ASSERT_TRUE(local.status.ok());
  EXPECT_EQ(hit->body, AnswerToJson(*local.answer));
}

TEST(HttpServerTest, ErrorRouting) {
  Harness h = Harness::Start();
  HttpClient client = h.Client();

  auto bad = client.Post("/query", "{\"tokens\":");
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->status, 400);
  EXPECT_NE(bad->body.find("\"error\""), std::string::npos);

  auto no_tokens = client.Post("/query", "{}");
  ASSERT_TRUE(no_tokens.ok());
  EXPECT_EQ(no_tokens->status, 400);

  auto unknown_profile = client.Post(
      "/query", "{\"tokens\":[\"x\"],\"profile\":\"nope\"}");
  ASSERT_TRUE(unknown_profile.ok());
  EXPECT_EQ(unknown_profile->status, 404);

  auto wrong_method = client.Get("/query");
  ASSERT_TRUE(wrong_method.ok());
  EXPECT_EQ(wrong_method->status, 405);

  auto nowhere = client.Get("/nope");
  ASSERT_TRUE(nowhere.ok());
  EXPECT_EQ(nowhere->status, 404);
}

TEST(HttpServerTest, MalformedHttpGets400AndClose) {
  Harness h = Harness::Start();
  HttpClient client = h.Client();
  ASSERT_TRUE(client.SendRaw("BOGUS\r\n\r\n").ok());
  auto response = client.ReadResponse();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 400);
  // The server must close after a stream error.
  EXPECT_FALSE(client.connected());
  EXPECT_GE(h.server->metrics().parse_errors, 1u);
}

TEST(HttpServerTest, KeepAliveServesSequentialRequests) {
  Harness h = Harness::Start();
  HttpClient client = h.Client();
  for (int i = 0; i < 3; ++i) {
    auto response = client.Post("/query", "{\"tokens\":[\"Comedy\"]}");
    ASSERT_TRUE(response.ok()) << i << ": " << response.status().ToString();
    EXPECT_EQ(response->status, 200);
    ASSERT_TRUE(client.connected());
  }
  EXPECT_EQ(h.server->metrics().connections_accepted, 1u);
}

TEST(HttpServerTest, PipelinedRequestsAnswerInOrder) {
  Harness h = Harness::Start();
  HttpClient client = h.Client();
  ASSERT_TRUE(client
                  .SendRaw("GET /healthz HTTP/1.1\r\n\r\n"
                           "GET /metrics HTTP/1.1\r\n\r\n")
                  .ok());
  auto first = client.ReadResponse();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->body, "ok\n");
  auto second = client.ReadResponse();
  ASSERT_TRUE(second.ok());
  EXPECT_NE(second->body.find("\"profiles\""), std::string::npos);
}

TEST(HttpServerTest, ProfileRoutesToItsService) {
  Harness h = Harness::Start();
  HttpClient client = h.Client();
  auto response = client.Post(
      "/query", "{\"tokens\":[\"Comedy\"],\"profile\":\"boost\"}");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 200);
  EXPECT_EQ(h.boost_service->metrics().queries_served, 1u);
  EXPECT_EQ(h.service->metrics().queries_served, 0u);
}

TEST(HttpServerTest, DeadlineExceededServes504WithPartialBody) {
  PrecisService::Options options;
  options.num_workers = 1;
  Harness h = Harness::Start(options);
  HttpClient client = h.Client();
  // A deadline this tight trips during generation; the paper's contract
  // (and the service's) is a well-formed partial answer, which the front
  // end must mark 504, not drop.
  auto response = client.Post(
      "/query", "{\"tokens\":[\"Woody Allen\"],\"deadline_ms\":0.001}");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 504);
  ASSERT_NE(response->FindHeader("X-Precis-Stop-Reason"), nullptr);
  EXPECT_EQ(*response->FindHeader("X-Precis-Stop-Reason"),
            "deadline exceeded");
  auto body = ParseJson(response->body);
  ASSERT_TRUE(body.ok()) << "504 body must still be a well-formed answer";
  EXPECT_NE(body->Find("report"), nullptr);
}

TEST(HttpServerTest, DeadlinePastTheClockRangeServesAsUnbounded) {
  PrecisService::Options options;
  options.num_workers = 1;
  Harness h = Harness::Start(options);
  HttpClient client = h.Client();
  // 1e13 ms is past the int64 nanosecond clock and 1e400 parses to
  // infinity: neither names an instant, so each query runs without a
  // deadline and answers in full.
  for (const char* deadline_ms : {"1e13", "1e400"}) {
    SCOPED_TRACE(deadline_ms);
    auto response = client.Post(
        "/query", std::string("{\"tokens\":[\"Woody Allen\"],"
                              "\"deadline_ms\":") +
                      deadline_ms + "}");
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->status, 200);
    ASSERT_NE(response->FindHeader("X-Precis-Stop-Reason"), nullptr);
    EXPECT_EQ(*response->FindHeader("X-Precis-Stop-Reason"), "none");
  }
}

TEST(HttpServerTest, OverloadShedsWith503NotQueueing) {
  PrecisService::Options options;
  options.num_workers = 1;
  options.max_queue_depth = 1;
  Harness h = Harness::Start(options);

  // A burst of concurrent queries against a single worker with a one-deep
  // admission queue: most must be shed with 503, every response must be
  // well-formed, and nothing may crash or queue unboundedly.
  constexpr int kClients = 8;
  constexpr int kPerClient = 4;
  std::atomic<int> ok{0}, shed{0}, other{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&] {
      auto client = HttpClient::Connect("127.0.0.1", h.server->port());
      if (!client.ok()) {
        other.fetch_add(kPerClient);
        return;
      }
      for (int i = 0; i < kPerClient; ++i) {
        auto response = client->Post(
            "/query",
            "{\"tokens\":[\"Woody Allen\"],\"tuples_per_relation\":10}");
        if (!response.ok()) {
          other.fetch_add(1);
        } else if (response->status == 200) {
          ok.fetch_add(1);
        } else if (response->status == 503) {
          shed.fetch_add(1);
        } else {
          other.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(other.load(), 0);
  EXPECT_GT(ok.load(), 0);
  EXPECT_GT(shed.load(), 0) << "a 32-request burst against depth-1 admission "
                               "must shed";
  EXPECT_EQ(ok.load() + shed.load(), kClients * kPerClient);
  EXPECT_EQ(h.server->metrics().responses_503,
            static_cast<uint64_t>(shed.load()));
  EXPECT_EQ(h.service->metrics().queries_shed,
            static_cast<uint64_t>(shed.load()));
}

TEST(HttpServerTest, ConcurrentMixedTrafficIsClean) {
  Harness h = Harness::Start();
  constexpr int kThreads = 6;
  constexpr int kPerThread = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto client = HttpClient::Connect("127.0.0.1", h.server->port());
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kPerThread; ++i) {
        auto response = [&]() -> Result<HttpClientResponse> {
          switch ((t + i) % 3) {
            case 0:
              return client->Get("/healthz");
            case 1:
              return client->Get("/metrics");
            default:
              return client->Post("/query", "{\"tokens\":[\"Comedy\"]}");
          }
        }();
        if (!response.ok() || response->status != 200) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(h.server->metrics().requests_total,
            static_cast<uint64_t>(kThreads * kPerThread));
}

TEST(HttpServerTest, StopWhileClientsConnectedIsGraceful) {
  Harness h = Harness::Start();
  HttpClient idle = h.Client();  // connected, no request in flight
  auto busy = h.Client();
  auto response = busy.Get("/healthz");
  ASSERT_TRUE(response.ok());
  h.server->Stop();  // must not hang on the idle connection
  EXPECT_EQ(h.server->metrics().connections_open, 0u);
}

// ---------------------------------------------------------------------------
// Slowloris defense, drain mode, and socket chaos (DESIGN.md §17).

TEST(HttpServerTest, SlowlorisTrickleGets431MidHeader) {
  HttpServer::Options server_options;
  server_options.idle_timeout_seconds = 0.8;
  Harness h = Harness::Start(PrecisService::Options(), server_options);
  HttpClient client = h.Client();
  ASSERT_TRUE(client.SendRaw("POST /query HTTP/1.1\r\n").ok());
  // Trickle header bytes: every write refreshes the *idle* clock, but the
  // request-completion clock started at the first partial byte and is never
  // reset — the classic slowloris hold-open must still be cut off. The
  // trickle ends well before the bound so no write races the server's
  // close (a late write would RST away the buffered 431).
  for (int i = 0; i < 5; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ASSERT_TRUE(client.SendRaw("X").ok()) << i;
  }
  auto response = client.ReadResponse();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 431);
  EXPECT_FALSE(client.connected());
  EXPECT_GE(h.server->metrics().slow_client_timeouts, 1u);
}

TEST(HttpServerTest, MidBodyStallGets431) {
  HttpServer::Options server_options;
  server_options.idle_timeout_seconds = 0.3;
  Harness h = Harness::Start(PrecisService::Options(), server_options);
  HttpClient client = h.Client();
  // Complete headers, Content-Length promising more body than ever comes.
  ASSERT_TRUE(client
                  .SendRaw("POST /query HTTP/1.1\r\n"
                           "Content-Type: application/json\r\n"
                           "Content-Length: 64\r\n"
                           "\r\n"
                           "{\"tokens\":[\"Wood")
                  .ok());
  auto response = client.ReadResponse();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 431);
  EXPECT_FALSE(client.connected());
  EXPECT_GE(h.server->metrics().slow_client_timeouts, 1u);
}

TEST(HttpServerTest, DrainFlipsHealthzTo503ButKeepsServing) {
  Harness h = Harness::Start();
  EXPECT_FALSE(h.server->draining());
  h.server->BeginDrain();
  EXPECT_TRUE(h.server->draining());

  // The load balancer's probe sees 503 + Connection: close...
  HttpClient probe = h.Client();
  auto health = probe.Get("/healthz");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->status, 503);
  EXPECT_EQ(health->body, "draining\n");
  ASSERT_NE(health->FindHeader("Retry-After"), nullptr);
  ASSERT_NE(health->FindHeader("Connection"), nullptr);
  EXPECT_EQ(*health->FindHeader("Connection"), "close");

  // ...while queries and metrics keep serving until the actual Stop().
  HttpClient client = h.Client();
  auto served = client.Post("/query", "{\"tokens\":[\"Comedy\"]}");
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ(served->status, 200);
  auto metrics = client.Get("/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->status, 200);
  EXPECT_NE(metrics->body.find("\"draining\":true"), std::string::npos);
}

TEST(ServerChaosConfigTest, ParsesSpecsClampsAndRejectsGarbage) {
  auto off = ServerChaosConfig::Parse("");
  ASSERT_TRUE(off.ok());
  EXPECT_FALSE(off->enabled());

  auto full = ServerChaosConfig::Parse(
      "seed=7,accept=0.01,read=0.02,write=0.03,short=0.25");
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->seed, 7u);
  EXPECT_DOUBLE_EQ(full->accept_error, 0.01);
  EXPECT_DOUBLE_EQ(full->read_error, 0.02);
  EXPECT_DOUBLE_EQ(full->write_error, 0.03);
  EXPECT_DOUBLE_EQ(full->short_write, 0.25);
  EXPECT_TRUE(full->enabled());

  auto clamped = ServerChaosConfig::Parse("read=7.5");
  ASSERT_TRUE(clamped.ok());
  EXPECT_DOUBLE_EQ(clamped->read_error, 1.0);

  EXPECT_FALSE(ServerChaosConfig::Parse("bogus=1").ok());
  EXPECT_FALSE(ServerChaosConfig::Parse("read").ok());
  EXPECT_FALSE(ServerChaosConfig::Parse("seed=abc").ok());
  EXPECT_FALSE(ServerChaosConfig::Parse("read=x").ok());
}

TEST(HttpServerTest, ChaosShortWritesStillServeExactBytes) {
  // Every flush truncated to a tiny prefix: the writev resume path must
  // still deliver byte-perfect responses, just in more rounds.
  HttpServer::Options server_options;
  server_options.chaos_spec = "seed=1,short=1.0";
  Harness h = Harness::Start(PrecisService::Options(), server_options);

  const std::string body =
      "{\"tokens\":[\"Woody Allen\"],\"tuples_per_relation\":4}";
  auto parsed = ParseQueryRequest(body);
  ASSERT_TRUE(parsed.ok());
  ServiceResponse local = h.service->Execute(std::move(parsed->request));
  ASSERT_TRUE(local.status.ok());
  const std::string expected = AnswerToJson(*local.answer);

  HttpClient client = h.Client();
  for (int i = 0; i < 3; ++i) {
    auto served = client.Post("/query", body);
    ASSERT_TRUE(served.ok()) << i << ": " << served.status().ToString();
    EXPECT_EQ(served->status, 200);
    EXPECT_EQ(served->body, expected) << i;
  }
  EXPECT_GT(h.server->metrics().chaos_short_writes, 0u);
}

TEST(HttpServerTest, ChaosReadErrorsResetConnections) {
  HttpServer::Options server_options;
  server_options.chaos_spec = "seed=2,read=1.0";
  Harness h = Harness::Start(PrecisService::Options(), server_options);
  HttpClient client = h.Client();
  ASSERT_TRUE(client.SendRaw("GET /healthz HTTP/1.1\r\n\r\n").ok());
  // The injected read fault resets the connection before any response.
  auto response = client.ReadResponse();
  EXPECT_FALSE(response.ok());
  EXPECT_GE(h.server->metrics().chaos_read_errors, 1u);
}

}  // namespace
}  // namespace precis
