#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <latch>
#include <limits>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "precis/json_export.h"
#include "server/request_parse.h"
#include "stream.h"

namespace perfbench {

using precis::Status;

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Spans of one request, closed in reverse order of opening.
class SpanScope {
 public:
  SpanScope(SpanRecorder* recorder, const char* name, int parent,
             uint32_t request)
      : recorder_(recorder), id_(recorder->Open(name, parent, request)) {}
  ~SpanScope() { recorder_->Close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  int id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  int id_;
};

/// The reference: what the server's cache-miss path computes for a body.
struct Reference {
  std::string json;
  double seconds = 0;
  double glue_ms = 0;
  bool ok = false;
};

Reference AnswerThroughEngine(const precis::PrecisEngine& engine,
                              const std::string& body) {
  Reference ref;
  const Clock::time_point start = Clock::now();
  auto parsed = precis::ParseQueryRequest(body);
  if (!parsed.ok()) return ref;
  const precis::ServiceRequest& request = parsed->request;
  Constraints constraints = ConstraintsFor(request);
  precis::ExecutionContext ctx;
  const Clock::time_point answer_start = Clock::now();
  auto answer = engine.Answer(request.query, *constraints.degree,
                              *constraints.cardinality, request.options, &ctx);
  const Clock::time_point answer_end = Clock::now();
  if (!answer.ok()) return ref;
  ref.json = precis::AnswerToJson(*answer);
  ref.seconds = Seconds(start, Clock::now());
  double spans = 0;
  for (const precis::TraceSpan& span : ctx.spans()) spans += span.seconds;
  ref.glue_ms = (Seconds(answer_start, answer_end) - spans) * 1e3;
  ref.ok = true;
  return ref;
}

/// The same answer composed from public calls, one span per layer call.
/// Returns false when a layer fails.
bool AnswerComposed(const precis::PrecisEngine& engine,
                    const precis::Database& db,
                    const precis::SchemaGraph& graph, const std::string& body,
                    uint32_t request_id, SpanRecorder* spans,
                    LayerSamples* samples, std::string* json) {
  SpanScope root(spans, "request", -1, request_id);
  Clock::time_point t = Clock::now();
  auto parsed = [&] {
    SpanScope span(spans, "server.parse", root.id(), request_id);
    return precis::ParseQueryRequest(body);
  }();
  samples->parse_us.push_back(Seconds(t, Clock::now()) * 1e6);
  if (!parsed.ok()) return false;
  const precis::ServiceRequest& request = parsed->request;
  Constraints constraints = ConstraintsFor(request);
  precis::ExecutionContext ctx;

  std::optional<precis::PrecisAnswer> answer;
  {
    SpanScope answer_span(spans, "engine.answer", root.id(), request_id);
    std::vector<precis::TokenMatch> matches;
    for (const std::string& token : request.query.tokens) {
      SpanScope span(spans, "text.lookup", answer_span.id(), request_id);
      t = Clock::now();
      precis::OccurrenceList occurrences = engine.index().Lookup(token);
      samples->lookup_us.push_back(Seconds(t, Clock::now()) * 1e6);
      matches.push_back(
          precis::TokenMatch{token, token, std::move(occurrences)});
    }

    // Seed assembly exactly as PrecisEngine::AnswerFromMatches does it
    // (input relations in match order, tids deduplicated per relation);
    // the byte comparison against the engine's own answer guards the copy.
    std::vector<precis::RelationNodeId> token_relations;
    precis::SeedTids seeds;
    double seed_tids = 0;
    {
      SpanScope span(spans, "engine.glue", answer_span.id(), request_id);
      std::unordered_map<precis::RelationNodeId,
                         std::unordered_set<precis::Tid>>
          seen_tids;
      for (const precis::TokenMatch& match : matches) {
        for (const precis::TokenOccurrence& occ : match.occurrences()) {
          auto rel = graph.RelationId(occ.relation);
          if (!rel.ok()) return false;
          if (std::find(token_relations.begin(), token_relations.end(),
                        *rel) == token_relations.end()) {
            token_relations.push_back(*rel);
          }
          std::vector<precis::Tid>& tids = seeds[*rel];
          std::unordered_set<precis::Tid>& seen = seen_tids[*rel];
          for (precis::Tid tid : occ.tids) {
            if (seen.insert(tid).second) tids.push_back(tid);
          }
          seed_tids += static_cast<double>(occ.tids.size());
        }
      }
    }
    samples->seed_tids.push_back(seed_tids);

    t = Clock::now();
    auto schema = [&] {
      SpanScope span(spans, "precis.schema_gen", answer_span.id(),
                      request_id);
      return precis::ResultSchemaGenerator(&graph).Generate(
          token_relations, *constraints.degree, &ctx);
    }();
    samples->schema_us.push_back(Seconds(t, Clock::now()) * 1e6);
    if (!schema.ok()) return false;

    const precis::AccessStats before = ctx.stats();
    precis::ResultDatabaseGenerator generator(&db);
    t = Clock::now();
    auto database = [&] {
      SpanScope span(spans, "precis.db_gen", answer_span.id(), request_id);
      return generator.Generate(*schema, seeds, *constraints.cardinality,
                                request.options, &ctx);
    }();
    samples->dbgen_ms.push_back(Seconds(t, Clock::now()) * 1e3);
    if (!database.ok()) return false;
    const precis::AccessStats& after = ctx.stats();
    auto delta = [](const std::atomic<uint64_t>& a,
                    const std::atomic<uint64_t>& b) {
      return static_cast<double>(a.load() - b.load());
    };
    samples->index_probes.push_back(
        delta(after.index_probes, before.index_probes));
    samples->tuple_fetches.push_back(
        delta(after.tuple_fetches, before.tuple_fetches));
    samples->statements.push_back(delta(after.statements, before.statements));
    samples->tuples_out.push_back(
        static_cast<double>(database->TotalTuples()));

    answer = precis::PrecisAnswer{std::move(matches), std::move(*schema),
                                  std::move(*database),
                                  generator.last_report()};
  }

  t = Clock::now();
  {
    SpanScope span(spans, "precis.render", root.id(), request_id);
    *json = precis::AnswerToJson(*answer);
  }
  samples->render_us.push_back(Seconds(t, Clock::now()) * 1e6);
  return true;
}

}  // namespace

int SpanRecorder::Open(const char* name, int parent, uint32_t request) {
  const int64_t now = NowNs();
  spans_.push_back(Span{name, now, now, parent, request});
  return static_cast<int>(spans_.size() - 1);
}

void SpanRecorder::Close(int id) {
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
}

int64_t SpanRecorder::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

Status SpanRecorder::WriteJsonLines(const std::string& path,
                                    const std::string& workload) const {
  std::ofstream out(path);
  if (!out) return Status::Internal("cannot write " + path);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"workload\":\"" << workload << "\",\"request\":" << s.request
        << ",\"id\":" << i << ",\"parent\":" << s.parent << ",\"name\":\""
        << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}\n";
  }
  out.close();
  return out ? Status::OK() : Status::Internal("cannot write " + path);
}

std::map<std::string, double> SpanRecorder::SelfTimesMs() const {
  std::vector<int64_t> children_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> self_ms;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self_ms[s.name] +=
        static_cast<double>(s.end_ns - s.start_ns - children_ns[i]) / 1e6;
  }
  return self_ms;
}

LayerSamples TracedReplay(const precis::PrecisEngine& engine,
                          const precis::Database& db,
                          const precis::SchemaGraph& graph,
                          const std::vector<std::string>& bodies,
                          SpanRecorder* spans) {
  LayerSamples samples;
  for (size_t i = 0; i < bodies.size(); ++i) {
    // Alternate which path runs first so neither always finds warm caches.
    Reference ref;
    auto run_reference = [&] {
      ref = AnswerThroughEngine(engine, bodies[i]);
    };
    std::string composed;
    bool composed_ok = false;
    double composed_seconds = 0;
    auto run_composed = [&] {
      const Clock::time_point start = Clock::now();
      composed_ok = AnswerComposed(engine, db, graph, bodies[i],
                                   static_cast<uint32_t>(i), spans, &samples,
                                   &composed);
      composed_seconds = Seconds(start, Clock::now());
    };
    if (i % 2 == 0) {
      run_reference();
      run_composed();
    } else {
      run_composed();
      run_reference();
    }
    if (!ref.ok || !composed_ok || composed != ref.json) {
      ++samples.mismatches;
      continue;
    }
    samples.glue_ms.push_back(ref.glue_ms);
    samples.untraced_seconds += ref.seconds;
    samples.traced_seconds += composed_seconds;
  }
  return samples;
}

std::vector<double> QueueWaitsMs(precis::PrecisService* service,
                                 const std::vector<std::string>& bodies,
                                 double qps, size_t* shed) {
  std::vector<precis::ServiceRequest> requests;
  for (const std::string& body : bodies) {
    auto parsed = precis::ParseQueryRequest(body);
    if (!parsed.ok()) continue;
    parsed->request.render_body = true;  // as the HTTP front end asks
    requests.push_back(std::move(parsed->request));
  }
  // Shared with the callbacks, so it outlives the last one even after
  // done.wait() has returned here.
  struct State {
    explicit State(size_t n)
        : waits(n, std::numeric_limits<double>::quiet_NaN()),
          done(static_cast<std::ptrdiff_t>(n)) {}
    // NaN marks a refused request; a queue wait can round to just below 0.
    std::vector<double> waits;
    std::atomic<size_t> refused{0};
    std::latch done;
  };
  auto state = std::make_shared<State>(requests.size());
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  for (size_t i = 0; i < requests.size(); ++i) {
    const std::chrono::duration<double> offset(static_cast<double>(i) / qps);
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(offset));
    const Clock::time_point submitted = Clock::now();
    service->SubmitAsync(
        std::move(requests[i]),
        [state, i, submitted](precis::ServiceResponse r) {
          if (r.status.ok()) {
            state->waits[i] = Seconds(submitted, Clock::now()) * 1e3 -
                              r.latency_seconds * 1e3;
          } else {
            state->refused.fetch_add(1, std::memory_order_relaxed);
          }
          state->done.count_down();
        });
  }
  state->done.wait();
  *shed = state->refused.load();
  std::vector<double> out;
  for (double w : state->waits) {
    if (!std::isnan(w)) out.push_back(std::max(w, 0.0));
  }
  return out;
}

}  // namespace perfbench
