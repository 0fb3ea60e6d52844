// The traced run: spans recorded by the benchmark around its calls into
// each layer's public functions, and the in-process replays that produce
// the per-layer numbers. Nothing here runs while end-to-end metrics are
// timed.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/schema_graph.h"
#include "precis/engine.h"
#include "service/precis_service.h"
#include "storage/database.h"

namespace perfbench {

struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;  // index into the recorder's spans; -1 for a root
  uint32_t request;
};

/// In-memory span store; written out once, at the end of the run.
class SpanRecorder {
 public:
  int Open(const char* name, int parent, uint32_t request);
  void Close(int id);

  /// One JSON object per line: workload, request, id, parent, name,
  /// start_ns, end_ns.
  precis::Status WriteJsonLines(const std::string& path,
                                const std::string& workload) const;

  /// Per span name: summed self time (duration minus the part its direct
  /// children cover) in milliseconds.
  std::map<std::string, double> SelfTimesMs() const;

 private:
  using Clock = std::chrono::steady_clock;
  int64_t NowNs() const;

  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
};

/// Per-request samples from one replay of a stream.
struct LayerSamples {
  std::vector<double> parse_us;
  std::vector<double> lookup_us;  // one per InvertedIndex::Lookup call
  std::vector<double> seed_tids;
  std::vector<double> schema_us;
  std::vector<double> dbgen_ms;
  std::vector<double> index_probes;
  std::vector<double> tuple_fetches;
  std::vector<double> statements;
  std::vector<double> tuples_out;
  std::vector<double> render_us;
  /// PrecisEngine::Answer minus its match_tokens, schema_gen and db_gen
  /// spans on the same request.
  std::vector<double> glue_ms;
  /// Parse + PrecisEngine::Answer + AnswerToJson, untraced.
  double untraced_seconds = 0;
  /// The same work composed from the layers' public calls, traced.
  double traced_seconds = 0;
  /// Requests whose composed bytes differ from PrecisEngine::Answer +
  /// AnswerToJson (or that failed to parse or answer).
  size_t mismatches = 0;
};

/// Replays `bodies` in-process, once through PrecisEngine::Answer (the
/// reference) and once composed from the public calls PrecisEngine makes
/// (index lookup, seed assembly, schema and database generation), each
/// wrapped in a span, then rendered with AnswerToJson. `engine` must have
/// its caches off.
LayerSamples TracedReplay(const precis::PrecisEngine& engine,
                          const precis::Database& db,
                          const precis::SchemaGraph& graph,
                          const std::vector<std::string>& bodies,
                          SpanRecorder* spans);

/// Submits `bodies` to `service` with SubmitAsync on an open-loop schedule
/// at `qps` and returns, per answered request, the completion callback's
/// time minus submission minus the answer's latency_seconds: time queued
/// before a worker took it. `shed` receives refused submissions.
std::vector<double> QueueWaitsMs(precis::PrecisService* service,
                                 const std::vector<std::string>& bodies,
                                 double qps, size_t* shed);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
