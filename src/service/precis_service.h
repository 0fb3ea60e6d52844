// PrecisService: a concurrent front end for PrecisEngine.
//
// The paper frames précis queries as an end-user database feature ("a précis
// of Woody Allen" on a movie site), which implies many queries in flight at
// once, each with a bounded response time (§6's cost model exists exactly to
// bound per-query work). This service supplies that operational layer: a
// fixed-size worker pool executes submitted queries, each under its own
// ExecutionContext carrying the deadline / access budget derived from the
// service defaults or per-request overrides, and the service aggregates
// metrics (throughput, deadline hits, budget truncations, latency
// percentiles, per-stage span totals) across all queries it served.

#ifndef PRECIS_SERVICE_PRECIS_SERVICE_H_
#define PRECIS_SERVICE_PRECIS_SERVICE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/execution_context.h"
#include "common/result.h"
#include "common/symbol_table.h"
#include "precis/engine.h"

namespace precis {

/// \brief One précis query plus its execution knobs. The constraint fields
/// mirror the paper's Tables 1 and 2 in scalar form so a request is a plain
/// value (copyable, queueable) rather than a bag of constraint objects.
struct ServiceRequest {
  PrecisQuery query;

  /// Degree constraint: keep projection paths of weight >= min_path_weight
  /// (Table 1, row 2); additionally cap the number of projections when
  /// max_projections > 0 (Table 1, row 1).
  double min_path_weight = 0.0;
  size_t max_projections = 0;  // 0 = no bound

  /// Cardinality constraint: max tuples per result relation (Table 2,
  /// row 2); 0 = unlimited.
  size_t tuples_per_relation = 0;

  DbGenOptions options;

  /// Per-request overrides of the service defaults; 0 means "use default".
  double deadline_seconds = 0.0;
  uint64_t access_budget = 0;

  /// When true, the worker also produces ServiceResponse::body_json (the
  /// memoized AnswerToJson rendering, DESIGN.md §16) so transport layers
  /// can serve the bytes without re-rendering. Off by default: embedded
  /// callers that only inspect the answer skip the serialization cost.
  bool render_body = false;
};

/// \brief Outcome of one serviced query.
struct ServiceResponse {
  Status status;
  /// Non-null iff status.ok(). Shared and immutable so that a full-answer
  /// cache hit (engine cache enabled) hands every requester the same stored
  /// answer without copying its result database.
  std::shared_ptr<const PrecisAnswer> answer;
  /// Non-null iff status.ok() and the request set render_body: exactly
  /// AnswerToJson(*answer), shared so the transport can write it to the
  /// wire with zero copies (memoized across requests by the engine's body
  /// cache when enabled).
  std::shared_ptr<const std::string> body_json;
  /// The query's own access counters (its ExecutionContext's stats).
  AccessStats stats;
  /// Why the pipeline stopped early, kNone for a complete answer.
  StopReason stop_reason = StopReason::kNone;
  double latency_seconds = 0.0;
  /// Per-stage trace spans ("match_tokens", "schema_gen", "db_gen").
  std::vector<TraceSpan> spans;

  /// Fault-degradation summary (DESIGN.md §12), copied from the answer's
  /// DbGenReport: true when injected faults cost the answer tuples or
  /// lookups. The answer remains structurally well-formed.
  bool degraded = false;
  /// Retries performed against transient faults (successful or not).
  uint64_t retries = 0;
  /// Tuples lost to exhausted retries.
  uint64_t dropped_tuples = 0;
  /// High-water mark of the query's arena (DESIGN.md §13): scratch bytes
  /// the generator pipeline bump-allocated for this query and freed
  /// wholesale at context teardown.
  uint64_t arena_peak_bytes = 0;

  bool partial() const { return stop_reason != StopReason::kNone; }
};

/// \brief Executes précis queries on a fixed-size worker pool.
class PrecisService {
 public:
  struct Options {
    /// Worker threads; clamped to >= 1.
    size_t num_workers = 4;
    /// Default wall-clock deadline per query; 0 = none.
    double default_deadline_seconds = 0.0;
    /// Default access budget per query; 0 = unbounded. Ignored when
    /// response_time_target_seconds is set.
    uint64_t default_access_budget = 0;
    /// When > 0, the default access budget is derived from this target via
    /// the paper's Formula 3 using cost_params (which must then have a
    /// positive per-tuple cost).
    double response_time_target_seconds = 0.0;
    CostParameters cost_params;

    /// Default intra-query parallelism (DbGenOptions::parallelism) applied
    /// to requests that leave options.parallelism at its default (<= 1):
    /// >= 2 runs cold database generation on the process-wide shared
    /// TaskPool (DESIGN.md §11). One pool serves all workers, so `service
    /// workers x per-query chunk tasks` cannot oversubscribe the machine.
    /// 0 (default) leaves requests untouched.
    size_t dbgen_parallelism = 0;

    /// Admission-queue bound (load shedding, DESIGN.md §12). When > 0, a
    /// Submit that would make the queue deeper than this is rejected
    /// immediately with a typed Status::Overloaded response instead of
    /// queueing unboundedly — the load-shedding discipline keyword-search
    /// services use under overload. 0 (default) = unbounded queue.
    size_t max_queue_depth = 0;

    /// Fault injector attached to every query's ExecutionContext (chaos
    /// testing / fault drills); not owned, must outlive the service.
    /// nullptr (default) disables fault checks entirely.
    FaultInjector* fault_injector = nullptr;

    /// Backoff parameters for transient-fault retries in the layers below.
    RetryPolicy retry_policy;
  };

  /// Per-partition serving counters, one entry per partition of an engine
  /// with N >= 2 partitions (DESIGN.md §15); a one-partition engine reports
  /// none.
  struct ShardMetricsEntry {
    /// Tuples of the source the partition owns now.
    uint64_t tuples = 0;
    /// The shard's circuit-breaker snapshot (DESIGN.md §17): state string
    /// ("closed"/"open"/"half_open") plus lifetime transition counters.
    std::string breaker_state = "closed";
    uint64_t breaker_opened = 0;
    uint64_t breaker_rejected = 0;
    uint64_t breaker_half_open_probes = 0;
    uint64_t breaker_failures = 0;
  };

  /// Latency samples kept for the percentiles: a ring of the most recent
  /// queries, allocated once, so neither memory nor a metrics() scrape
  /// grows with uptime.
  static constexpr size_t kLatencyWindow = 4096;

  /// Aggregate counters across every query the service has finished.
  struct Metrics {
    uint64_t queries_served = 0;  // completed, OK or not
    uint64_t failures = 0;        // non-OK status
    uint64_t deadline_hits = 0;
    uint64_t budget_truncations = 0;
    uint64_t cancellations = 0;
    /// Requests rejected at admission (Status::Overloaded) because the
    /// queue was at max_queue_depth. Not counted in queries_served.
    uint64_t queries_shed = 0;
    /// Completed queries whose answer lost tuples/lookups to faults.
    uint64_t degraded_answers = 0;
    /// Transient-fault retries across all queries.
    uint64_t retries_total = 0;
    /// Tuples lost to exhausted retries across all queries.
    uint64_t dropped_tuples_total = 0;
    /// Latency percentiles over the last kLatencyWindow queries (all time
    /// when fewer have finished); the total covers every query.
    double p50_latency_seconds = 0.0;
    double p99_latency_seconds = 0.0;
    double total_latency_seconds = 0.0;
    /// Sum of every query's per-context AccessStats.
    AccessStats total_stats;
    /// Total seconds spent per pipeline stage, keyed by span name.
    std::map<std::string, double> span_seconds;
    /// Cache counters per level (DESIGN.md §10), snapshotted from the
    /// engine at metrics() time. All-zero when the level is disabled.
    LruCacheStats token_cache;
    LruCacheStats schema_cache;
    LruCacheStats answer_cache;
    /// Rendered-body (serialization) cache, level 4 (DESIGN.md §16).
    LruCacheStats body_cache;
    /// Largest per-query arena high-water mark seen (DESIGN.md §13).
    uint64_t arena_peak_bytes_max = 0;
    /// Sum of every query's arena high-water mark.
    uint64_t arena_peak_bytes_total = 0;
    /// Process-wide string-interner footprint (DESIGN.md §13),
    /// snapshotted from SymbolTable::Global() at metrics() time.
    SymbolTableStats symbol_table;
    /// Partitioned serving (DESIGN.md §15): one entry per partition; empty
    /// at one partition.
    std::vector<ShardMetricsEntry> shards;
    /// Fault-domain serving totals (DESIGN.md §17), all queries combined:
    /// queries answered without at least one partition, individual
    /// partition exclusions, kShardSubquery probe retries, breaker
    /// fast-fails (skips without probing), hedges fired, and hedges that
    /// beat the stall.
    uint64_t shard_degraded_queries = 0;
    uint64_t shard_skips_total = 0;
    uint64_t shard_probe_retries_total = 0;
    uint64_t shard_breaker_rejects_total = 0;
    uint64_t hedged_subqueries_total = 0;
    uint64_t hedge_wins_total = 0;
  };

  /// `engine` must outlive the service. Workers start immediately.
  static Result<std::unique_ptr<PrecisService>> Create(
      const PrecisEngine* engine, Options options);
  static Result<std::unique_ptr<PrecisService>> Create(
      const PrecisEngine* engine) {
    return Create(engine, Options());
  }

  /// Stops accepting work and joins the workers (equivalent to Shutdown()).
  ~PrecisService();

  PrecisService(const PrecisService&) = delete;
  PrecisService& operator=(const PrecisService&) = delete;

  /// Enqueues one query; the future resolves when a worker finishes it.
  /// After Shutdown() the future resolves immediately with a failed status.
  std::future<ServiceResponse> Submit(ServiceRequest request);

  /// Enqueues one query with a completion callback instead of a future —
  /// the push-notification shape the HTTP front end needs (its poll loops
  /// cannot block on futures). `done` runs exactly once: on a worker
  /// thread after the query finishes, or synchronously on the calling
  /// thread when the request is shed (Status::Overloaded) or the service
  /// is shut down. Callbacks must be fast and must not throw; anything
  /// heavy belongs on the callback receiver's own thread.
  void SubmitAsync(ServiceRequest request,
                   std::function<void(ServiceResponse)> done);

  /// Enqueues a batch atomically (all requests are queued before any worker
  /// sees them), one future per request in order.
  std::vector<std::future<ServiceResponse>> SubmitBatch(
      std::vector<ServiceRequest> requests);

  /// Convenience: Submit and wait.
  ServiceResponse Execute(ServiceRequest request);

  /// Drains queued work, then joins the workers. Idempotent; called by the
  /// destructor.
  void Shutdown();

  /// Snapshot of the aggregate metrics. The copy-out of the (bounded)
  /// latency windows happens under the stats mutex but the percentile sort
  /// runs on the copy *outside* it, so a scrape cannot stall admission or
  /// workers recording outcomes. Cache counters and, at N >= 2
  /// partitions, per-partition residency and health come from the engine.
  Metrics metrics() const;

  size_t num_workers() const { return workers_.size(); }

 private:
  PrecisService(const PrecisEngine* engine, Options options);

  struct Job {
    ServiceRequest request;
    /// Completion continuation (a promise-fulfilling lambda for Submit,
    /// the caller's callback for SubmitAsync). Never null once enqueued.
    std::function<void(ServiceResponse)> done;
  };

  void WorkerLoop();
  /// Runs one request; `shard_stats` receives its fault-domain telemetry at
  /// N >= 2 partitions.
  ServiceResponse RunOne(const ServiceRequest& request,
                         ShardQueryStats* shard_stats);
  /// Folds one finished query into metrics_ (and, at N >= 2 partitions,
  /// its telemetry into the fault-domain totals).
  void RecordOutcome(const ServiceResponse& response,
                     const ShardQueryStats& shard_stats);

  const PrecisEngine* engine_;
  Options options_;

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<Job> queue_;
  bool shutting_down_ = false;

  /// The last kLatencyWindow samples, oldest overwritten first.
  struct SampleRing {
    std::vector<double> samples;
    size_t next = 0;
    void Add(double sample);
  };

  mutable std::mutex metrics_mutex_;
  Metrics metrics_;
  SampleRing latencies_;

  std::vector<std::thread> workers_;
};

}  // namespace precis

#endif  // PRECIS_SERVICE_PRECIS_SERVICE_H_
