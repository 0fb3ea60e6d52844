#include "service/precis_service.h"

#include <algorithm>
#include <chrono>

#include "precis/constraints.h"

namespace precis {

Result<std::unique_ptr<PrecisService>> PrecisService::Create(
    const PrecisEngine* engine, Options options) {
  if (engine == nullptr) {
    return Status::InvalidArgument("engine must be non-null");
  }
  if (options.response_time_target_seconds > 0 &&
      options.cost_params.PerTupleCost() <= 0) {
    return Status::InvalidArgument(
        "a response-time target needs positive cost parameters "
        "(Formula 3 divides by IndexTime + TupleTime)");
  }
  if (options.num_workers == 0) options.num_workers = 1;
  return std::unique_ptr<PrecisService>(
      new PrecisService(engine, std::move(options)));
}

PrecisService::PrecisService(const PrecisEngine* engine, Options options)
    : engine_(engine), options_(std::move(options)) {
  latencies_.samples.reserve(kLatencyWindow);
  if (engine_->num_partitions() >= 2) {
    metrics_.shards.resize(engine_->num_partitions());
  }
  workers_.reserve(options_.num_workers);
  for (size_t i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

PrecisService::~PrecisService() { Shutdown(); }

std::future<ServiceResponse> PrecisService::Submit(ServiceRequest request) {
  auto promise = std::make_shared<std::promise<ServiceResponse>>();
  std::future<ServiceResponse> future = promise->get_future();
  SubmitAsync(std::move(request), [promise](ServiceResponse response) {
    promise->set_value(std::move(response));
  });
  return future;
}

void PrecisService::SubmitAsync(ServiceRequest request,
                                std::function<void(ServiceResponse)> done) {
  Job job;
  job.request = std::move(request);
  job.done = std::move(done);
  bool shed = false;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (shutting_down_) {
      ServiceResponse rejected;
      rejected.status =
          Status::Internal("service is shut down; submission rejected");
      job.done(std::move(rejected));
      return;
    }
    if (options_.max_queue_depth > 0 &&
        queue_.size() >= options_.max_queue_depth) {
      shed = true;
    } else {
      queue_.push_back(std::move(job));
    }
  }
  if (shed) {
    // Load shedding (DESIGN.md §12): fail fast with a typed status rather
    // than letting the queue (and every queued query's latency) grow without
    // bound. The continuation runs outside queue_mutex_ so a caller blocked
    // on the result can't interleave with queue operations.
    ServiceResponse rejected;
    rejected.status = Status::Overloaded(
        "admission queue full (depth " +
        std::to_string(options_.max_queue_depth) + "); request shed");
    {
      std::lock_guard<std::mutex> lock(metrics_mutex_);
      ++metrics_.queries_shed;
    }
    job.done(std::move(rejected));
    return;
  }
  queue_cv_.notify_one();
}

std::vector<std::future<ServiceResponse>> PrecisService::SubmitBatch(
    std::vector<ServiceRequest> requests) {
  std::vector<std::future<ServiceResponse>> futures;
  futures.reserve(requests.size());
  std::vector<Job> shed_jobs;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    for (ServiceRequest& request : requests) {
      Job job;
      job.request = std::move(request);
      auto promise = std::make_shared<std::promise<ServiceResponse>>();
      futures.push_back(promise->get_future());
      job.done = [promise](ServiceResponse response) {
        promise->set_value(std::move(response));
      };
      if (shutting_down_) {
        ServiceResponse rejected;
        rejected.status =
            Status::Internal("service is shut down; submission rejected");
        job.done(std::move(rejected));
      } else if (options_.max_queue_depth > 0 &&
                 queue_.size() >= options_.max_queue_depth) {
        shed_jobs.push_back(std::move(job));
      } else {
        queue_.push_back(std::move(job));
      }
    }
  }
  for (Job& job : shed_jobs) {
    ServiceResponse rejected;
    rejected.status = Status::Overloaded(
        "admission queue full (depth " +
        std::to_string(options_.max_queue_depth) + "); request shed");
    job.done(std::move(rejected));
  }
  if (!shed_jobs.empty()) {
    std::lock_guard<std::mutex> lock(metrics_mutex_);
    metrics_.queries_shed += shed_jobs.size();
  }
  queue_cv_.notify_all();
  return futures;
}

ServiceResponse PrecisService::Execute(ServiceRequest request) {
  return Submit(std::move(request)).get();
}

void PrecisService::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (shutting_down_ && workers_.empty()) return;
    shutting_down_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

void PrecisService::WorkerLoop() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock,
                     [this] { return shutting_down_ || !queue_.empty(); });
      // Drain the queue even when shutting down: every accepted future
      // must resolve with a real answer.
      if (queue_.empty()) return;
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    ShardQueryStats shard_stats;
    ServiceResponse response = RunOne(job.request, &shard_stats);
    RecordOutcome(response, shard_stats);
    job.done(std::move(response));
  }
}

ServiceResponse PrecisService::RunOne(const ServiceRequest& request,
                                      ShardQueryStats* shard_stats) {
  ExecutionContext ctx;

  double deadline = request.deadline_seconds > 0
                        ? request.deadline_seconds
                        : options_.default_deadline_seconds;
  if (deadline > 0) ctx.SetDeadlineAfter(deadline);

  if (request.access_budget > 0) {
    ctx.SetAccessBudget(request.access_budget);
  } else if (options_.response_time_target_seconds > 0) {
    // Create() validated the cost parameters, so this cannot fail.
    Status derived = ctx.SetBudgetFromResponseTime(
        options_.cost_params, options_.response_time_target_seconds);
    (void)derived;
  } else if (options_.default_access_budget > 0) {
    ctx.SetAccessBudget(options_.default_access_budget);
  }

  // Fault injection (DESIGN.md §12): arm every query's context with the
  // service-wide injector (chaos drills exercise the whole pool, not one
  // query) and the retry policy the layers below consult on transient
  // faults.
  if (options_.fault_injector != nullptr) {
    ctx.SetFaultInjector(options_.fault_injector);
  }
  ctx.set_retry_policy(options_.retry_policy);

  std::vector<std::unique_ptr<DegreeConstraint>> degree_parts;
  degree_parts.push_back(MinPathWeight(request.min_path_weight));
  if (request.max_projections > 0) {
    degree_parts.push_back(MaxProjections(request.max_projections));
  }
  std::unique_ptr<DegreeConstraint> degree =
      degree_parts.size() == 1 ? std::move(degree_parts.front())
                               : AllOf(std::move(degree_parts));
  std::unique_ptr<CardinalityConstraint> cardinality =
      request.tuples_per_relation > 0
          ? MaxTuplesPerRelation(request.tuples_per_relation)
          : UnlimitedCardinality();

  // Apply the service-wide intra-query parallelism default unless the
  // request carries an explicit setting. Output is byte-identical either
  // way (DESIGN.md §11); this only changes cold-generation latency. The
  // shared process-wide pool (DbGenOptions::pool == nullptr) keeps
  // `workers x chunk tasks` from oversubscribing the machine.
  DbGenOptions dbgen_options = request.options;
  if (options_.dbgen_parallelism >= 2 && dbgen_options.parallelism <= 1) {
    dbgen_options.parallelism = options_.dbgen_parallelism;
  }

  ServiceResponse response;
  auto start = ExecutionContext::Clock::now();
  // AnswerShared routes through the engine's full-answer cache when that is
  // enabled (a hit shares the stored immutable answer) and degrades to a
  // plain uncached build otherwise. A render_body request takes the
  // rendered variant, which additionally memoizes the AnswerToJson bytes
  // through the engine's body cache (DESIGN.md §16).
  Result<std::shared_ptr<const PrecisAnswer>> answer = [&] {
    if (!request.render_body) {
      return engine_->AnswerShared(request.query, *degree, *cardinality,
                                   dbgen_options, &ctx, shard_stats);
    }
    auto rendered = engine_->AnswerSharedRendered(
        request.query, *degree, *cardinality, dbgen_options, &ctx,
        shard_stats);
    if (!rendered.ok()) {
      return Result<std::shared_ptr<const PrecisAnswer>>(rendered.status());
    }
    response.body_json = std::move(rendered->body_json);
    return Result<std::shared_ptr<const PrecisAnswer>>(
        std::move(rendered->answer));
  }();
  response.latency_seconds =
      std::chrono::duration<double>(ExecutionContext::Clock::now() - start)
          .count();
  if (answer.ok()) {
    response.answer = std::move(*answer);
    response.degraded = response.answer->report.degraded();
    response.retries = response.answer->report.degradation.total_retries();
    response.dropped_tuples =
        response.answer->report.degradation.total_dropped_tuples();
  } else {
    response.status = answer.status();
  }
  response.stats = ctx.stats();
  response.stop_reason = ctx.stop_reason();
  response.spans = ctx.spans();
  response.arena_peak_bytes = ctx.arena_stats().peak_used_bytes;
  return response;
}

void PrecisService::SampleRing::Add(double sample) {
  if (samples.size() < kLatencyWindow) {
    samples.push_back(sample);
  } else {
    samples[next] = sample;
  }
  next = (next + 1) % kLatencyWindow;
}

void PrecisService::RecordOutcome(const ServiceResponse& response,
                                  const ShardQueryStats& shard_stats) {
  std::lock_guard<std::mutex> lock(metrics_mutex_);
  ++metrics_.queries_served;
  if (!response.status.ok()) ++metrics_.failures;
  switch (response.stop_reason) {
    case StopReason::kDeadlineExceeded:
      ++metrics_.deadline_hits;
      break;
    case StopReason::kAccessBudgetExhausted:
      ++metrics_.budget_truncations;
      break;
    case StopReason::kCancelled:
      ++metrics_.cancellations;
      break;
    case StopReason::kNone:
      break;
  }
  if (response.degraded) ++metrics_.degraded_answers;
  metrics_.retries_total += response.retries;
  metrics_.dropped_tuples_total += response.dropped_tuples;
  metrics_.total_latency_seconds += response.latency_seconds;
  metrics_.total_stats += response.stats;
  metrics_.arena_peak_bytes_total += response.arena_peak_bytes;
  if (response.arena_peak_bytes > metrics_.arena_peak_bytes_max) {
    metrics_.arena_peak_bytes_max = response.arena_peak_bytes;
  }
  for (const TraceSpan& span : response.spans) {
    metrics_.span_seconds[span.name] += span.seconds;
  }
  latencies_.Add(response.latency_seconds);
  if (metrics_.shards.empty()) return;
  if (!shard_stats.shards_skipped.empty()) ++metrics_.shard_degraded_queries;
  metrics_.shard_skips_total += shard_stats.shards_skipped.size();
  metrics_.shard_probe_retries_total += shard_stats.shard_probe_retries;
  metrics_.shard_breaker_rejects_total += shard_stats.breaker_rejects;
}

namespace {

/// Linear interpolation between closest ranks of `samples` (bench_util.h
/// Percentile uses the same estimator, so bench reports and /metrics
/// agree). Sorts in place; 0 when empty.
double Percentile(std::vector<double>* samples, double p) {
  if (samples->empty()) return 0.0;
  std::sort(samples->begin(), samples->end());
  const std::vector<double>& sorted = *samples;
  double rank = p * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  if (lo + 1 >= sorted.size()) return sorted.back();
  double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[lo + 1] - sorted[lo]);
}

}  // namespace

PrecisService::Metrics PrecisService::metrics() const {
  Metrics snapshot;
  std::vector<double> latencies;
  {
    // Only the copy-out holds the lock; the percentile sorts run on the
    // copies, so a scrape never stalls RecordOutcome (and through it the
    // workers).
    std::lock_guard<std::mutex> lock(metrics_mutex_);
    snapshot = metrics_;
    latencies = latencies_.samples;
  }
  snapshot.p50_latency_seconds = Percentile(&latencies, 0.50);
  snapshot.p99_latency_seconds = Percentile(&latencies, 0.99);
  // The interner is process-wide (every Value shares it), so its footprint
  // belongs in the same one-call serving snapshot.
  snapshot.symbol_table = SymbolTable::Global()->stats();

  // Cache counters and partition state live in the engine (shared by every
  // caller of it, not just this service); snapshot them here so one
  // metrics() call tells the whole serving story.
  snapshot.token_cache = engine_->token_cache_stats();
  snapshot.schema_cache = engine_->schema_cache_stats();
  snapshot.answer_cache = engine_->answer_cache_stats();
  snapshot.body_cache = engine_->body_cache_stats();
  if (const ShardHealthTracker* health = engine_->health()) {
    for (size_t s = 0; s < snapshot.shards.size(); ++s) {
      ShardMetricsEntry& shard = snapshot.shards[s];
      shard.tuples = engine_->partitions()->TuplesOn(s);
      CircuitBreakerStats breaker = health->breaker(s).stats();
      shard.breaker_state = BreakerStateToString(breaker.state);
      shard.breaker_opened = breaker.opened_total;
      shard.breaker_rejected = breaker.rejected_total;
      shard.breaker_half_open_probes = breaker.half_open_probes;
      shard.breaker_failures = breaker.failures_total;
    }
    snapshot.hedged_subqueries_total =
        health->hedged_subqueries.load(std::memory_order_relaxed);
    snapshot.hedge_wins_total =
        health->hedge_wins.load(std::memory_order_relaxed);
  }
  return snapshot;
}

}  // namespace precis
