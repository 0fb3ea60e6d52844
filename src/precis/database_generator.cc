// Result Database Algorithm (paper §5.2, Fig. 5): the one planner behind
// every execution shape — inline, pooled and sharded (DESIGN.md §11, §15).
//
// The algorithm makes every decision that shapes the output — which tuple
// is accepted, in which order, where the cardinality budget truncates,
// which edge runs next — from *tids and counts only*; tuple values are
// needed only to drive join keys (uncharged column reads) and to
// materialize the output. That observation is the whole design:
//
//   * PLAN (calling thread): walks Fig. 5 — same seed order, edge schedule,
//     per-edge RoundRobin rounds, duplicate handling and budget checks as
//     the classic walk — but records accepted tids instead of fetching
//     tuples. Budget stops are decided against a *simulated* charge
//     counter that replays the classic walk's charge sequence (probe per
//     key, fetch per processed candidate, duplicates included), because
//     the real AccessStats legitimately differ (duplicates are never
//     re-fetched); the decided reason is latched onto the ExecutionContext
//     so one observed stop stops everything. Fault checks are replayed at
//     the walk's positions too, so the injector sees the walk's sequence.
//   * FETCH: every kChunkTuples accepted tids of a relation become one
//     materialization task that pays the simulated per-tuple I/O wait and
//     projects the tuples, charged, into a chunk-owned arena buffer. Chunk
//     boundaries depend only on the accepted sequence.
//   * MERGE/EMIT: after the plan completes and the chunks drain, chunk
//     buffers are concatenated in acceptance order and inserted; the
//     per-relation emit and per-FK validation are tasks too.
//
// The planner reads one Database in place. A partitioned query adds its
// fault plan: lookups drop the tids of skipped partitions, and stalled
// partitions delay each edge by a computed wait (DESIGN.md §15, §17).
// Tasks run inline on the caller when
// max(parallelism, partitions) == 1 and on the task pool otherwise. The
// emitted database and DbGenReport are byte-identical either way, at any
// pool size, including budget-stopped partial runs; deadline and
// cancellation stops stay wall-clock-dependent.
//
// The classic sequential walk lives on as the test oracle
// (tests/sequential_walk.cc): it is the only code that performs for real
// the fault-check and charge sequence this planner replays.

#include "precis/database_generator.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/flat_key_set.h"
#include "common/retry.h"
#include "common/task_pool.h"
#include "precis/dbgen_common.h"
#include "shard/shard_router.h"
#include "sql/select.h"

namespace precis {

using dbgen_internal::DegradationFor;
using dbgen_internal::EmittedAttributeIndices;
using dbgen_internal::FaultsArmed;
using dbgen_internal::IsToOne;
using dbgen_internal::RenderSeedSql;

namespace {

/// Accepted tids per materialization task. Large enough that a chunk's
/// simulated I/O consolidates into one substantial sleep and the pool
/// transfer cost is noise; small enough that a large-c query yields many
/// chunks to steal.
constexpr size_t kChunkTuples = 256;

/// Accepted-tid count above which pooled runs fan join-key column reads
/// out across the pool.
constexpr size_t kParallelKeyExtraction = 4096;

/// Busy-waits for the simulated per-statement overhead (see
/// DbGenOptions::statement_overhead_ns). A sleep would be descheduled for
/// far longer than the microsecond scale being modelled.
void SimulateStatementOverhead(uint64_t total_ns) {
  if (total_ns == 0) return;
  auto until = std::chrono::steady_clock::now() +
               std::chrono::nanoseconds(total_ns);
  while (std::chrono::steady_clock::now() < until) {
  }
}

/// The out-of-range message Relation::Get produces, replicated so a seed
/// tid the planner validates without fetching fails with the byte-same
/// status text a Get would.
std::string TidOutOfRangeMessage(Tid tid, const Relation& relation) {
  return "tid " + std::to_string(tid) + " out of range for relation '" +
         relation.schema().name() + "' with " +
         std::to_string(relation.num_tuples()) + " tuples";
}

/// One materialization task's input (tid snapshot) and output (projected
/// cells, row-major `count x width`, index-aligned with `tids`). Both
/// arrays live in the query's Arena — allocated by the planner, filled by
/// the chunk task through the relation's columnar projection, freed
/// wholesale at context teardown. The task owns the cells exclusively
/// until the group Wait hands them back to the merging thread; a Value is
/// trivially copyable, so a chunk is two flat arena arrays.
struct MaterializedChunk {
  const Tid* tids = nullptr;
  size_t count = 0;
  size_t width = 0;        // attributes per row
  Value* cells = nullptr;  // count * width, row-major
};

/// Plan-side state of one result relation: the accepted tids and their
/// bookkeeping, proportional to what the query accepts (never to the
/// source relation's size). Arrival tags are only tracked when path-aware
/// propagation will read them.
struct PlannedRelation {
  const Relation* source = nullptr;
  std::vector<size_t> emitted;  // emitted attribute indices (sorted)

  std::vector<Tid> accepted;  // Fig. 5 collection order
  FlatKeySet seen;            // the accepted tids, for the duplicate check
  bool track_arrivals = false;
  std::unordered_map<Tid, std::vector<const JoinEdge*>> arrivals;

  size_t next_chunk_start = 0;  // first accepted index not yet chunked
  std::vector<MaterializedChunk*> chunks;  // arena-owned, planner-ordered

  void Tag(Tid tid, const JoinEdge* arrival) {
    if (!track_arrivals) return;
    std::vector<const JoinEdge*>& tags = arrivals[tid];
    for (const JoinEdge* t : tags) {
      if (t == arrival) return;
    }
    tags.push_back(arrival);
  }
};

/// Runs one query's tasks: inline on the caller when `pool` is null, else
/// on the pool with at most `limit` in flight. Excess pool submissions
/// queue locally and are chained in by completing tasks, so one query
/// cannot flood the shared pool ahead of its share. Destruction waits for
/// everything (including the deferred chain) before tearing down.
class ThrottledGroup {
 public:
  ThrottledGroup(TaskPool* pool, size_t limit)
      : limit_(std::max<size_t>(1, limit)) {
    if (pool != nullptr) group_.emplace(pool);
  }

  ~ThrottledGroup() {
    try {
      Wait();
    } catch (...) {
      // Callers who care about task exceptions call Wait() themselves.
    }
  }

  void Run(std::function<void()> fn) {
    if (!group_) {
      fn();
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (in_flight_ >= limit_) {
        deferred_.push_back(std::move(fn));
        return;
      }
      ++in_flight_;
    }
    Launch(std::move(fn));
  }

  /// Waits for every submitted task (rethrows the first task exception).
  /// The group is reusable afterwards — the emit and FK phases reuse it.
  void Wait() {
    if (group_) group_->Wait();
  }

 private:
  void Launch(std::function<void()> fn) {
    group_->Run([this, fn = std::move(fn)]() mutable {
      try {
        fn();
      } catch (...) {
        OnDone();  // keep the deferred chain draining even on failure
        throw;
      }
      OnDone();
    });
  }

  void OnDone() {
    std::function<void()> next;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (deferred_.empty()) {
        --in_flight_;
        return;
      }
      next = std::move(deferred_.front());
      deferred_.pop_front();
    }
    Launch(std::move(next));
  }

  std::optional<TaskPool::Group> group_;  // engaged in pool mode
  size_t limit_;
  std::mutex mu_;
  std::deque<std::function<void()>> deferred_;
  size_t in_flight_ = 0;
};

/// The IN-list for the next join query: ordered distinct non-NULL values of
/// `attribute` over the accepted tuples (restricted to those whose arrival
/// tags may drive the edge, under path-aware propagation). The order
/// follows collection order, which is what gives NaiveQ its "prefix of the
/// source tuples" behaviour on truncation. Distinctness is Value equality,
/// decided on canonical key bits: -0.0 repeats +0.0, and a NaN (no bits,
/// equal to nothing) is kept every time it occurs. Above
/// kParallelKeyExtraction accepted tids a pooled run reads the (uncharged,
/// read-only) column values across the pool first; the order-defining
/// dedup stays on this thread, so the key list is the same either way.
Result<std::vector<Value>> PlanJoinKeys(
    const PlannedRelation& p, const RelationSchema& schema,
    const std::string& attribute,
    const std::set<const JoinEdge*>* allowed_arrivals, TaskPool* pool) {
  auto idx = schema.AttributeIndex(attribute);
  if (!idx.ok()) return idx.status();
  const DataType type = schema.attribute(*idx).type;
  const size_t n = p.accepted.size();

  std::vector<Value> vals;
  if (pool != nullptr && n >= kParallelKeyExtraction) {
    vals.resize(n);
    TaskPool::Group extract(pool);
    const size_t seg = kParallelKeyExtraction / 2;
    for (size_t begin = 0; begin < n; begin += seg) {
      const size_t end = std::min(n, begin + seg);
      extract.Run([&, begin, end] {
        for (size_t i = begin; i < end; ++i) {
          vals[i] = p.source->ColumnValue(p.accepted[i], *idx);
        }
      });
    }
    extract.Wait();
  }

  std::vector<Value> keys;
  FlatKeySet dedup;
  for (size_t i = 0; i < n; ++i) {
    const Tid tid = p.accepted[i];
    if (allowed_arrivals != nullptr) {
      auto tags = p.arrivals.find(tid);
      bool feeds = false;
      if (tags != p.arrivals.end()) {
        for (const JoinEdge* t : tags->second) {
          if (allowed_arrivals->count(t) > 0) {
            feeds = true;
            break;
          }
        }
      }
      if (!feeds) continue;
    }
    const Value v = vals.empty() ? p.source->ColumnValue(tid, *idx) : vals[i];
    if (v.is_null()) continue;
    auto bits = Column::KeyBits(v, type);
    if (!bits || dedup.Insert(*bits)) keys.push_back(v);
  }
  return keys;
}

/// Serves a partitioned query's stalls as an edge's lookups open: one
/// sleep, the longest of the stalled live partitions' waits. A partition
/// waits out its stall, or only its hedging delay when the plan hedges and
/// the stall outlasts that delay: the hedge fires and wins. Each wait goes
/// into the partition's latency ring. Stalls move time, never tids.
void ServeStalls(const ShardQueryFaultPlan& plan, ShardQueryStats* stats) {
  ShardHealthTracker* health = plan.health;
  uint64_t sleep_ns = 0;
  for (size_t s = 0; s < plan.stall_ns.size(); ++s) {
    if (plan.live[s] == 0 || plan.stall_ns[s] == 0) continue;
    uint64_t wait = plan.stall_ns[s];
    if (plan.hedging && health != nullptr) {
      const uint64_t delay = health->HedgeDelayNs(s);
      if (wait > delay) {
        wait = delay;
        health->hedged_subqueries.fetch_add(1, std::memory_order_relaxed);
        health->hedge_wins.fetch_add(1, std::memory_order_relaxed);
        if (stats != nullptr) {
          ++stats->hedged_subqueries;
          ++stats->hedge_wins;
        }
      }
    }
    if (health != nullptr) health->RecordLatency(s, wait);
    sleep_ns = std::max(sleep_ns, wait);
  }
  if (sleep_ns > 0) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(sleep_ns));
  }
}

}  // namespace

std::string DegradationReport::ToString() const {
  std::string out;
  if (!shards_skipped.empty()) {
    out += "shards_skipped=";
    for (size_t i = 0; i < shards_skipped.size(); ++i) {
      if (i > 0) out += ",";
      out += std::to_string(shards_skipped[i]);
    }
    out += " of " + std::to_string(shards_total) + "\n";
  }
  for (const RelationDegradation& r : relations) {
    out += r.relation + ": dropped=" + std::to_string(r.dropped_tuples) +
           " lookups_failed=" + std::to_string(r.failed_lookups) +
           " retries=" + std::to_string(r.retries);
    if (r.unavailable_tuples > 0) {
      out += " unavailable=" + std::to_string(r.unavailable_tuples);
    }
    out += "\n";
  }
  return out;
}

const char* SubsetStrategyToString(SubsetStrategy s) {
  switch (s) {
    case SubsetStrategy::kAuto:
      return "auto";
    case SubsetStrategy::kNaiveQ:
      return "naiveq";
    case SubsetStrategy::kRoundRobin:
      return "roundrobin";
  }
  return "unknown";
}

Result<Database> ResultDatabaseGenerator::Generate(
    const ResultSchema& schema, const SeedTids& seeds,
    const CardinalityConstraint& c, const DbGenOptions& options,
    ExecutionContext* ctx, const PartitionedQuery& partitioned) {
  last_report_ = DbGenReport{};
  const SchemaGraph& graph = schema.graph();

  std::map<RelationNodeId, PlannedRelation> planned;
  for (RelationNodeId rel : schema.relations()) {
    auto opened = database_->GetRelation(graph.relation_name(rel));
    if (!opened.ok()) return opened.status();
    PlannedRelation& p = planned[rel];
    p.source = *opened;
    p.emitted =
        EmittedAttributeIndices(schema, rel, options.include_join_attributes);
    p.track_arrivals = options.path_aware_propagation;
  }
  size_t total = 0;

  // Per-query arena for tid snapshots and chunk cell buffers. When a
  // context is attached its arena is used (freed wholesale at context
  // teardown); otherwise a local arena scoped to this call serves.
  // Declared before the task group so that the group's destructor — which
  // waits for in-flight chunk tasks — always runs before the arena (and
  // the memory those tasks write into) goes away.
  Arena local_arena;
  Arena* arena = ctx != nullptr ? &ctx->arena() : &local_arena;

  // Where tasks run is derived, not configured: inline on this thread for
  // one partition at parallelism <= 1, else on the pool with one in-flight
  // slot per unit of parallelism and at least one per partition. The task
  // group outlives nothing it references: everything chunk tasks touch
  // (planned, arena, ctx) is declared above, so the group's destructor —
  // which waits — runs first on every return path.
  const SourcePartitions* partitions = partitioned.partitions;
  const ShardQueryFaultPlan* plan =
      partitions != nullptr ? partitioned.plan : nullptr;
  const size_t width = std::max(
      options.parallelism, partitions != nullptr ? partitions->num_partitions()
                                                 : size_t{1});
  TaskPool* pool =
      width >= 2 ? (options.pool != nullptr ? options.pool : TaskPool::Shared())
                 : nullptr;
  ThrottledGroup group(pool, width);

  const uint64_t latency_ns = options.simulated_access_latency_ns;

  // --- Stop logic ---------------------------------------------------------
  //
  // sim_charges replays the charge sequence of the classic walk: one per
  // index probe / sequential scan at the probe sites, one per tuple Get at
  // the fetch sites — including duplicate fetches the planner never
  // performs. Budget stops are decided against it (and latched,
  // monotonically, onto the context) so truncation lands on exactly the
  // walk's tuple. Cancellation and deadline come from the context as usual.
  // Check order mirrors ExecutionContext::ShouldStop.
  const uint64_t budget = ctx != nullptr ? ctx->access_budget() : 0;
  uint64_t sim_charges = 0;
  auto plan_stopped = [&]() -> bool {
    if (ctx == nullptr) return false;
    if (ctx->stop_reason() != StopReason::kNone) return true;
    if (ctx->cancelled()) {
      ctx->LatchStop(StopReason::kCancelled);
      return true;
    }
    if (budget != 0 && sim_charges >= budget) {
      ctx->LatchStop(StopReason::kAccessBudgetExhausted);
      return true;
    }
    auto remaining = ctx->RemainingSeconds();
    if (remaining.has_value() && *remaining <= 0.0) {
      ctx->LatchStop(StopReason::kDeadlineExceeded);
      return true;
    }
    return false;
  };

  auto mark_truncated = [&](RelationNodeId rel) {
    const std::string& name = graph.relation_name(rel);
    auto& t = last_report_.truncated_relations;
    if (std::find(t.begin(), t.end(), name) == t.end()) t.push_back(name);
  };

  // Fault injection (DESIGN.md §12). All fault decisions stay on this
  // thread: tuple-fetch checks are *replayed* at exactly the positions the
  // walk issues Gets (including duplicate fetches the planner plans away),
  // and lookups run here, so the injector consumes the walk's check
  // sequence. Chunk tasks project through the relation, which never
  // consults the injector. The taint bit is set whenever the injector is
  // armed — even if no fault fires — so the engine's caches never store an
  // answer produced under fault conditions.
  const bool faults = FaultsArmed(ctx);
  last_report_.fault_tainted = faults;
  auto degradation_for = [&](RelationNodeId rel) -> RelationDegradation& {
    return DegradationFor(last_report_.degradation, graph.relation_name(rel));
  };
  // Replays one retried Get: consumes the same kTupleFetch check indices as
  // `RetryWithBackoff(..., [&]{ return Get(tid, ctx); })`. OK = the tuple
  // survives (and its sim charge is due); Unavailable = the walk dropped it.
  auto sim_fetch_check = [&](RelationNodeId rel) -> bool {
    if (!faults) return true;
    uint64_t r = 0;
    Status fs = CheckFaultWithRetry(ctx, FaultSite::kTupleFetch,
                                    ctx->retry_policy(), &r);
    if (r > 0) degradation_for(rel).retries += r;
    if (fs.ok()) return true;
    ++degradation_for(rel).dropped_tuples;
    return false;
  };

  // Partition-outage accounting (DESIGN.md §17): partitions the query runs
  // without are recorded before any other degradation event — the skip
  // happened before any edge ran — along with each relation's tuples
  // resident on them. Entry order is the schema's relation order.
  const bool skipping = plan != nullptr && plan->any_skipped();
  if (skipping) {
    last_report_.degradation.shards_skipped = plan->skipped;
    last_report_.degradation.shards_total =
        static_cast<uint32_t>(partitions->num_partitions());
    for (auto& [rel, p] : planned) {
      uint64_t unavailable = 0;
      for (uint32_t s : plan->skipped) {
        unavailable += partitions->TuplesOn(graph.relation_name(rel), s);
      }
      if (unavailable > 0) {
        degradation_for(rel).unavailable_tuples += unavailable;
      }
    }
  }

  // Spawns materialization tasks for every completed chunk of `p`'s
  // accepted tids (`flush` also chunks the residual tail). Boundaries
  // depend only on the accepted sequence — never on threads or timing —
  // so the chunk set is a deterministic partition of the output.
  auto spawn_chunks = [&](PlannedRelation& p, bool flush) {
    while (p.accepted.size() - p.next_chunk_start >= kChunkTuples ||
           (flush && p.accepted.size() > p.next_chunk_start)) {
      size_t begin = p.next_chunk_start;
      size_t count = std::min(kChunkTuples, p.accepted.size() - begin);
      p.next_chunk_start = begin + count;
      auto* chunk = new (arena->Allocate(sizeof(MaterializedChunk),
                                         alignof(MaterializedChunk)))
          MaterializedChunk();
      chunk->count = count;
      chunk->width = p.emitted.size();
      Tid* tids = arena->AllocateArray<Tid>(count);
      std::copy(p.accepted.begin() + begin, p.accepted.begin() + begin + count,
                tids);
      chunk->tids = tids;
      chunk->cells = arena->AllocateArray<Value>(count * chunk->width);
      const Relation* src = p.source;
      const std::vector<size_t>* emitted = &p.emitted;  // stable (node map)
      p.chunks.push_back(chunk);
      group.Run([chunk, src, emitted, latency_ns, ctx] {
        if (latency_ns != 0) {
          // The chunk's whole simulated I/O wait in one sleep: the same
          // total per accepted tuple whether chunks run inline or overlap.
          std::this_thread::sleep_for(std::chrono::nanoseconds(
              latency_ns * static_cast<uint64_t>(chunk->count)));
        }
        // Charged bulk fetch+project of planner-validated tids. Projection
        // never consults the fault injector — fault decisions live on the
        // planner thread only, which keeps fault sequences deterministic
        // (DESIGN.md §12).
        src->ProjectRows(chunk->tids, chunk->count, *emitted, chunk->cells,
                         ctx);
      });
    }
  };

  // Accepts `tid` into `p` (bookkeeping only; materialization is deferred
  // to a chunk task). Caller has already done the dup/stop/budget checks.
  auto accept = [&](PlannedRelation& p, Tid tid, const JoinEdge* arrival) {
    p.Tag(tid, arrival);
    p.seen.Insert(tid);
    p.accepted.push_back(tid);
    ++total;
    spawn_chunks(p, /*flush=*/false);
  };

  // --- Step 1: D' <- tuples involving query tokens (sigma_Tids queries),
  // each relation's subset limited NaiveQ-style by the cardinality budget.
  for (const auto& [rel, tids] : seeds) {
    if (schema.relations().count(rel) == 0) {
      return Status::InvalidArgument("seed relation '" +
                                     graph.relation_name(rel) +
                                     "' is not part of the result schema");
    }
    if (plan_stopped()) {
      mark_truncated(rel);
      continue;
    }
    PlannedRelation& p = planned[rel];
    const Relation& src = *p.source;
    src.CountStatement(ctx);  // one sigma_Tids query per seed relation
    SimulateStatementOverhead(options.statement_overhead_ns);
    if (options.trace_sql) {
      last_report_.sql_trace.push_back(
          RenderSeedSql(src.schema(), p.emitted, tids));
    }
    // Seeds are read in place; only a tuple-weight order needs a copy.
    std::span<const Tid> ordered_tids = tids;
    ArenaVector<Tid> weighted{ArenaAllocator<Tid>(arena)};
    if (options.tuple_weights != nullptr) {
      const std::string& rel_name = graph.relation_name(rel);
      weighted.assign(tids.begin(), tids.end());
      std::stable_sort(weighted.begin(), weighted.end(), [&](Tid a, Tid b) {
        return options.tuple_weights->Weight(rel_name, a) >
               options.tuple_weights->Weight(rel_name, b);
      });
      ordered_tids = weighted;
    }
    for (Tid tid : ordered_tids) {
      if (p.seen.Contains(tid)) continue;
      if (plan_stopped()) {
        mark_truncated(rel);
        break;
      }
      std::optional<size_t> b = c.Budget(p.accepted.size(), total);
      if (b.has_value() && *b == 0) {
        mark_truncated(rel);
        break;
      }
      if (tid >= src.num_tuples()) {
        // The walk fails here inside Relation::Get.
        return Status::OutOfRange(TidOutOfRangeMessage(tid, src));
      }
      // Replay of the seed Get's fault/retry sequence (the bounds check
      // above precedes the fault check, as in Relation::Get).
      if (!sim_fetch_check(rel)) continue;
      sim_charges += 1;  // the walk's seed Get
      accept(p, tid, nullptr);
    }
  }

  // Path-aware propagation: for each G' edge, the arrival tags that may
  // drive it — nullptr (seed) when a P_d path starts with the edge, and
  // every edge that immediately precedes it on some P_d path.
  std::map<const JoinEdge*, std::set<const JoinEdge*>> feeders;
  if (options.path_aware_propagation) {
    for (const Path& path : schema.projection_paths()) {
      const std::vector<const JoinEdge*>& joins = path.joins();
      for (size_t i = 0; i < joins.size(); ++i) {
        feeders[joins[i]].insert(i == 0 ? nullptr : joins[i - 1]);
      }
    }
  }

  // --- Step 2: loop over the join edges of G'. An edge is preferably
  // executed only when every join arriving at its source relation has
  // already been executed (in-degree postponement); among applicable edges
  // the one with the highest weight precedes. If postponement ever blocks
  // all remaining edges (a cycle among G' relations), the best remaining
  // edge runs anyway so the algorithm always terminates.
  std::map<RelationNodeId, int> pending;
  for (RelationNodeId rel : schema.relations()) {
    pending[rel] = schema.in_degree(rel);
  }
  std::unordered_set<const JoinEdge*> executed;
  std::vector<Tid> scan;  // an unindexed lookup's matches, until copied out

  while (!plan_stopped() && executed.size() < schema.join_edges().size()) {
    const JoinEdge* next = nullptr;
    bool next_applicable = false;
    for (const JoinEdge* e : schema.join_edges()) {
      if (executed.count(e) > 0) continue;
      bool applicable = pending[e->from] == 0;
      bool better;
      if (next == nullptr) {
        better = true;
      } else if (applicable != next_applicable) {
        better = applicable;
      } else {
        better = e->weight > next->weight;
      }
      if (better) {
        next = e;
        next_applicable = applicable;
      }
    }
    const JoinEdge& edge = *next;
    const RelationSchema& from_schema = graph.relation_schema(edge.from);
    const RelationSchema& to_schema = graph.relation_schema(edge.to);

    const std::set<const JoinEdge*>* allowed = nullptr;
    if (options.path_aware_propagation) {
      allowed = &feeders[&edge];
    }
    auto keys = PlanJoinKeys(planned[edge.from], from_schema,
                             edge.from_attribute, allowed, pool);
    if (!keys.ok()) return keys.status();

    SubsetStrategy strategy = options.strategy;
    if (strategy == SubsetStrategy::kAuto) {
      strategy = IsToOne(edge, to_schema) ? SubsetStrategy::kNaiveQ
                                          : SubsetStrategy::kRoundRobin;
    }

    PlannedRelation& col = planned[edge.to];
    const Relation& to_relation = *col.source;

    // The edge's lookups open: a partitioned query first serves its stalls.
    if (plan != nullptr) ServeStalls(*plan, partitioned.stats);

    // The edge's lookups, consumed key by key below, each preceded by a
    // charge-free prefetch of the index slot a few keys ahead. The
    // kJoinValueLookup gate wraps each one, so a retried lookup re-runs the
    // probe or scan charge and fault checks exactly as the classic walk's
    // retried lookup. An index probe returns its posting in place. Only
    // after a lookup succeeds are the skipped partitions' tids dropped, so
    // charges and fault checks stay unpartitioned; the live tids, like a
    // scan's matches, are copied into the query arena, where every view
    // stays valid until the edge drains.
    const bool indexed = to_relation.HasIndex(edge.to_attribute);
    const uint64_t to_seed =
        skipping ? ShardRouter::RelationSeed(to_schema.name()) : 0;
    auto lookup_key = [&](size_t k,
                          uint64_t* retries) -> Result<std::span<const Tid>> {
      if (k + 4 < keys->size()) {
        to_relation.PrefetchEquals(edge.to_attribute, (*keys)[k + 4]);
      }
      auto probe = [&]() -> Result<std::span<const Tid>> {
        if (faults) {
          PRECIS_RETURN_NOT_OK(ctx->CheckFault(FaultSite::kJoinValueLookup));
        }
        return to_relation.LookupEqualsView(edge.to_attribute, (*keys)[k],
                                            &scan, ctx);
      };
      auto tids = faults ? RetryWithBackoff(ctx->retry_policy(), ctx,
                                            FaultSite::kJoinValueLookup, probe,
                                            retries)
                         : probe();
      if (!tids.ok() || (indexed && !skipping)) return tids;
      Tid* kept = arena->AllocateArray<Tid>(tids->size());
      size_t n = 0;
      for (Tid tid : *tids) {
        if (!skipping ||
            plan->live[partitions->router().ShardOf(to_seed, tid)] != 0) {
          kept[n++] = tid;
        }
      }
      return std::span<const Tid>(kept, n);
    };

    if (options.trace_sql) {
      std::vector<size_t> display = EmittedAttributeIndices(
          schema, edge.to, options.include_join_attributes);
      if (strategy == SubsetStrategy::kRoundRobin &&
          options.tuple_weights == nullptr) {
        // One cursor per probe value.
        for (const Value& key : *keys) {
          last_report_.sql_trace.push_back(RenderInListSql(
              to_schema, edge.to_attribute, {key}, display, std::nullopt));
        }
      } else {
        std::optional<size_t> limit;
        std::optional<size_t> b = c.Budget(col.accepted.size(), total);
        if (strategy == SubsetStrategy::kNaiveQ &&
            options.tuple_weights == nullptr && b.has_value()) {
          limit = b;  // NaiveQ pushes the cap down as RowNum
        }
        last_report_.sql_trace.push_back(RenderInListSql(
            to_schema, edge.to_attribute, *keys, display, limit));
      }
    }

    // Returns false when the budget is exhausted. Duplicates are skipped
    // without consuming budget (but still gain this edge's arrival tag);
    // the stop and budget checks sit at exactly the walk's points.
    auto plan_try_add = [&](Tid tid) -> bool {
      if (col.seen.Contains(tid)) {
        col.Tag(tid, &edge);
        return true;
      }
      if (plan_stopped()) {
        mark_truncated(edge.to);
        return false;
      }
      std::optional<size_t> b = c.Budget(col.accepted.size(), total);
      if (b.has_value() && *b == 0) {
        mark_truncated(edge.to);
        return false;
      }
      accept(col, tid, &edge);
      return true;
    };

    if (options.tuple_weights != nullptr) {
      // Ranked selection (§7's data-value weights): collect all joining
      // candidates, order by tuple weight (heaviest first), then take them
      // up to the budget. The walk Gets every ordered candidate (charging
      // a fetch) before its try_add, so sim charges do too.
      const std::string& to_name = graph.relation_name(edge.to);
      to_relation.CountStatement(ctx);
      SimulateStatementOverhead(options.statement_overhead_ns);
      ArenaVector<Tid> candidates{ArenaAllocator<Tid>(arena)};
      FlatKeySet candidate_seen;
      for (size_t k = 0; k < keys->size(); ++k) {
        if (plan_stopped()) break;
        uint64_t r = 0;
        auto tids = lookup_key(k, &r);
        if (r > 0) degradation_for(edge.to).retries += r;
        if (!tids.ok()) {
          if (tids.status().IsUnavailable()) {
            // This key's joining tuples are lost; the other keys survive.
            ++degradation_for(edge.to).failed_lookups;
            continue;
          }
          return tids.status();
        }
        sim_charges += 1;  // the probe (or fallback scan)
        for (Tid tid : *tids) {
          if (col.seen.Contains(tid)) continue;
          if (candidate_seen.Insert(tid)) candidates.push_back(tid);
        }
      }
      std::stable_sort(candidates.begin(), candidates.end(),
                       [&](Tid a, Tid b) {
                         return options.tuple_weights->Weight(to_name, a) >
                                options.tuple_weights->Weight(to_name, b);
                       });
      for (Tid tid : candidates) {
        if (!sim_fetch_check(edge.to)) continue;
        sim_charges += 1;  // the walk's candidate Get
        if (!plan_try_add(tid)) break;
      }
    } else if (strategy == SubsetStrategy::kNaiveQ) {
      // One IN-list query, kept up to the budget in retrieval order. The
      // walk has no per-key stop check here (stops surface via try_add),
      // and Gets duplicates before skipping them: mirrored.
      to_relation.CountStatement(ctx);
      SimulateStatementOverhead(options.statement_overhead_ns);
      bool budget_open = true;
      for (size_t k = 0; k < keys->size() && budget_open; ++k) {
        uint64_t r = 0;
        auto tids = lookup_key(k, &r);
        if (r > 0) degradation_for(edge.to).retries += r;
        if (!tids.ok()) {
          if (tids.status().IsUnavailable()) {
            ++degradation_for(edge.to).failed_lookups;
            continue;
          }
          return tids.status();
        }
        sim_charges += 1;  // the probe (or fallback scan)
        for (Tid tid : *tids) {
          // The walk fault-checks the Get before try_add, for duplicates
          // too; replay that check at the same position.
          if (!sim_fetch_check(edge.to)) continue;
          sim_charges += 1;  // the walk's Get, duplicates included
          if (!plan_try_add(tid)) {
            budget_open = false;
            break;
          }
        }
      }
    } else {
      // RoundRobin: one scan per key (PerValueScanSet::Open parity: scans
      // opened after a stop are empty and uncharged), then one tuple per
      // open scan per round while the cardinality constraint holds. Scans
      // are views that stay valid until the edge is done.
      std::vector<std::span<const Tid>> scans;
      scans.reserve(keys->size());
      // Mirror of PerValueScanSet's degradation counters, folded into the
      // report once after the edge drains, exactly where the walk folds
      // scans->retries()/failed_opens()/dropped_fetches() in.
      uint64_t rr_retries = 0;
      uint64_t rr_failed = 0;
      uint64_t rr_dropped = 0;
      for (size_t k = 0; k < keys->size(); ++k) {
        if (plan_stopped()) {
          scans.emplace_back();
          continue;
        }
        to_relation.CountStatement(ctx);  // one cursor per probe value
        auto tids = lookup_key(k, &rr_retries);
        if (!tids.ok()) {
          if (tids.status().IsUnavailable()) {
            // PerValueScanSet::Open parity: the key's scan opens drained.
            ++rr_failed;
            scans.emplace_back();
            continue;
          }
          return tids.status();
        }
        sim_charges += 1;  // the probe (or fallback scan)
        scans.push_back(*tids);
      }
      SimulateStatementOverhead(options.statement_overhead_ns *
                                static_cast<uint64_t>(keys->size()));
      std::vector<size_t> positions(scans.size(), 0);
      auto all_closed = [&] {
        for (size_t i = 0; i < scans.size(); ++i) {
          if (positions[i] < scans[i].size()) return false;
        }
        return true;
      };
      bool budget_open = true;
      while (budget_open && !all_closed()) {
        for (size_t i = 0; i < scans.size(); ++i) {
          if (positions[i] >= scans[i].size()) continue;
          Tid tid = scans[i][positions[i]++];
          if (faults) {
            // Replay of PerValueScanSet::Next's retried Get; a drop skips
            // this tuple (Next returned nullopt) but keeps the scan open.
            Status fs = CheckFaultWithRetry(ctx, FaultSite::kTupleFetch,
                                            ctx->retry_policy(), &rr_retries);
            if (!fs.ok()) {
              ++rr_dropped;
              continue;
            }
          }
          sim_charges += 1;  // PerValueScanSet::Next's Get
          if (!plan_try_add(tid)) {
            budget_open = false;
            break;
          }
        }
      }
      if (faults && (rr_retries > 0 || rr_failed > 0 || rr_dropped > 0)) {
        RelationDegradation& deg = degradation_for(edge.to);
        deg.retries += rr_retries;
        deg.failed_lookups += rr_failed;
        deg.dropped_tuples += rr_dropped;
      }
    }

    --pending[edge.to];
    executed.insert(&edge);
    last_report_.executed_edges.push_back(graph.relation_name(edge.from) +
                                          " -> " +
                                          graph.relation_name(edge.to));
  }

  // --- Merge barrier: flush residual chunks, drain materialization --------
  for (auto& [rel, p] : planned) {
    spawn_chunks(p, /*flush=*/true);
  }
  group.Wait();

  // --- Step 3: emit the result database -----------------------------------
  Database result("precis_result");
  std::vector<RelationNodeId> rel_order(schema.relations().begin(),
                                        schema.relations().end());
  std::vector<Relation*> out_relations(rel_order.size(), nullptr);
  for (size_t i = 0; i < rel_order.size(); ++i) {
    RelationNodeId rel = rel_order[i];
    const RelationSchema& src_schema = graph.relation_schema(rel);
    const PlannedRelation& p = planned[rel];

    std::vector<AttributeSchema> out_attrs;
    out_attrs.reserve(p.emitted.size());
    for (size_t idx : p.emitted) out_attrs.push_back(src_schema.attribute(idx));
    RelationSchema out_schema(src_schema.name(), std::move(out_attrs));
    if (src_schema.primary_key()) {
      const std::string& pk_name =
          src_schema.attribute(*src_schema.primary_key()).name;
      if (out_schema.HasAttribute(pk_name)) {
        PRECIS_RETURN_NOT_OK(out_schema.SetPrimaryKey(pk_name));
      }
    }
    PRECIS_RETURN_NOT_OK(result.CreateRelation(std::move(out_schema)));
    auto out_relation = result.GetRelation(src_schema.name());
    if (!out_relation.ok()) return out_relation.status();
    out_relations[i] = *out_relation;
  }

  // Chunk buffers concatenate in acceptance order, so per-relation inserts
  // reproduce the Fig. 5 collection order. Relations are disjoint insert
  // targets (the database epoch is atomic), so one task per relation is
  // race-free.
  std::vector<Status> insert_status(rel_order.size(), Status::OK());
  for (size_t i = 0; i < rel_order.size(); ++i) {
    PlannedRelation* p = &planned[rel_order[i]];
    Relation* out = out_relations[i];
    Status* slot = &insert_status[i];
    group.Run([p, out, slot] {
      out->Reserve(p->accepted.size());  // every chunk row, sized once
      Tuple tuple;  // Insert copies into the columns: one buffer serves all
      for (const MaterializedChunk* chunk : p->chunks) {
        for (size_t r = 0; r < chunk->count; ++r) {
          const Value* row = chunk->cells + r * chunk->width;
          tuple.assign(row, row + chunk->width);
          auto tid = out->Insert(tuple);
          if (!tid.ok()) {
            *slot = tid.status();
            return;
          }
        }
      }
    });
  }
  group.Wait();
  for (const Status& s : insert_status) {
    PRECIS_RETURN_NOT_OK(s);
  }

  // --- Step 4: carry over the source foreign keys that are applicable to
  // the result schema and actually hold on the emitted data (a cardinality
  // cut may have removed referenced parents; such constraints are reported
  // and omitted rather than declared falsely). One check task per FK.
  struct FkCheck {
    const ForeignKey* fk;
    bool holds = false;
  };
  std::vector<FkCheck> checks;
  for (const ForeignKey& fk : database_->foreign_keys()) {
    if (!result.HasRelation(fk.child_relation) ||
        !result.HasRelation(fk.parent_relation)) {
      continue;
    }
    auto child = result.GetRelation(fk.child_relation);
    auto parent = result.GetRelation(fk.parent_relation);
    if (!(*child)->schema().HasAttribute(fk.child_attribute) ||
        !(*parent)->schema().HasAttribute(fk.parent_attribute)) {
      continue;
    }
    checks.push_back(FkCheck{&fk});
  }
  for (FkCheck& check : checks) {  // `checks` is fully built: stable refs
    FkCheck* slot = &check;
    const Database* res = &result;
    group.Run(
        [res, slot] { slot->holds = res->CheckForeignKey(*slot->fk).ok(); });
  }
  group.Wait();
  for (const FkCheck& check : checks) {
    if (check.holds) {
      PRECIS_RETURN_NOT_OK(result.AddForeignKey(*check.fk));
    } else {
      last_report_.dropped_foreign_keys.push_back(check.fk->ToString());
    }
  }

  last_report_.total_tuples = result.TotalTuples();
  if (ctx != nullptr) last_report_.stop_reason = ctx->stop_reason();
  return result;
}

}  // namespace precis
