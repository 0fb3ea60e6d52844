// Result Database Generator (paper §5.2, Fig. 5).
//
// Produces the result database D' corresponding to a result schema G':
// seed tuples containing the query tokens, then tuples of other relations
// transitively joining to them, fetched edge by edge in decreasing weight
// order under a cardinality constraint, with in-degree-based postponement
// and duplicate elimination. Two subset-selection strategies: NaiveQ (one
// limited IN-list query) and RoundRobin (one scan per joining tuple,
// drained one tuple at a time).

#ifndef PRECIS_PRECIS_DATABASE_GENERATOR_H_
#define PRECIS_PRECIS_DATABASE_GENERATOR_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/execution_context.h"
#include "common/result.h"
#include "common/task_pool.h"
#include "shard/shard_health.h"
#include "shard/source_partitions.h"
#include "storage/database.h"
#include "precis/constraints.h"
#include "precis/result_database.h"
#include "precis/result_schema.h"
#include "precis/tuple_weights.h"

namespace precis {

/// \brief How a subset of joining tuples is selected when the cardinality
/// budget does not cover all of them (paper §5.2).
enum class SubsetStrategy {
  /// Paper default: RoundRobin for to-N joins (destination's join attribute
  /// is not its primary key), NaiveQ otherwise.
  kAuto,
  /// Always NaiveQ: issue one IN-list query per edge and keep the first
  /// tuples up to the budget ("keep only the top tuples ... using RowNum").
  /// Risk (noted by the paper): for to-N joins the kept subset may join only
  /// a prefix of the source tuples.
  kNaiveQ,
  /// Always RoundRobin: open one scan per source join value and retrieve one
  /// joining tuple per open scan per round, spreading the budget uniformly
  /// over the source tuples.
  kRoundRobin,
};

const char* SubsetStrategyToString(SubsetStrategy s);

/// \brief Options controlling result-database generation.
struct DbGenOptions {
  SubsetStrategy strategy = SubsetStrategy::kAuto;

  /// Project the attributes required by G' join edges into the result even
  /// when no projection edge selected them (paper: "attributes required for
  /// joins have been also projected in the result, but these will not show
  /// in the final answer"). Turning this off yields exactly the projected
  /// attributes but usually breaks foreign keys in the output.
  bool include_join_attributes = true;

  /// Path-aware join propagation — the §5.2 refinement the paper sketches
  /// but leaves out "for simplicity": "Which of the tuples collected in a
  /// relation are used for subsequently joining tuples from other relations
  /// depends on the paths stored in P_d."
  ///
  /// When false (default, the paper's simplified behaviour) every tuple
  /// collected in a relation feeds every departing join edge. When true, a
  /// join edge u -> v is driven only by the tuples of u that arrived along
  /// a P_d path in which u -> v is the next hop (seed tuples feed the edges
  /// that P_d paths start with). This prevents, e.g., movies that entered
  /// through an actor's CAST from dragging in their *other* genres when no
  /// accepted path goes ACTOR -> CAST -> MOVIE -> GENRE.
  bool path_aware_propagation = false;

  /// Optional per-tuple weights (§7's "weights on data values"). When set,
  /// every budget-truncated selection — seed subsets and joined subsets —
  /// keeps the heaviest tuples first (ties resolved towards retrieval
  /// order) instead of NaiveQ's arbitrary prefix or RoundRobin's uniform
  /// spread; `strategy` then only affects untruncated fetch cost. The store
  /// must outlive the generation call.
  const TupleWeightStore* tuple_weights = nullptr;

  /// Record the SQL text of every statement the generator submits into
  /// DbGenReport::sql_trace — the queries of §5.2 ("In relational algebra,
  /// the query executed looks like this: sigma_Tids(Rj)[pi(Rj)] ...") as
  /// their Oracle-dialect SQL equivalents. For inspection and debugging;
  /// off by default.
  bool trace_sql = false;

  /// Simulated per-statement overhead, in nanoseconds. On the paper's
  /// Oracle substrate every submitted statement pays fixed parse/dispatch
  /// cost; that is what separates RoundRobin (one cursor per joining tuple)
  /// from NaiveQ (one IN-list query per edge) in Fig. 9. The in-memory
  /// engine has no such cost, so the Fig. 9 bench sets this to model it;
  /// 0 (the default) disables the simulation. Statements are always
  /// *counted* in AccessStats either way.
  uint64_t statement_overhead_ns = 0;

  /// Intra-query parallelism (DESIGN.md §11). The planner always makes
  /// every acceptance / truncation / budget decision on the calling thread
  /// in the Fig. 5 order; this knob only decides where the per-chunk work
  /// (simulated I/O waits, tuple-fetch charges, large join-key reads)
  /// runs. When max(parallelism, source partitions) is 1 it runs inline on
  /// the caller; otherwise it fans out to a work-stealing task pool with at
  /// most that many of this query's chunk tasks in flight. The result
  /// database and DbGenReport are byte-identical for every value of this
  /// knob and any pool size.
  size_t parallelism = 1;

  /// Pool for pooled generation; nullptr (default) uses the process-wide
  /// TaskPool::Shared() so `service workers x per-query chunk tasks`
  /// cannot oversubscribe the machine. Unused when the query runs inline.
  TaskPool* pool = nullptr;

  /// Simulated per-retrieved-tuple access latency, in nanoseconds — the
  /// TupleTime term of the paper's §6 cost model on its Oracle substrate,
  /// where every accepted tuple pays real I/O wait. Paid as batched
  /// *sleeps* (not busy-waits: it models time the CPU is idle), which is
  /// exactly the component concurrent subtree expansion overlaps: each
  /// chunk of accepted tuples sleeps its share, so inline and pooled runs
  /// pay the same total and comparisons under this knob are fair.
  /// Timing-only: never affects the generated database. 0 disables.
  uint64_t simulated_access_latency_ns = 0;
};

/// \brief Fault-induced losses for one result relation (DESIGN.md §12).
struct RelationDegradation {
  std::string relation;
  /// Tuples that should have been in the result but whose fetch kept
  /// failing after retries.
  uint64_t dropped_tuples = 0;
  /// Join-value lookups (index probes / scans / scan opens) that failed
  /// after retries; each loses the whole set of tuples behind that key.
  uint64_t failed_lookups = 0;
  /// Retries performed for this relation's accesses (successful or not).
  uint64_t retries = 0;
  /// Tuples of this relation owned by partitions the query skipped (open
  /// circuit / exhausted retries) — an upper bound on what the partition
  /// outage cost this relation (DESIGN.md §17).
  uint64_t unavailable_tuples = 0;
};

/// \brief Per-relation account of what fault injection cost the answer.
///
/// Relations appear in first-degradation-event order — deterministic for a
/// fixed seed, at any parallelism and partition count.
struct DegradationReport {
  std::vector<RelationDegradation> relations;

  /// Partitions the query ran without (open circuit or retry-exhausted
  /// probe, DESIGN.md §17); empty for a healthy run. `shards_total` is the
  /// partition count those ids index into.
  std::vector<uint32_t> shards_skipped;
  uint32_t shards_total = 0;

  bool degraded() const {
    if (!shards_skipped.empty()) return true;
    for (const RelationDegradation& r : relations) {
      if (r.dropped_tuples > 0 || r.failed_lookups > 0 ||
          r.unavailable_tuples > 0) {
        return true;
      }
    }
    return false;
  }
  uint64_t total_dropped_tuples() const {
    uint64_t n = 0;
    for (const RelationDegradation& r : relations) n += r.dropped_tuples;
    return n;
  }
  uint64_t total_failed_lookups() const {
    uint64_t n = 0;
    for (const RelationDegradation& r : relations) n += r.failed_lookups;
    return n;
  }
  uint64_t total_retries() const {
    uint64_t n = 0;
    for (const RelationDegradation& r : relations) n += r.retries;
    return n;
  }
  /// "RELATION: dropped=N lookups_failed=M retries=K" lines.
  std::string ToString() const;
};

/// \brief What happened during one generation run.
struct DbGenReport {
  /// Join edges in execution order, rendered "FROM -> TO".
  std::vector<std::string> executed_edges;
  /// Relations whose fetch was cut short by the cardinality budget.
  std::vector<std::string> truncated_relations;
  /// Source foreign keys that were applicable to the result schema but do
  /// not hold on the generated data (a cardinality cut removed parents);
  /// they are omitted from the result database's declared constraints.
  std::vector<std::string> dropped_foreign_keys;
  /// Total tuples in the result database.
  size_t total_tuples = 0;
  /// SQL text of each submitted statement, in execution order (only when
  /// DbGenOptions::trace_sql is set).
  std::vector<std::string> sql_trace;
  /// Why generation stopped before completing, when an ExecutionContext cut
  /// it short (deadline, access budget, or cancellation). kNone for a full
  /// run. The result database is well-formed either way: every declared
  /// constraint holds on its tuples.
  StopReason stop_reason = StopReason::kNone;

  /// Per-relation fault losses (empty when no fault fired). Separate from
  /// stop_reason: a fault-degraded answer is complete *except for* the
  /// reported losses, while a stop_reason cut is a clean truncation.
  DegradationReport degradation;

  /// True when the run executed with a fault injector armed on its context
  /// — even if no fault actually fired. This is the cache-taint bit: the
  /// engine's answer/schema caches refuse to store tainted results, so a
  /// cache hit always means a clean, complete answer (DESIGN.md §12).
  bool fault_tainted = false;

  /// True if the run was cut short by its ExecutionContext.
  bool partial() const { return stop_reason != StopReason::kNone; }

  /// True if injected faults cost the answer tuples or lookups.
  bool degraded() const { return degradation.degraded(); }
};

/// \brief Seed tuples: for each token relation, the tuple ids matching the
/// query tokens (returned by the inverted index).
using SeedTids = std::map<RelationNodeId, std::vector<Tid>>;

/// \brief One partitioned query's fault-domain decisions (DESIGN.md §15,
/// §17). The default is a query over one partition. With `partitions`
/// set, `plan` must be too: the planner drops the tids of the partitions
/// the plan skips from every lookup, counts their tuples as unavailable,
/// and sleeps out the plan's stalls when each edge's lookups open.
struct PartitionedQuery {
  const SourcePartitions* partitions = nullptr;
  const ShardQueryFaultPlan* plan = nullptr;
  /// Receives the query's hedged stalls; may be null.
  ShardQueryStats* stats = nullptr;
};

/// \brief Implements the Result Database Algorithm of Fig. 5.
///
/// One planner for every execution shape (DESIGN.md §11): it walks the
/// algorithm on the calling thread over tids and counts, reads the source
/// database in place, and returns the accepted tids as a view over it.
/// Chunk tasks that run inline or on a task pool pay the simulated access
/// latency and the tuple-fetch charges of the accepted tuples.
class ResultDatabaseGenerator {
 public:
  /// `source` must outlive the generator.
  explicit ResultDatabaseGenerator(const Database* source)
      : database_(source) {}

  /// Generates the result database for `schema` seeded with `seeds` under
  /// cardinality constraint `c`, as a view over the source: its relations
  /// carry the projected (plus join) attributes, primary keys are
  /// preserved where their attribute survives projection, and every source
  /// foreign key that is applicable and actually holds on the accepted
  /// tuples is declared. An FK holds when every non-NULL child key equals
  /// some accepted parent's key (-0.0 equals +0.0, NaN equals nothing).
  ///
  /// When `ctx` is given, every access is attributed to it and the run
  /// stops early once the context reports ShouldStop(): the tuples accepted
  /// so far form a well-formed (constraint-checked) partial database and
  /// the cause is recorded in DbGenReport::stop_reason.
  ///
  /// `partitioned` runs the query over the source's partitions under its
  /// fault plan; the pool width is then at least the partition count.
  ///
  /// The database and report are byte-identical at every parallelism and
  /// partition count, including budget-stopped partial answers: budget
  /// stops are decided against a simulated charge counter that replays the
  /// classic walk's charge sequence (one charge per probe and per candidate
  /// fetch, duplicates included). Real per-query AccessStats count the
  /// same probes and statements, but tuple fetches only for the tuples
  /// accepted.
  Result<ResultDatabase> Generate(const ResultSchema& schema,
                                  const SeedTids& seeds,
                                  const CardinalityConstraint& c,
                                  const DbGenOptions& options = DbGenOptions(),
                                  ExecutionContext* ctx = nullptr,
                                  const PartitionedQuery& partitioned = {});

  const DbGenReport& last_report() const { return last_report_; }

 private:
  const Database* database_;
  DbGenReport last_report_;
};

}  // namespace precis

#endif  // PRECIS_PRECIS_DATABASE_GENERATOR_H_
