// The classic sequential Fig. 5 walk — the test oracle for the planner
// (DESIGN.md §11).
//
// ResultDatabaseGenerator plans Fig. 5 over tids and *replays* the storage
// accesses a tuple-at-a-time walk would make: probe and fetch charges feed
// a simulated budget counter, and fault checks are consumed at the walk's
// positions. This walk is the code that performs that sequence for real —
// Relation::Get and Relation::LookupEquals with a context, PerValueScanSet
// (oracle_scans.h) for RoundRobin — so comparing the two is what checks the
// replay. It also builds its own result Database with Relation::Insert and
// decides FKs with Database::CheckForeignKey, which checks the planner's
// view and its FK verdicts. It is
// deliberately kept as a straightforward, single-threaded transcription of
// the paper's algorithm; production code never runs it.

#ifndef PRECIS_TESTS_SEQUENTIAL_WALK_H_
#define PRECIS_TESTS_SEQUENTIAL_WALK_H_

#include <map>
#include <vector>

#include "common/execution_context.h"
#include "common/result.h"
#include "precis/constraints.h"
#include "precis/database_generator.h"
#include "precis/engine.h"
#include "precis/result_schema.h"
#include "storage/database.h"
#include "text/inverted_index.h"

namespace precis {

/// Generates the result database for `schema` from `seeds` under `c` by
/// walking Fig. 5 one tuple at a time over `db`, writing the run's report
/// to `*report` and, when `accepted` is given, each result relation's
/// source tids in collection order. The options that only shape timing —
/// parallelism, pool, statement_overhead_ns, simulated_access_latency_ns —
/// are ignored.
Result<Database> SequentialWalk(
    const Database& db, const ResultSchema& schema, const SeedTids& seeds,
    const CardinalityConstraint& c, const DbGenOptions& options,
    ExecutionContext* ctx, DbGenReport* report,
    std::map<RelationNodeId, std::vector<Tid>>* accepted = nullptr);

/// PrecisEngine::Answer with the walk in place of the planner: token
/// lookup in `index` (no synonyms), the engines' shared seed assembly and
/// (uncached) schema generation, then SequentialWalk over `db`. The
/// answer's view holds the walk's accepted tids and the FKs its Database
/// declared.
Result<PrecisAnswer> OracleAnswer(const Database& db,
                                  const SchemaGraph& graph,
                                  const InvertedIndex& index,
                                  const PrecisQuery& query,
                                  const DegreeConstraint& degree,
                                  const CardinalityConstraint& cardinality,
                                  const DbGenOptions& options,
                                  ExecutionContext* ctx);

}  // namespace precis

#endif  // PRECIS_TESTS_SEQUENTIAL_WALK_H_
