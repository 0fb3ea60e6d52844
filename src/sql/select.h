// The query layer: the selection shapes the précis generators submit.
//
// The paper's Result Database Generator never executes joins inside the
// database; it issues only two kinds of selection queries (§5.2):
//
//   (1)  sigma_{tid in Tids}(R) [pi(R)]      -- seed tuples by rowid
//   (2)  sigma_{A in Ids}(R)    [pi(R)]      -- parameterized IN-list on a
//                                               join attribute, via index
//
// plus, for the RoundRobin strategy, one open scan per probe value from
// which tuples are pulled one at a time. This module implements exactly
// those shapes over the storage engine, instrumented for the cost model,
// and able to render the equivalent SQL text for debugging.

#ifndef PRECIS_SQL_SELECT_H_
#define PRECIS_SQL_SELECT_H_

#include <optional>
#include <string>
#include <vector>

#include "common/execution_context.h"
#include "common/result.h"
#include "common/status.h"
#include "storage/relation.h"

namespace precis {

/// \brief One fetched row: its rowid plus the (projected) values.
struct Row {
  Tid tid;
  Tuple values;
};

/// \brief Applies a positional projection to a tuple.
Tuple ProjectTuple(const Tuple& tuple, const std::vector<size_t>& projection);

/// \brief True if `projection` selects all `num_attributes` attributes in
/// schema order — i.e. projecting is the identity. The fetch paths detect
/// this once per statement and keep the tuple Relation::Get materialized
/// instead of rebuilding it value by value per row.
inline bool IsIdentityProjection(const std::vector<size_t>& projection,
                                 size_t num_attributes) {
  if (projection.size() != num_attributes) return false;
  for (size_t i = 0; i < projection.size(); ++i) {
    if (projection[i] != i) return false;
  }
  return true;
}

/// \brief Resolves attribute names to positional indices against a schema.
Result<std::vector<size_t>> ResolveProjection(
    const RelationSchema& schema, const std::vector<std::string>& attributes);

/// \brief Query shape (1): fetch tuples of `relation` whose tid is in `tids`,
/// projected on `projection` (attribute indices), keeping at most `limit`
/// rows if given.
///
/// Mirrors Oracle's "WHERE rowid IN (...) AND RowNum <= k" that the paper's
/// NaiveQ uses for seed tuples: the subset kept under a limit is an
/// arbitrary prefix, not a semantic top-k.
///
/// When `ctx` is given, accesses are attributed to it and the fetch stops
/// early (returning the rows collected so far) once the context reports
/// ShouldStop() — deadline passed, budget exhausted, or cancelled.
Result<std::vector<Row>> FetchByTids(const Relation& relation,
                                     const std::vector<Tid>& tids,
                                     const std::vector<size_t>& projection,
                                     std::optional<size_t> limit,
                                     ExecutionContext* ctx = nullptr);

/// \brief Query shape (2): fetch tuples of `relation` whose `attribute`
/// value appears in `keys` (an IN-list of join values), projected, limited.
///
/// Costs one index probe per key plus one tuple fetch per returned row —
/// exactly the terms of the paper's cost model (Formula 1). Honors `ctx`
/// like FetchByTids: partial rows on early stop.
Result<std::vector<Row>> FetchByJoinValues(
    const Relation& relation, const std::string& attribute,
    const std::vector<Value>& keys, const std::vector<size_t>& projection,
    std::optional<size_t> limit, ExecutionContext* ctx = nullptr);

/// \brief RoundRobin support: one open scan of joining tuples per probe
/// value (paper §5.2).
///
/// For each value v in `keys`, a scan over the tuples of `relation` whose
/// `attribute` equals v is opened. Tuples are then pulled one at a time per
/// scan; a drained scan reports closed. The précis generator cycles over the
/// scans to distribute the cardinality budget uniformly across the source
/// tuples.
class PerValueScanSet {
 public:
  /// Opens one scan per key (one index probe each). When `ctx` is given the
  /// probes are attributed to it; once the context reports ShouldStop() the
  /// remaining scans open empty (drained), so a budget/deadline hit during
  /// Open degrades to a partial scan set instead of failing. The context is
  /// retained for Next()'s fetch accounting and must outlive the set.
  static Result<PerValueScanSet> Open(const Relation& relation,
                                      const std::string& attribute,
                                      std::vector<Value> keys,
                                      std::vector<size_t> projection,
                                      ExecutionContext* ctx = nullptr);

  size_t num_scans() const { return scans_.size(); }

  /// True if scan `i` still has tuples.
  bool IsOpen(size_t i) const { return positions_[i] < scans_[i].size(); }

  /// True if every scan is drained.
  bool AllClosed() const;

  /// Pulls the next row from scan `i`, or nullopt if the scan is drained.
  /// Counts one tuple fetch when a row is produced.
  std::optional<Row> Next(size_t i);

  /// The probe value that scan `i` was opened for.
  const Value& key(size_t i) const { return keys_[i]; }

  // --- Degradation counters (DESIGN.md §12) -------------------------------
  // Under fault injection, Open and Next retry transient errors with the
  // context's RetryPolicy; exhausted retries degrade (drained scan /
  // dropped tuple) instead of failing. The generator folds these counters
  // into the per-relation DegradationReport.

  /// Keys whose scan failed to open after retries (drained scan instead).
  uint64_t failed_opens() const { return failed_opens_; }
  /// Tuples dropped because Get kept failing after retries.
  uint64_t dropped_fetches() const { return dropped_fetches_; }
  /// Retries performed across Open and Next.
  uint64_t retries() const { return retries_; }

  /// SQL-equivalent text of the scans, for logging.
  std::string ToSql(const Relation& relation) const;

 private:
  PerValueScanSet() = default;

  const Relation* relation_ = nullptr;
  ExecutionContext* ctx_ = nullptr;
  std::vector<Value> keys_;
  std::vector<size_t> projection_;
  std::vector<std::vector<Tid>> scans_;  // matching tids per key
  std::vector<size_t> positions_;        // next offset per scan
  std::string attribute_;
  uint64_t failed_opens_ = 0;
  uint64_t dropped_fetches_ = 0;
  uint64_t retries_ = 0;
};

/// \brief Renders query shape (2) as SQL text, e.g.
/// "SELECT title, year FROM MOVIE WHERE did IN (3, 17)".
std::string RenderInListSql(const RelationSchema& schema,
                            const std::string& attribute,
                            const std::vector<Value>& keys,
                            const std::vector<size_t>& projection,
                            std::optional<size_t> limit);

}  // namespace precis

#endif  // PRECIS_SQL_SELECT_H_
