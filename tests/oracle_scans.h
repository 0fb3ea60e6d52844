// The sequential walk's RoundRobin cursors (paper §5.2), kept beside the
// walk (sequential_walk.cc): one open scan of joining tuples per probe
// value, drained one tuple at a time through Relation::Get. The planner
// replays this access sequence without running it.

#ifndef PRECIS_TESTS_ORACLE_SCANS_H_
#define PRECIS_TESTS_ORACLE_SCANS_H_

#include <optional>
#include <string>
#include <vector>

#include "common/execution_context.h"
#include "common/result.h"
#include "storage/relation.h"

namespace precis {

/// \brief One fetched row: its rowid plus the (projected) values.
struct Row {
  Tid tid;
  Tuple values;
};

/// \brief Applies a positional projection to a tuple.
Tuple ProjectTuple(const Tuple& tuple, const std::vector<size_t>& projection);

/// \brief RoundRobin support: one open scan of joining tuples per probe
/// value (paper §5.2).
///
/// For each value v in `keys`, a scan over the tuples of `relation` whose
/// `attribute` equals v is opened. Tuples are then pulled one at a time per
/// scan; a drained scan reports closed. The walk cycles over the scans to
/// distribute the cardinality budget uniformly across the source tuples.
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
  // dropped tuple) instead of failing. The walk folds these counters into
  // the per-relation DegradationReport.

  /// Keys whose scan failed to open after retries (drained scan instead).
  uint64_t failed_opens() const { return failed_opens_; }
  /// Tuples dropped because Get kept failing after retries.
  uint64_t dropped_fetches() const { return dropped_fetches_; }
  /// Retries performed across Open and Next.
  uint64_t retries() const { return retries_; }

 private:
  PerValueScanSet() = default;

  const Relation* relation_ = nullptr;
  ExecutionContext* ctx_ = nullptr;
  std::vector<Value> keys_;
  std::vector<size_t> projection_;
  std::vector<std::vector<Tid>> scans_;  // matching tids per key
  std::vector<size_t> positions_;        // next offset per scan
  uint64_t failed_opens_ = 0;
  uint64_t dropped_fetches_ = 0;
  uint64_t retries_ = 0;
};

}  // namespace precis

#endif  // PRECIS_TESTS_ORACLE_SCANS_H_
