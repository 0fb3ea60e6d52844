// Database: a catalog of relations plus foreign-key constraints.

#ifndef PRECIS_STORAGE_DATABASE_H_
#define PRECIS_STORAGE_DATABASE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/access_stats.h"
#include "storage/relation.h"
#include "storage/schema.h"

namespace precis {

/// \brief An in-memory relational database: named relations, foreign keys,
/// and cumulative access statistics.
///
/// Both the source database (e.g. the movies dataset) and the *result* of a
/// précis query are instances of this class — the paper's central point is
/// that a query's answer is itself a database with schema and constraints.
class Database {
 public:
  Database() = default;
  explicit Database(std::string name) : name_(std::move(name)) {}

  // Movable, not copyable (relations can be large).
  Database(Database&&) = default;
  Database& operator=(Database&&) = default;
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  const std::string& name() const { return name_; }

  /// Creates an empty relation from a schema. Fails if the name is taken.
  Status CreateRelation(RelationSchema schema);

  /// Declares a foreign key; both end points must exist and be
  /// type-compatible. Does not retroactively validate data (use
  /// ValidateForeignKeys()).
  Status AddForeignKey(ForeignKey fk);

  bool HasRelation(const std::string& name) const;

  /// Relation accessors.
  Result<Relation*> GetRelation(const std::string& name);
  Result<const Relation*> GetRelation(const std::string& name) const;

  /// Names of all relations, sorted.
  std::vector<std::string> RelationNames() const;

  const std::vector<ForeignKey>& foreign_keys() const { return foreign_keys_; }

  size_t num_relations() const { return relations_.size(); }

  /// Total tuples across all relations — the paper's card(D).
  size_t TotalTuples() const;

  /// Bytes held by every relation's structures, summed by kind.
  StorageBytes bytes() const;

  /// Checks `fk` against this database's data, whether or not it is
  /// declared here: every non-NULL child value must equal some parent value
  /// under Value equality (-0.0 equals +0.0; NaN equals nothing, so a NaN
  /// child dangles). Compares canonical column bits (Column::CanonicalBits)
  /// instead of hashing Values: a parent primary key is probed in the
  /// parent relation's PK set, any other parent attribute gets a FlatKeySet
  /// built from its column. Returns the ConstraintViolation naming the
  /// first dangling value, NotFound for a missing relation or attribute,
  /// InvalidArgument for end points of different types, or OK.
  Status CheckForeignKey(const ForeignKey& fk) const;

  /// CheckForeignKey over every declared foreign key, in declaration order.
  /// Returns the first violation found, or OK.
  Status ValidateForeignKeys() const;

  /// Cumulative access counters across all relations of this database.
  ///
  /// These are the *global*, cross-query totals. A query that carries a
  /// per-query ExecutionContext is additionally attributed on its context's
  /// own AccessStats; the per-query snapshots of all queries sum to the
  /// deltas observed here (each access is counted once globally and once on
  /// the owning context).
  const AccessStats& stats() const { return *stats_; }
  AccessStats* mutable_stats() { return stats_.get(); }
  void ResetStats() { stats_->Reset(); }

  /// Multi-line schema dump ("MOVIE(mid*, title, year, did)" + FKs).
  std::string DescribeSchema() const;

  /// Mutation epoch: bumped once per structural or data mutation —
  /// CreateRelation, AddForeignKey, every successful Relation::Insert and
  /// every CreateIndex on a relation of this database. Caches keyed on
  /// (query fingerprint, epoch) are therefore never stale: any mutation
  /// makes previously cached entries unreachable (DESIGN.md §10).
  uint64_t epoch() const { return epoch_->load(std::memory_order_relaxed); }

 private:
  void BumpEpoch() { epoch_->fetch_add(1, std::memory_order_relaxed); }

  std::string name_;
  std::map<std::string, std::unique_ptr<Relation>> relations_;
  std::vector<ForeignKey> foreign_keys_;
  // Held behind a unique_ptr so its address survives moves of the Database
  // (each Relation keeps a raw pointer to it for instrumentation).
  std::unique_ptr<AccessStats> stats_ = std::make_unique<AccessStats>();
  // Behind a unique_ptr for the same address-stability reason: each
  // Relation keeps a raw pointer and bumps it on Insert / CreateIndex.
  std::unique_ptr<std::atomic<uint64_t>> epoch_ =
      std::make_unique<std::atomic<uint64_t>>(0);
};

}  // namespace precis

#endif  // PRECIS_STORAGE_DATABASE_H_
