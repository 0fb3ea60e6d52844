// The result database D' (paper §5.2) as a view over its source.
//
// Every tuple of a précis answer already sits in the source database, so
// the answer holds no copy of it: per result relation, the source relation,
// the output schema, the emitted source attributes and the accepted tids in
// Fig. 5 order, plus the source foreign keys that hold on those tuples.
// Cells are read through the source Relation by tid on demand. Tids are
// append-stable, so the view renders the same bytes however the source
// grows afterwards. Materialize() copies the view into a Database for the
// callers that need one (saving, schema dumps, oracle comparisons).

#ifndef PRECIS_PRECIS_RESULT_DATABASE_H_
#define PRECIS_PRECIS_RESULT_DATABASE_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "storage/database.h"
#include "storage/relation.h"
#include "storage/schema.h"

namespace precis {

/// \brief One relation of a result database: which tuples of `source` it
/// holds and which of their attributes it shows.
struct ResultRelation {
  /// The source relation, read in place; must outlive the view.
  const Relation* source = nullptr;
  /// The emitted attributes, with the primary key where it survives.
  RelationSchema schema;
  /// Source attribute index of each output attribute (ascending).
  std::vector<size_t> attributes;
  /// The accepted source tids, in Fig. 5 collection order.
  std::vector<Tid> tids;

  const std::string& name() const { return schema.name(); }
  size_t num_tuples() const { return tids.size(); }

  /// Output attribute `col` of row `row`, read from the source by tid.
  Value Cell(size_t row, size_t col) const {
    return source->ColumnValue(tids[row], attributes[col]);
  }

  /// Row `row`'s output values.
  Tuple tuple(size_t row) const;
};

/// \brief A précis answer's database: result relations over the source plus
/// the foreign keys that hold on them. Movable; copying would copy the tid
/// arrays, so it is not offered.
class ResultDatabase {
 public:
  /// The name a materialized or rendered result database carries.
  static constexpr std::string_view kName = "precis_result";

  ResultDatabase() = default;
  /// Takes the relations in any order and keeps them in name order.
  explicit ResultDatabase(std::vector<ResultRelation> relations);

  ResultDatabase(ResultDatabase&&) = default;
  ResultDatabase& operator=(ResultDatabase&&) = default;
  ResultDatabase(const ResultDatabase&) = delete;
  ResultDatabase& operator=(const ResultDatabase&) = delete;

  /// The result relations, in name order.
  const std::vector<ResultRelation>& relations() const { return relations_; }

  /// The relation named `name`, or null.
  const ResultRelation* relation(std::string_view name) const;

  /// Declares a foreign key that holds on the result's tuples. The
  /// generator adds them in source order.
  void AddForeignKey(ForeignKey fk) { foreign_keys_.push_back(std::move(fk)); }
  const std::vector<ForeignKey>& foreign_keys() const { return foreign_keys_; }

  /// Tuples across all result relations — the paper's card(D').
  size_t TotalTuples() const;

  /// A Database named kName holding a copy of every result tuple, with the
  /// output schemas (primary keys included) and the foreign keys.
  Result<Database> Materialize() const;

 private:
  std::vector<ResultRelation> relations_;
  std::vector<ForeignKey> foreign_keys_;
};

}  // namespace precis

#endif  // PRECIS_PRECIS_RESULT_DATABASE_H_
