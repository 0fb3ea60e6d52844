#include "precis/result_database.h"

#include <algorithm>

namespace precis {

Tuple ResultRelation::tuple(size_t row) const {
  Tuple out;
  out.reserve(attributes.size());
  for (size_t col = 0; col < attributes.size(); ++col) {
    out.push_back(Cell(row, col));
  }
  return out;
}

ResultDatabase::ResultDatabase(std::vector<ResultRelation> relations)
    : relations_(std::move(relations)) {
  std::sort(relations_.begin(), relations_.end(),
            [](const ResultRelation& a, const ResultRelation& b) {
              return a.name() < b.name();
            });
}

const ResultRelation* ResultDatabase::relation(std::string_view name) const {
  for (const ResultRelation& r : relations_) {
    if (r.name() == name) return &r;
  }
  return nullptr;
}

size_t ResultDatabase::TotalTuples() const {
  size_t n = 0;
  for (const ResultRelation& r : relations_) n += r.num_tuples();
  return n;
}

Result<Database> ResultDatabase::Materialize() const {
  Database db{std::string(kName)};
  for (const ResultRelation& r : relations_) {
    PRECIS_RETURN_NOT_OK(db.CreateRelation(r.schema));
    auto out = db.GetRelation(r.name());
    if (!out.ok()) return out.status();
    for (size_t row = 0; row < r.num_tuples(); ++row) {
      auto tid = (*out)->Insert(r.tuple(row));
      if (!tid.ok()) return tid.status();
    }
  }
  for (const ForeignKey& fk : foreign_keys_) {
    PRECIS_RETURN_NOT_OK(db.AddForeignKey(fk));
  }
  return db;
}

}  // namespace precis
