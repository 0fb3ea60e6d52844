// Weights on data values (paper §7, ongoing work).
//
// "In ongoing work, we are investigating the possibility of having weights
//  on data values as well."
//
// A TupleWeightStore assigns a significance in [0, 1] to individual tuples.
// When the Result Database Generator must truncate a fetch under the
// cardinality constraint, ranked selection keeps the heaviest tuples
// instead of an arbitrary prefix (NaiveQ) or a uniform spread (RoundRobin):
// the précis of a prolific director then shows their *important* movies,
// not whichever ones the storage order surfaced first.

#ifndef PRECIS_PRECIS_TUPLE_WEIGHTS_H_
#define PRECIS_PRECIS_TUPLE_WEIGHTS_H_

#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/database.h"

namespace precis {

/// \brief Per-tuple weights for the relations of one database.
///
/// Relations without registered weights behave as if every tuple weighed
/// the same (weight 1.0), i.e. ranked selection degenerates to the paper's
/// arbitrary-subset behaviour there.
class TupleWeightStore {
 public:
  /// Registers one weight per tuple of `relation`, indexed by tid. Weights
  /// must lie in [0, 1] and cover the relation exactly.
  Status SetWeights(const Database& db, const std::string& relation,
                    std::vector<double> weights);

  /// Weight of a tuple; 1.0 for unregistered relations or out-of-range
  /// tids.
  double Weight(const std::string& relation, Tid tid) const;

  bool HasWeights(const std::string& relation) const {
    return weights_.count(relation) > 0;
  }

  size_t num_relations() const { return weights_.size(); }

 private:
  std::map<std::string, std::vector<double>> weights_;
};

/// \brief Derives tuple weights for `relation` from a numeric attribute,
/// min-max normalized into [lo, hi] (ties resolved by value; NULLs get lo).
/// The natural choice for the movies dataset is MOVIE.year — newer movies
/// weigh more — or REVIEW.score.
Status WeightsFromNumericAttribute(const Database& db,
                                   const std::string& relation,
                                   const std::string& attribute,
                                   TupleWeightStore* store, double lo = 0.1,
                                   double hi = 1.0);

}  // namespace precis

#endif  // PRECIS_PRECIS_TUPLE_WEIGHTS_H_
