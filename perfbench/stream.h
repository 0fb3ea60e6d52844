// Seeded request streams for the benchmark's workloads. The server only
// ever sees the generated POST /query bodies; the same seed always yields
// the same bodies in the same order.

#ifndef PERFBENCH_STREAM_H_
#define PERFBENCH_STREAM_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "precis/constraints.h"
#include "service/precis_service.h"
#include "storage/database.h"

namespace perfbench {

enum class Mix {
  /// Zipf(1.2) over a fixed hot set of DIRECTOR/ACTOR bodies with small c:
  /// after one pass every answer is a body-cache hit.
  kHot,
  /// Every body has a fresh cache fingerprint, so the answer and body
  /// caches never hit and each request runs the whole miss path.
  kCold,
};

/// Parses "hot" / "cold".
precis::Result<Mix> ParseMix(const std::string& name);

class StreamGenerator {
 public:
  StreamGenerator(const precis::Database* db, Mix mix, uint64_t seed);

  /// The next `n` bodies of the stream.
  std::vector<std::string> Next(size_t n);

  /// Hot mix: every body of the hot set once (the warm-up pass). Empty for
  /// the cold mix.
  const std::vector<std::string>& hot_set() const { return hot_set_; }

 private:
  std::string NextCold();

  const precis::Database* db_;
  Mix mix_;
  precis::Rng rng_;
  std::vector<std::string> hot_set_;
  std::unique_ptr<precis::ZipfSampler> zipf_;
  /// Cold mix: the current shuffled block of (category, c, w) slots.
  std::vector<size_t> block_;
  size_t block_pos_ = 0;
  /// Cold mix: bodies drawn so far per (token, c, base weight).
  std::map<std::tuple<std::string, size_t, double>, int> variants_;
};

/// The degree and cardinality constraints the service derives from a
/// request (PrecisService::RunOne's rules).
struct Constraints {
  std::unique_ptr<precis::DegreeConstraint> degree;
  std::unique_ptr<precis::CardinalityConstraint> cardinality;
};
Constraints ConstraintsFor(const precis::ServiceRequest& request);

/// The engine's answer-cache fingerprint of one /query body (without the
/// epochs, which are fixed for a read-only run).
precis::Result<std::string> CacheFingerprint(const std::string& body);

}  // namespace perfbench

#endif  // PERFBENCH_STREAM_H_
