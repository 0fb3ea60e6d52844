#include "stream.h"

#include <cstdio>
#include <iterator>
#include <set>

#include "datagen/workload.h"
#include "precis/engine.h"
#include "precis/json_export.h"
#include "server/request_parse.h"

namespace perfbench {

using precis::Result;
using precis::Status;

namespace {

/// Hot set size: a few hundred bodies, a few MB rendered — well inside the
/// engine's 32 MiB body cache.
constexpr size_t kHotSetSize = 300;
constexpr double kHotZipfSkew = 1.2;

struct Category {
  const char* relation;
  const char* attribute;
  size_t slots;  // per block of 60 requests
};
// Token mix: DIRECTOR 40%, ACTOR 30%, MOVIE.title 20%, GENRE 10%. GENRE
// tokens seed thousands of tuples each and make the heavy tail.
constexpr Category kColdCategories[] = {
    {"DIRECTOR", "dname", 24},
    {"ACTOR", "aname", 18},
    {"MOVIE", "title", 12},
    {"GENRE", "genre", 6},
};
constexpr size_t kColdCardinalities[] = {10, 100, 1000};
constexpr double kColdWeights[] = {0.9, 0.5};
constexpr size_t kCombos = 6;  // |cardinalities| x |weights|

/// Each repeat of a (token, c, w) triple lowers w by another micro-unit, so
/// its rendering in the fingerprint ("w >= 0.899999", six significant
/// digits) never repeats. No path weight of the movies graph lies in
/// (0.81, 0.9) or (0.49, 0.5), so up to this many steps leave the answer
/// unchanged.
constexpr int kMaxVariants = 9000;
constexpr double kVariantStep = 1e-6;

std::string QueryBody(const std::string& token, size_t c) {
  return "{\"tokens\":[\"" + precis::JsonEscape(token) +
         "\"],\"tuples_per_relation\":" + std::to_string(c);
}

}  // namespace

Result<Mix> ParseMix(const std::string& name) {
  if (name == "hot") return Mix::kHot;
  if (name == "cold") return Mix::kCold;
  return Status::InvalidArgument("unknown mix '" + name + "' (hot | cold)");
}

StreamGenerator::StreamGenerator(const precis::Database* db, Mix mix,
                                 uint64_t seed)
    : db_(db), mix_(mix), rng_(seed) {
  if (mix_ != Mix::kHot) return;
  std::set<std::string> seen;
  while (hot_set_.size() < kHotSetSize) {
    const bool director = rng_.Bernoulli(0.5);
    auto token = precis::RandomToken(*db_, director ? "DIRECTOR" : "ACTOR",
                                     director ? "dname" : "aname", &rng_);
    if (!token.ok()) std::abort();  // the movies schema always has both
    std::string body = QueryBody(*token, rng_.Bernoulli(0.5) ? 5 : 10) + "}";
    if (seen.insert(body).second) hot_set_.push_back(std::move(body));
  }
  zipf_ = std::make_unique<precis::ZipfSampler>(hot_set_.size(), kHotZipfSkew);
}

std::vector<std::string> StreamGenerator::Next(size_t n) {
  std::vector<std::string> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(mix_ == Mix::kHot ? hot_set_[zipf_->Sample(&rng_)]
                                    : NextCold());
  }
  return out;
}

std::string StreamGenerator::NextCold() {
  // Blocks hold the exact category shares and, within each category, every
  // (c, w) combination equally often; only the order and the tokens depend
  // on the seed, so every seed offers the same work mix.
  if (block_pos_ == block_.size()) {
    block_.clear();
    for (size_t cat = 0; cat < std::size(kColdCategories); ++cat) {
      for (size_t j = 0; j < kColdCategories[cat].slots; ++j) {
        block_.push_back(cat * kCombos + j % kCombos);
      }
    }
    rng_.Shuffle(&block_);
    block_pos_ = 0;
  }
  const size_t slot = block_[block_pos_++];
  const Category& cat = kColdCategories[slot / kCombos];
  const size_t c = kColdCardinalities[slot % kCombos % 3];
  const double w = kColdWeights[slot % kCombos / 3];
  for (;;) {
    auto token = precis::RandomToken(*db_, cat.relation, cat.attribute, &rng_);
    if (!token.ok()) std::abort();  // the movies schema always has these
    int& variant = variants_[{*token, c, w}];
    if (variant >= kMaxVariants) continue;  // exhausted: draw another token
    char weight[32];
    std::snprintf(weight, sizeof(weight), "%.6f",
                  w - kVariantStep * static_cast<double>(variant++));
    return QueryBody(*token, c) + ",\"min_path_weight\":" + weight + "}";
  }
}

Constraints ConstraintsFor(const precis::ServiceRequest& request) {
  std::vector<std::unique_ptr<precis::DegreeConstraint>> parts;
  parts.push_back(precis::MinPathWeight(request.min_path_weight));
  if (request.max_projections > 0) {
    parts.push_back(precis::MaxProjections(request.max_projections));
  }
  Constraints out;
  out.degree = parts.size() == 1 ? std::move(parts.front())
                                 : precis::AllOf(std::move(parts));
  out.cardinality = request.tuples_per_relation > 0
                        ? precis::MaxTuplesPerRelation(
                              request.tuples_per_relation)
                        : precis::UnlimitedCardinality();
  return out;
}

Result<std::string> CacheFingerprint(const std::string& body) {
  auto parsed = precis::ParseQueryRequest(body);
  if (!parsed.ok()) return parsed.status();
  const precis::ServiceRequest& request = parsed->request;
  Constraints constraints = ConstraintsFor(request);
  return precis::AnswerFingerprintBase(request.query, /*synonyms=*/nullptr,
                                       *constraints.degree,
                                       *constraints.cardinality,
                                       request.options);
}

}  // namespace perfbench
