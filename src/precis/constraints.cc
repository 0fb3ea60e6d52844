#include "precis/constraints.h"

#include <algorithm>
#include <charconv>

namespace precis {

namespace {

class MaxProjectionsConstraint : public DegreeConstraint {
 public:
  explicit MaxProjectionsConstraint(size_t r) : r_(r) {}

  bool Admits(const ResultSchema& current,
              const Path& candidate) const override {
    if (!candidate.is_projection_path()) return true;
    return current.projection_paths().size() < r_;
  }

  std::string ToString() const override {
    return "t <= " + std::to_string(r_);
  }

 private:
  size_t r_;
};

class MinPathWeightConstraint : public DegreeConstraint {
 public:
  explicit MinPathWeightConstraint(double w0) : w0_(w0) {}

  bool Admits(const ResultSchema& /*current*/,
              const Path& candidate) const override {
    // Weights multiply in [0, 1]: once a (join) path drops below w0 no
    // extension of it can recover, so the check prunes join paths too.
    return candidate.weight() >= w0_;
  }

  // The shortest rendering that reads back as w0: the string is part of
  // the schema- and answer-cache keys, so two weights must never share one.
  std::string ToString() const override {
    char buf[32];
    char* end = std::to_chars(buf, buf + sizeof(buf), w0_).ptr;
    return "w >= " + std::string(buf, end);
  }

 private:
  double w0_;
};

class MaxPathLengthConstraint : public DegreeConstraint {
 public:
  explicit MaxPathLengthConstraint(size_t l0) : l0_(l0) {}

  bool Admits(const ResultSchema& /*current*/,
              const Path& candidate) const override {
    return candidate.length() <= l0_;
  }

  std::string ToString() const override {
    return "length <= " + std::to_string(l0_);
  }

 private:
  size_t l0_;
};

class MaxRelationsConstraint : public DegreeConstraint {
 public:
  explicit MaxRelationsConstraint(size_t r) : r_(r) {}

  bool Admits(const ResultSchema& current,
              const Path& candidate) const override {
    // Relations the candidate would add to G'.
    size_t added = 0;
    auto counts = [&](RelationNodeId rel) {
      return current.relations().count(rel) == 0;
    };
    if (counts(candidate.source())) ++added;
    for (const JoinEdge* e : candidate.joins()) {
      if (counts(e->to)) ++added;
    }
    return current.relations().size() + added <= r_;
  }

  std::string ToString() const override {
    return "relations <= " + std::to_string(r_);
  }

 private:
  size_t r_;
};

class ConjunctionDegreeConstraint : public DegreeConstraint {
 public:
  explicit ConjunctionDegreeConstraint(
      std::vector<std::unique_ptr<DegreeConstraint>> parts)
      : parts_(std::move(parts)) {}

  bool Admits(const ResultSchema& current,
              const Path& candidate) const override {
    for (const auto& part : parts_) {
      if (!part->Admits(current, candidate)) return false;
    }
    return true;
  }

  std::string ToString() const override {
    std::string out;
    for (size_t i = 0; i < parts_.size(); ++i) {
      if (i > 0) out += " AND ";
      out += parts_[i]->ToString();
    }
    return out.empty() ? "true" : out;
  }

 private:
  std::vector<std::unique_ptr<DegreeConstraint>> parts_;
};

class MaxTotalTuplesConstraint : public CardinalityConstraint {
 public:
  explicit MaxTotalTuplesConstraint(size_t c0) : c0_(c0) {}

  std::optional<size_t> Budget(size_t /*relation_count*/,
                               size_t total_count) const override {
    if (total_count >= c0_) return 0;
    return c0_ - total_count;
  }

  std::string ToString() const override {
    return "card(D') <= " + std::to_string(c0_);
  }

 private:
  size_t c0_;
};

class MaxTuplesPerRelationConstraint : public CardinalityConstraint {
 public:
  explicit MaxTuplesPerRelationConstraint(size_t c0) : c0_(c0) {}

  std::optional<size_t> Budget(size_t relation_count,
                               size_t /*total_count*/) const override {
    if (relation_count >= c0_) return 0;
    return c0_ - relation_count;
  }

  std::string ToString() const override {
    return "card(R') <= " + std::to_string(c0_);
  }

 private:
  size_t c0_;
};

class UnlimitedCardinalityConstraint : public CardinalityConstraint {
 public:
  std::optional<size_t> Budget(size_t /*relation_count*/,
                               size_t /*total_count*/) const override {
    return std::nullopt;
  }

  std::string ToString() const override { return "unlimited"; }
};

class ConjunctionCardinalityConstraint : public CardinalityConstraint {
 public:
  explicit ConjunctionCardinalityConstraint(
      std::vector<std::unique_ptr<CardinalityConstraint>> parts)
      : parts_(std::move(parts)) {}

  std::optional<size_t> Budget(size_t relation_count,
                               size_t total_count) const override {
    std::optional<size_t> budget;
    for (const auto& part : parts_) {
      std::optional<size_t> b = part->Budget(relation_count, total_count);
      if (!b.has_value()) continue;
      if (!budget.has_value() || *b < *budget) budget = b;
    }
    return budget;
  }

  std::string ToString() const override {
    std::string out;
    for (size_t i = 0; i < parts_.size(); ++i) {
      if (i > 0) out += " AND ";
      out += parts_[i]->ToString();
    }
    return out.empty() ? "unlimited" : out;
  }

 private:
  std::vector<std::unique_ptr<CardinalityConstraint>> parts_;
};

}  // namespace

std::unique_ptr<DegreeConstraint> MaxProjections(size_t r) {
  return std::make_unique<MaxProjectionsConstraint>(r);
}

std::unique_ptr<DegreeConstraint> MinPathWeight(double w0) {
  return std::make_unique<MinPathWeightConstraint>(w0);
}

std::unique_ptr<DegreeConstraint> MaxPathLength(size_t l0) {
  return std::make_unique<MaxPathLengthConstraint>(l0);
}

std::unique_ptr<DegreeConstraint> MaxRelations(size_t r) {
  return std::make_unique<MaxRelationsConstraint>(r);
}

std::unique_ptr<DegreeConstraint> AllOf(
    std::vector<std::unique_ptr<DegreeConstraint>> parts) {
  return std::make_unique<ConjunctionDegreeConstraint>(std::move(parts));
}

std::unique_ptr<CardinalityConstraint> MaxTotalTuples(size_t c0) {
  return std::make_unique<MaxTotalTuplesConstraint>(c0);
}

std::unique_ptr<CardinalityConstraint> MaxTuplesPerRelation(size_t c0) {
  return std::make_unique<MaxTuplesPerRelationConstraint>(c0);
}

std::unique_ptr<CardinalityConstraint> UnlimitedCardinality() {
  return std::make_unique<UnlimitedCardinalityConstraint>();
}

std::unique_ptr<CardinalityConstraint> AllOf(
    std::vector<std::unique_ptr<CardinalityConstraint>> parts) {
  return std::make_unique<ConjunctionCardinalityConstraint>(std::move(parts));
}

}  // namespace precis
