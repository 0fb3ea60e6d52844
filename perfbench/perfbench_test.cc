// Tests of the benchmark's own logic: the percentile rule, the capacity
// search, the cold stream's fingerprints and the oracle check.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "datagen/movies_dataset.h"
#include "loadgen.h"
#include "stats.h"
#include "stream.h"

namespace perfbench {
namespace {

std::vector<double> Ramp(size_t n) {
  std::vector<double> v;
  for (size_t i = 0; i < n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(PercentileTest, ReportedOnlyWithTenSamplesBeyond) {
  EXPECT_FALSE(Percentile(Ramp(999), 0.99).has_value());
  ASSERT_TRUE(Percentile(Ramp(1000), 0.99).has_value());
  EXPECT_NEAR(*Percentile(Ramp(1000), 0.99), 989.01, 1e-9);
  EXPECT_FALSE(Percentile(Ramp(19), 0.5).has_value());
  ASSERT_TRUE(Percentile(Ramp(20), 0.5).has_value());
  EXPECT_DOUBLE_EQ(*Percentile(Ramp(20), 0.5), 9.5);
  EXPECT_FALSE(Percentile({}, 0.5).has_value());
}

/// A server whose p99 meets the limit exactly up to `knee` qps.
std::function<RampStep(double)> Curve(double knee, double generator_limit) {
  return [=](double qps) {
    RampStep step;
    step.achieved_qps = qps * 0.99;
    step.within_limit = qps <= knee;
    step.generator_behind = qps > generator_limit;
    return step;
  };
}

TEST(CapacitySearchTest, FindsTheKneeOfASyntheticCurve) {
  const double knee = 2000;
  CapacityResult r = SearchCapacity(500, 1.5, 3, 10, Curve(knee, 1e9));
  // Three bisections of a x1.5 bracket: within 1.5^(1/8) of the knee.
  EXPECT_LE(r.capacity_qps, knee * 0.99);
  EXPECT_GE(r.capacity_qps, knee * 0.99 / std::pow(1.5, 1.0 / 8));
  EXPECT_LE(r.steps.size(), 10u);
}

TEST(CapacitySearchTest, WalksDownWhenTheFirstStepFails) {
  CapacityResult r = SearchCapacity(5000, 1.5, 3, 10, Curve(1000, 1e9));
  EXPECT_GT(r.capacity_qps, 0);
  EXPECT_LE(r.capacity_qps, 1000 * 0.99);
  EXPECT_GE(r.capacity_qps, 1000 * 0.99 / std::pow(1.5, 1.0 / 8));
}

TEST(CapacitySearchTest, GeneratorLimitedStepsNeverCount) {
  // The server would hold 2000 qps, but the generator falls behind above
  // 1200: no step above 1200 may become the capacity.
  CapacityResult r = SearchCapacity(500, 1.5, 3, 10, Curve(2000, 1200));
  EXPECT_LE(r.capacity_qps, 1200 * 0.99);
  bool saw_behind = false;
  for (const RampStep& step : r.steps) {
    saw_behind |= step.generator_behind;
    if (step.generator_behind) {
      EXPECT_FALSE(step.passed());
    }
  }
  EXPECT_TRUE(saw_behind);
}

class SmallDatasetTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    precis::MoviesConfig config;
    config.num_movies = 300;
    dataset_ = new precis::MoviesDataset(
        std::move(*precis::MoviesDataset::Create(config)));
    engine_ = new precis::PrecisEngine(std::move(
        *precis::PrecisEngine::Create(&dataset_->db(), &dataset_->graph())));
  }
  static void TearDownTestSuite() {
    delete engine_;
    delete dataset_;
  }
  static precis::MoviesDataset* dataset_;
  static precis::PrecisEngine* engine_;
};
precis::MoviesDataset* SmallDatasetTest::dataset_ = nullptr;
precis::PrecisEngine* SmallDatasetTest::engine_ = nullptr;

TEST_F(SmallDatasetTest, ColdStreamNeverRepeatsAFingerprint) {
  // 300 films give a small vocabulary, so tokens repeat many times and the
  // weight variants carry the uniqueness.
  StreamGenerator stream(&dataset_->db(), Mix::kCold, 7);
  std::set<std::string> fingerprints;
  for (const std::string& body : stream.Next(20000)) {
    auto fingerprint = CacheFingerprint(body);
    ASSERT_TRUE(fingerprint.ok()) << body;
    EXPECT_TRUE(fingerprints.insert(*fingerprint).second) << body;
  }
}

TEST_F(SmallDatasetTest, StreamsAreASeedFunction) {
  StreamGenerator a(&dataset_->db(), Mix::kCold, 3);
  StreamGenerator b(&dataset_->db(), Mix::kCold, 3);
  StreamGenerator c(&dataset_->db(), Mix::kCold, 4);
  const std::vector<std::string> first = a.Next(500);
  EXPECT_EQ(first, b.Next(500));
  EXPECT_NE(first, c.Next(500));
  StreamGenerator hot(&dataset_->db(), Mix::kHot, 3);
  EXPECT_EQ(hot.hot_set().size(), 300u);
  EXPECT_EQ(StreamGenerator(&dataset_->db(), Mix::kHot, 3).Next(100),
            hot.Next(100));
}

TEST_F(SmallDatasetTest, WeightVariantsLeaveTheAnswerUnchanged) {
  // The per-repeat weight offsets only defeat the caches: the oracle's
  // bytes for a variant equal those for its base weight.
  auto oracle = Oracle::Create(engine_, 2);
  ASSERT_TRUE(oracle.ok());
  StreamGenerator stream(&dataset_->db(), Mix::kCold, 11);
  std::vector<std::string> variants, bases;
  for (const std::string& body : stream.Next(3000)) {
    const size_t at = body.find("\"min_path_weight\":");
    ASSERT_NE(at, std::string::npos);
    const std::string weight = body.substr(at + 18, 8);
    if (weight == "0.900000" || weight == "0.500000") continue;
    variants.push_back(body);
    bases.push_back(body.substr(0, at + 18) +
                    (weight[2] >= '5' ? "0.900000" : "0.500000") + "}");
    if (variants.size() == 200) break;
  }
  ASSERT_EQ(variants.size(), 200u);
  (*oracle)->Prepare(variants);
  (*oracle)->Prepare(bases);
  for (size_t i = 0; i < variants.size(); ++i) {
    ASSERT_NE((*oracle)->Expected(variants[i]), nullptr);
    EXPECT_EQ(*(*oracle)->Expected(variants[i]), *(*oracle)->Expected(bases[i]))
        << variants[i];
  }
}

TEST_F(SmallDatasetTest, OracleMismatchIsACountedFailure) {
  auto oracle = Oracle::Create(engine_, 2);
  ASSERT_TRUE(oracle.ok());
  const std::vector<std::string> bodies = {
      "{\"tokens\":[\"Woody Allen\"],\"tuples_per_relation\":5}",
      "{\"tokens\":[\"Match Point\"],\"tuples_per_relation\":5}",
      "{\"tokens\":[\"Woody Allen\"],\"tuples_per_relation\":3}",
      "{\"tokens\":[\"Woody Allen\"],\"tuples_per_relation\":2}",
  };
  (*oracle)->Prepare(bodies);
  Phase phase;
  phase.outcomes.resize(bodies.size());
  for (size_t i = 0; i < bodies.size(); ++i) {
    ASSERT_NE((*oracle)->Expected(bodies[i]), nullptr);
    phase.outcomes[i].status = 200;
    phase.outcomes[i].body = *(*oracle)->Expected(bodies[i]);
  }
  EXPECT_EQ(CountFailures(bodies, phase, **oracle), 0u);

  phase.outcomes[1].body.back() ^= 1;  // one byte differs
  EXPECT_EQ(CountFailures(bodies, phase, **oracle), 1u);
  phase.outcomes[2].status = 503;  // refused
  phase.outcomes[3].status = -1;   // transport failure
  EXPECT_EQ(CountFailures(bodies, phase, **oracle), 3u);
}

TEST_F(SmallDatasetTest, OracleRefusesACachingEngine) {
  engine_->set_caches_enabled(true);
  EXPECT_FALSE(Oracle::Create(engine_, 1).ok());
  engine_->set_caches_enabled(false);
}

}  // namespace
}  // namespace perfbench
