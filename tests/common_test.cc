#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/string_util.h"

namespace precis {
namespace {

// --- Status ---

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoryMethodsSetCodeAndMessage) {
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::ConstraintViolation("x").IsConstraintViolation());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::NotImplemented("x").IsNotImplemented());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
  EXPECT_EQ(Status::NotFound("missing").message(), "missing");
}

TEST(StatusTest, ToStringIncludesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad weight");
  EXPECT_EQ(s.ToString(), "Invalid argument: bad weight");
}

TEST(StatusTest, ErrorsAreNotOk) {
  EXPECT_FALSE(Status::Internal("x").ok());
  EXPECT_FALSE(Status::NotFound("x").IsInvalidArgument());
}

Status FailIfNegative(int v) {
  if (v < 0) return Status::OutOfRange("negative");
  return Status::OK();
}

Status Chain(int v) {
  PRECIS_RETURN_NOT_OK(FailIfNegative(v));
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  EXPECT_TRUE(Chain(1).ok());
  EXPECT_TRUE(Chain(-1).IsOutOfRange());
}

// --- Result ---

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.ValueOrDie(), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST(ResultTest, ValueOrReturnsAlternativeOnError) {
  Result<int> err(Status::NotFound("nope"));
  EXPECT_EQ(std::move(err).ValueOr(7), 7);
  Result<int> ok(3);
  EXPECT_EQ(std::move(ok).ValueOr(7), 3);
}

TEST(ResultTest, MoveOnlyTypesWork) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(5));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).ValueOrDie();
  EXPECT_EQ(*v, 5);
}

TEST(ResultTest, ArrowOperatorAccessesMembers) {
  Result<std::string> r(std::string("abc"));
  EXPECT_EQ(r->size(), 3u);
}

// --- Rng ---

TEST(RngTest, UniformStaysInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.Uniform(-3, 7);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 7);
  }
}

TEST(RngTest, UniformSingletonRange) {
  Rng rng(2);
  EXPECT_EQ(rng.Uniform(5, 5), 5);
}

TEST(RngTest, SameSeedSameSequence) {
  Rng a(99), b(99);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Uniform(0, 1000000), b.Uniform(0, 1000000));
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Uniform(0, 1000000) == b.Uniform(0, 1000000)) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, SampleWithoutReplacementIsDistinct) {
  Rng rng(5);
  std::vector<size_t> picks = rng.SampleWithoutReplacement(100, 30);
  std::set<size_t> distinct(picks.begin(), picks.end());
  EXPECT_EQ(distinct.size(), 30u);
  for (size_t p : picks) EXPECT_LT(p, 100u);
}

TEST(RngTest, SampleWithoutReplacementFullRange) {
  Rng rng(5);
  std::vector<size_t> picks = rng.SampleWithoutReplacement(10, 10);
  std::set<size_t> distinct(picks.begin(), picks.end());
  EXPECT_EQ(distinct.size(), 10u);
}

TEST(RngTest, ShufflePermutes) {
  Rng rng(3);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, orig);
}

TEST(ZipfTest, UniformWhenSkewZero) {
  ZipfSampler zipf(4, 0.0);
  Rng rng(17);
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 40000; ++i) ++counts[zipf.Sample(&rng)];
  for (int c : counts) {
    EXPECT_NEAR(c, 10000, 600);
  }
}

TEST(ZipfTest, SkewFavoursLowRanks) {
  ZipfSampler zipf(10, 1.2);
  Rng rng(17);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 20000; ++i) ++counts[zipf.Sample(&rng)];
  EXPECT_GT(counts[0], counts[5]);
  EXPECT_GT(counts[0], counts[9]);
}

TEST(ZipfTest, SingleRank) {
  ZipfSampler zipf(1, 2.0);
  Rng rng(1);
  EXPECT_EQ(zipf.Sample(&rng), 0u);
}

// --- string_util ---

TEST(StringUtilTest, ToLower) {
  EXPECT_EQ(ToLower("Woody ALLEN 42"), "woody allen 42");
  EXPECT_EQ(ToLower(""), "");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  a b  "), "a b");
  EXPECT_EQ(Trim("\t\n x\n"), "x");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
}

TEST(StringUtilTest, SplitKeepsEmptyPieces) {
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ", "), "");
  EXPECT_EQ(Join({"x"}, ", "), "x");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("precis", "pre"));
  EXPECT_FALSE(StartsWith("pre", "precis"));
  EXPECT_TRUE(EndsWith("precis", "cis"));
  EXPECT_FALSE(EndsWith("cis", "precis"));
}

TEST(StringUtilTest, ParseNonNegativeDoubleTakesWholeFiniteNumbers) {
  double v = -1.0;
  EXPECT_TRUE(ParseNonNegativeDouble("250", &v));
  EXPECT_EQ(v, 250.0);
  EXPECT_TRUE(ParseNonNegativeDouble("0.5", &v));
  EXPECT_EQ(v, 0.5);
  EXPECT_TRUE(ParseNonNegativeDouble("1e3", &v));
  EXPECT_EQ(v, 1000.0);
  EXPECT_TRUE(ParseNonNegativeDouble("0", &v));
  EXPECT_EQ(v, 0.0);
  for (const char* bad : {"", "junk", "-5", "-0", "1x", " 1", "1 ", "+1",
                          "nan", "inf", "-inf", "1e400", "0x10"}) {
    v = 7.0;
    EXPECT_FALSE(ParseNonNegativeDouble(bad, &v)) << "'" << bad << "'";
    EXPECT_EQ(v, 7.0) << "'" << bad << "'";
  }
}

}  // namespace
}  // namespace precis
