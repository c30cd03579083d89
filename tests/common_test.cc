// Unit tests for src/common: math utilities, RNG, strings, status.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/hash.h"
#include "common/math_util.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"

namespace isum {
namespace {

// --- math_util ---

TEST(MathUtil, PearsonPerfectPositive) {
  std::vector<double> x = {1, 2, 3, 4, 5};
  std::vector<double> y = {2, 4, 6, 8, 10};
  EXPECT_NEAR(PearsonCorrelation(x, y), 1.0, 1e-12);
}

TEST(MathUtil, PearsonPerfectNegative) {
  std::vector<double> x = {1, 2, 3, 4};
  std::vector<double> y = {8, 6, 4, 2};
  EXPECT_NEAR(PearsonCorrelation(x, y), -1.0, 1e-12);
}

TEST(MathUtil, PearsonConstantSeriesIsZero) {
  std::vector<double> x = {3, 3, 3};
  std::vector<double> y = {1, 2, 3};
  EXPECT_EQ(PearsonCorrelation(x, y), 0.0);
}

TEST(MathUtil, PearsonSizeMismatchIsZero) {
  EXPECT_EQ(PearsonCorrelation({1, 2}, {1, 2, 3}), 0.0);
}

TEST(MathUtil, SpearmanMonotonicNonlinear) {
  std::vector<double> x = {1, 2, 3, 4, 5};
  std::vector<double> y = {1, 8, 27, 64, 125};  // monotone, nonlinear
  EXPECT_NEAR(SpearmanCorrelation(x, y), 1.0, 1e-12);
}

TEST(MathUtil, SpearmanHandlesTies) {
  std::vector<double> x = {1, 2, 2, 3};
  std::vector<double> y = {10, 20, 20, 30};
  EXPECT_NEAR(SpearmanCorrelation(x, y), 1.0, 1e-12);
}

TEST(MathUtil, MeanAndStdDev) {
  std::vector<double> x = {2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(Mean(x), 5.0);
  EXPECT_DOUBLE_EQ(StdDev(x), 2.0);
  EXPECT_EQ(Mean({}), 0.0);
  EXPECT_EQ(StdDev({1.0}), 0.0);
}

TEST(MathUtil, PercentileInterpolates) {
  std::vector<double> x = {4, 1, 3, 2};  // unsorted on purpose
  EXPECT_DOUBLE_EQ(Percentile(x, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(x, 100), 4.0);
  EXPECT_DOUBLE_EQ(Percentile(x, 50), 2.5);
  EXPECT_EQ(Percentile({}, 50), 0.0);
}

TEST(MathUtil, MinMaxNormalizePaperFormula) {
  // §4.2: w' = w / (max - min); equal weights become 1.
  std::vector<double> v = {1.0, 2.0, 3.0};
  MinMaxNormalize(v);
  EXPECT_DOUBLE_EQ(v[0], 0.5);
  EXPECT_DOUBLE_EQ(v[2], 1.5);
  std::vector<double> flat = {4.0, 4.0};
  MinMaxNormalize(flat);
  EXPECT_DOUBLE_EQ(flat[0], 1.0);
  EXPECT_DOUBLE_EQ(flat[1], 1.0);
}

TEST(MathUtil, ClampBounds) {
  EXPECT_EQ(Clamp(5, 0, 1), 1.0);
  EXPECT_EQ(Clamp(-5, 0, 1), 0.0);
  EXPECT_EQ(Clamp(0.5, 0, 1), 0.5);
}

// --- rng ---

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 2);
}

TEST(Rng, NextUint64RespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.NextUint64(13), 13u);
}

TEST(Rng, NextIntInclusiveRange) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const int64_t v = rng.NextInt(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values reachable
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, GaussianMoments) {
  Rng rng(11);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) samples.push_back(rng.NextGaussian(5.0, 2.0));
  EXPECT_NEAR(Mean(samples), 5.0, 0.1);
  EXPECT_NEAR(StdDev(samples), 2.0, 0.1);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(13);
  auto sample = rng.SampleWithoutReplacement(100, 20);
  ASSERT_EQ(sample.size(), 20u);
  std::set<size_t> uniq(sample.begin(), sample.end());
  EXPECT_EQ(uniq.size(), 20u);
  for (size_t v : sample) EXPECT_LT(v, 100u);
}

TEST(Rng, SampleWithoutReplacementAllWhenKGeN) {
  Rng rng(13);
  auto sample = rng.SampleWithoutReplacement(5, 10);
  std::set<size_t> uniq(sample.begin(), sample.end());
  EXPECT_EQ(uniq.size(), 5u);
}

TEST(Rng, ForkIndependentStreams) {
  Rng base(42);
  Rng f1 = base.Fork(1);
  Rng f2 = base.Fork(2);
  EXPECT_NE(f1.Next(), f2.Next());
  // Forks are deterministic functions of parent state + id.
  Rng base2(42);
  EXPECT_EQ(base2.Fork(1).Next(), Rng(42).Fork(1).Next());
}

TEST(Zipf, SkewConcentratesMass) {
  Rng rng(5);
  ZipfSampler zipf(1000, 1.3);
  int head = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) head += (zipf.Sample(rng) <= 10);
  // With skew 1.3 the top-10 ranks should hold a large share.
  EXPECT_GT(head, n / 4);
}

TEST(Zipf, ZeroSkewIsUniform) {
  Rng rng(5);
  ZipfSampler zipf(100, 0.0);
  int head = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) head += (zipf.Sample(rng) <= 10);
  EXPECT_NEAR(static_cast<double>(head) / n, 0.1, 0.02);
}

TEST(Zipf, SamplesAlwaysInRange) {
  Rng rng(6);
  ZipfSampler zipf(37, 1.7);
  for (int i = 0; i < 5000; ++i) {
    const uint64_t v = zipf.Sample(rng);
    EXPECT_GE(v, 1u);
    EXPECT_LE(v, 37u);
  }
}

// --- string_util ---

TEST(StringUtil, SplitKeepsEmptyTokens) {
  auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtil, JoinRoundTrip) {
  EXPECT_EQ(Join({"x", "y", "z"}, ", "), "x, y, z");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringUtil, TrimBothEnds) {
  EXPECT_EQ(Trim("  hello\t\n"), "hello");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringUtil, CaseConversions) {
  EXPECT_EQ(ToLower("SeLeCt"), "select");
  EXPECT_EQ(ToUpper("sum"), "SUM");
  EXPECT_TRUE(EqualsIgnoreCase("GROUP", "group"));
  EXPECT_FALSE(EqualsIgnoreCase("GROUP", "group "));
}

TEST(StringUtil, StrFormatBasics) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.005), "1.00");
}

TEST(StringUtil, ParseNumberAcceptsOnlyWholeFiniteNumbers) {
  double v = -1.0;
  EXPECT_TRUE(ParseNumber("2.5", &v));
  EXPECT_EQ(v, 2.5);
  EXPECT_TRUE(ParseNumber("-3e2", &v));
  EXPECT_EQ(v, -300.0);
  for (const char* bad : {"", "ninety", "5x", "1.5 ", "nan", "inf"}) {
    v = 7.0;
    EXPECT_FALSE(ParseNumber(bad, &v)) << bad;
    EXPECT_EQ(v, 7.0) << "left untouched: " << bad;
  }
}

TEST(StringUtil, ParseCountRefusesSignsAndOverflow) {
  uint64_t n = 9;
  EXPECT_TRUE(ParseCount("0", &n));
  EXPECT_EQ(n, 0u);
  EXPECT_TRUE(ParseCount("18446744073709551615", &n));
  EXPECT_EQ(n, UINT64_MAX);
  for (const char* bad : {"", "-1", "+1", " 1", "1.0", "12ab",
                          "18446744073709551616"}) {
    n = 9;
    EXPECT_FALSE(ParseCount(bad, &n)) << bad;
    EXPECT_EQ(n, 9u) << "left untouched: " << bad;
  }
}

// --- status ---

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status s = Status::ParseError("bad token");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_EQ(s.ToString(), "ParseError: bad token");
}

StatusOr<int> ParsePositive(int v) {
  if (v <= 0) return Status::InvalidArgument("not positive");
  return v * 2;
}

Status UseParse(int v, int* out) {
  ISUM_ASSIGN_OR_RETURN(*out, ParsePositive(v));
  return Status::OK();
}

TEST(Status, AssignOrReturnPropagates) {
  int out = 0;
  EXPECT_TRUE(UseParse(21, &out).ok());
  EXPECT_EQ(out, 42);
  EXPECT_EQ(UseParse(-1, &out).code(), StatusCode::kInvalidArgument);
}

TEST(Status, StatusOrAccessors) {
  StatusOr<std::string> ok(std::string("v"));
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(*ok, "v");
  StatusOr<std::string> err(Status::NotFound("x"));
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kNotFound);
}

// --- hash ---

TEST(Hash, StableAndDistinct) {
  EXPECT_EQ(HashBytes("abc"), HashBytes("abc"));
  EXPECT_NE(HashBytes("abc"), HashBytes("abd"));
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
}

}  // namespace
}  // namespace isum
