// Unit tests for src/core: Status/Result, Rng, math utilities, the
// piecewise-constant density engine, and PageAllocator.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/math_utils.h"
#include "core/page_allocator.h"
#include "core/piecewise_density.h"
#include "core/rng.h"
#include "core/status.h"
#include "core/stream_digest.h"

namespace capp {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad epsilon");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad epsilon");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad epsilon");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOutOfRange), "OutOfRange");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kInternal), "Internal");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kUnimplemented),
               "Unimplemented");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kFailedPrecondition),
               "FailedPrecondition");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::OK(), Status::OK());
  EXPECT_EQ(Status::Internal("x"), Status::Internal("x"));
  EXPECT_FALSE(Status::Internal("x") == Status::Internal("y"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, ValueOrReturnsValueOnSuccess) {
  Result<double> r = 2.5;
  EXPECT_DOUBLE_EQ(r.value_or(0.0), 2.5);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::vector<int>> r = std::vector<int>{1, 2, 3};
  std::vector<int> v = std::move(r).value();
  EXPECT_EQ(v.size(), 3u);
}

Result<int> Doubler(Result<int> in) {
  CAPP_ASSIGN_OR_RETURN(int v, in);
  return 2 * v;
}

TEST(ResultTest, AssignOrReturnPropagatesError) {
  EXPECT_EQ(Doubler(21).value(), 42);
  EXPECT_FALSE(Doubler(Status::Internal("boom")).ok());
  EXPECT_EQ(Doubler(Status::Internal("boom")).status().code(),
            StatusCode::kInternal);
}

// ------------------------------------------------------------------- Rng --

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.UniformDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(RngTest, UniformDegenerateBoundsReturnLo) {
  Rng rng(1);
  EXPECT_DOUBLE_EQ(rng.Uniform(2.0, 2.0), 2.0);
}

TEST(RngTest, UniformMeanIsCentered) {
  Rng rng(13);
  RunningMoments m;
  for (int i = 0; i < 200000; ++i) m.Add(rng.UniformDouble());
  EXPECT_NEAR(m.Mean(), 0.5, 0.005);
  EXPECT_NEAR(m.VariancePopulation(), 1.0 / 12.0, 0.002);
}

TEST(RngTest, UniformIntIsUnbiasedAcrossBuckets) {
  Rng rng(17);
  std::vector<int> counts(7, 0);
  const int n = 140000;
  for (int i = 0; i < n; ++i) counts[rng.UniformInt(7)]++;
  for (int c : counts) EXPECT_NEAR(c, n / 7, 700);
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(19);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(23);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_FALSE(rng.Bernoulli(-1.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
  EXPECT_TRUE(rng.Bernoulli(2.0));
}

TEST(RngTest, LaplaceMeanZeroVarianceTwoBSquared) {
  Rng rng(29);
  const double scale = 1.5;
  RunningMoments m;
  for (int i = 0; i < 300000; ++i) m.Add(rng.Laplace(scale));
  EXPECT_NEAR(m.Mean(), 0.0, 0.02);
  EXPECT_NEAR(m.VariancePopulation(), 2.0 * scale * scale, 0.1);
}

TEST(RngTest, GaussianMomentsMatch) {
  Rng rng(31);
  RunningMoments m;
  for (int i = 0; i < 300000; ++i) m.Add(rng.Gaussian(2.0, 3.0));
  EXPECT_NEAR(m.Mean(), 2.0, 0.03);
  EXPECT_NEAR(m.VariancePopulation(), 9.0, 0.15);
}

TEST(RngTest, ExponentialMeanIsInverseRate) {
  Rng rng(37);
  RunningMoments m;
  for (int i = 0; i < 200000; ++i) m.Add(rng.Exponential(4.0));
  EXPECT_NEAR(m.Mean(), 0.25, 0.005);
}

TEST(RngTest, ParetoSupportsScale) {
  Rng rng(41);
  for (int i = 0; i < 10000; ++i) EXPECT_GE(rng.Pareto(2.0, 3.0), 2.0);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(43);
  Rng child = parent.Fork();
  // The child stream must differ from the parent's continuation.
  int equal = 0;
  for (int i = 0; i < 50; ++i) {
    if (parent.NextUint64() == child.NextUint64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

// -------------------------------------------------------- stream digest --

TEST(StreamDigestTest, PinnedVectorsAnchorDigestV2) {
  // Known-answer vectors for the v2 (chunk/mum) per-user stream digest.
  // These constants ARE the digest definition: any change to the hash
  // changes every committed baseline digest, which is a deliberate,
  // documented event (see bench/baselines/README.md) -- never a silent
  // side effect of a refactor. The inputs use only exactly-representable
  // doubles, so the expected values are platform-independent.
  const std::vector<double> stream = {0.0, 1.0, 0.5};
  EXPECT_EQ(UserStreamDigest(7, stream), 0x8608827ee98d374bULL);
  EXPECT_EQ(UserStreamDigest(8, stream), 0x8f157ecf7ed31adaULL);
  EXPECT_EQ(UserStreamDigest(0, {}), 0xce3a6be944bbbb61ULL);
  // The length folds into the final mix, so a prefix hashes differently
  // even though the odd-tail lane consumed identical words.
  const std::vector<double> prefix = {0.0, 1.0};
  EXPECT_EQ(UserStreamDigest(7, prefix), 0x93887d613b701fc9ULL);
}

// ------------------------------------------------------------ math utils --

TEST(KahanSumTest, SumsSmallIncrementsAccurately) {
  KahanSum sum;
  for (int i = 0; i < 1000000; ++i) sum.Add(0.1);
  EXPECT_NEAR(sum.Total(), 100000.0, 1e-6);
}

TEST(KahanSumTest, ResetClears) {
  KahanSum sum;
  sum.Add(5.0);
  sum.Reset();
  EXPECT_DOUBLE_EQ(sum.Total(), 0.0);
}

TEST(RunningMomentsTest, MatchesClosedForm) {
  RunningMoments m;
  for (double x : {1.0, 2.0, 3.0, 4.0}) m.Add(x);
  EXPECT_DOUBLE_EQ(m.Mean(), 2.5);
  EXPECT_DOUBLE_EQ(m.VariancePopulation(), 1.25);
  EXPECT_NEAR(m.VarianceSample(), 5.0 / 3.0, 1e-12);
}

TEST(RunningMomentsTest, EmptyIsZero) {
  RunningMoments m;
  EXPECT_DOUBLE_EQ(m.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(m.VariancePopulation(), 0.0);
}

TEST(MathTest, MeanAndVariance) {
  const std::vector<double> xs = {2.0, 4.0, 6.0};
  EXPECT_DOUBLE_EQ(Mean(xs), 4.0);
  EXPECT_NEAR(Variance(xs), 8.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(Mean(std::vector<double>{}), 0.0);
}

TEST(MathTest, ClampWorks) {
  EXPECT_DOUBLE_EQ(Clamp(-1.0, 0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(Clamp(2.0, 0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(Clamp(0.3, 0.0, 1.0), 0.3);
}

TEST(MathTest, LinSpaceEndpointsExact) {
  const auto xs = LinSpace(0.0, 1.0, 11);
  ASSERT_EQ(xs.size(), 11u);
  EXPECT_DOUBLE_EQ(xs.front(), 0.0);
  EXPECT_DOUBLE_EQ(xs.back(), 1.0);
  EXPECT_NEAR(xs[5], 0.5, 1e-12);
}

TEST(MathTest, LinSpaceDegenerate) {
  EXPECT_TRUE(LinSpace(0.0, 1.0, 0).empty());
  EXPECT_EQ(LinSpace(3.0, 9.0, 1), std::vector<double>{3.0});
}

TEST(MathTest, NearlyEqual) {
  EXPECT_TRUE(NearlyEqual(1.0, 1.0 + 1e-12));
  EXPECT_FALSE(NearlyEqual(1.0, 1.001));
  EXPECT_TRUE(NearlyEqual(0.0, 1e-13));
}

TEST(MathTest, PowerIntegral) {
  // int_0^1 y^2 dy = 1/3; int_{-1}^{1} y^3 dy = 0.
  EXPECT_NEAR(PowerIntegral(0.0, 1.0, 2), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(PowerIntegral(-1.0, 1.0, 3), 0.0, 1e-12);
  EXPECT_NEAR(PowerIntegral(1.0, 2.0, 0), 1.0, 1e-12);
}

// -------------------------------------------------- piecewise density ----

PiecewiseConstantDensity UniformDensity(double lo, double hi) {
  auto d = PiecewiseConstantDensity::Create(
      {{lo, hi, 1.0 / (hi - lo)}});
  EXPECT_TRUE(d.ok());
  return std::move(d).value();
}

TEST(PiecewiseDensityTest, RejectsInvalidSegments) {
  EXPECT_FALSE(PiecewiseConstantDensity::Create({}).ok());
  EXPECT_FALSE(PiecewiseConstantDensity::Create({{1.0, 0.0, 1.0}}).ok());
  EXPECT_FALSE(PiecewiseConstantDensity::Create({{0.0, 1.0, -1.0}}).ok());
  // Mass 2, not 1.
  EXPECT_FALSE(PiecewiseConstantDensity::Create({{0.0, 1.0, 2.0}}).ok());
  // Gap between segments.
  EXPECT_FALSE(PiecewiseConstantDensity::Create(
                   {{0.0, 0.4, 1.0}, {0.6, 1.0, 1.5}})
                   .ok());
}

TEST(PiecewiseDensityTest, UniformMoments) {
  const auto d = UniformDensity(0.0, 1.0);
  EXPECT_NEAR(d.Mean(), 0.5, 1e-12);
  EXPECT_NEAR(d.Variance(), 1.0 / 12.0, 1e-12);
  EXPECT_NEAR(d.CentralMoment(4), 1.0 / 80.0, 1e-12);
  EXPECT_NEAR(d.CentralMoment(3), 0.0, 1e-12);
  EXPECT_NEAR(d.CentralMoment(0), 1.0, 1e-12);
  EXPECT_NEAR(d.CentralMoment(1), 0.0, 1e-12);
}

TEST(PiecewiseDensityTest, ShiftedUniformMoments) {
  const auto d = UniformDensity(-2.0, 4.0);
  EXPECT_NEAR(d.Mean(), 1.0, 1e-12);
  EXPECT_NEAR(d.Variance(), 36.0 / 12.0, 1e-12);
}

TEST(PiecewiseDensityTest, CdfAndQuantileRoundTrip) {
  auto d = PiecewiseConstantDensity::Create(
      {{0.0, 0.5, 0.4}, {0.5, 1.0, 1.6}});
  ASSERT_TRUE(d.ok());
  EXPECT_NEAR(d->Cdf(0.5), 0.2, 1e-12);
  EXPECT_NEAR(d->Cdf(1.0), 1.0, 1e-12);
  EXPECT_NEAR(d->Cdf(-1.0), 0.0, 1e-12);
  for (double p : {0.05, 0.2, 0.5, 0.9, 0.99}) {
    EXPECT_NEAR(d->Cdf(d->Quantile(p)), p, 1e-9) << "p=" << p;
  }
}

TEST(PiecewiseDensityTest, DensityAtEvaluates) {
  auto d = PiecewiseConstantDensity::Create(
      {{0.0, 0.5, 0.4}, {0.5, 1.0, 1.6}});
  ASSERT_TRUE(d.ok());
  EXPECT_DOUBLE_EQ(d->DensityAt(0.25), 0.4);
  EXPECT_DOUBLE_EQ(d->DensityAt(0.75), 1.6);
  EXPECT_DOUBLE_EQ(d->DensityAt(-0.1), 0.0);
  EXPECT_DOUBLE_EQ(d->DensityAt(1.1), 0.0);
}

TEST(PiecewiseDensityTest, SamplingMatchesMoments) {
  auto d = PiecewiseConstantDensity::Create(
      {{-1.0, 0.0, 0.2}, {0.0, 1.0, 0.8}});
  ASSERT_TRUE(d.ok());
  Rng rng(47);
  RunningMoments m;
  for (int i = 0; i < 400000; ++i) m.Add(d->Sample(rng));
  EXPECT_NEAR(m.Mean(), d->Mean(), 0.005);
  EXPECT_NEAR(m.VariancePopulation(), d->Variance(), 0.01);
}

TEST(PiecewiseDensityTest, SamplesStayInSupport) {
  auto d = PiecewiseConstantDensity::Create(
      {{-0.3, 0.7, 0.6}, {0.7, 1.3, 2.0 / 3.0}});
  ASSERT_TRUE(d.ok());
  Rng rng(53);
  for (int i = 0; i < 20000; ++i) {
    const double y = d->Sample(rng);
    EXPECT_GE(y, -0.3);
    EXPECT_LE(y, 1.3);
  }
}

TEST(PiecewiseDensityTest, ZeroWidthSegmentsDropped) {
  auto d = PiecewiseConstantDensity::Create(
      {{0.0, 0.0, 5.0}, {0.0, 1.0, 1.0}});
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->segments().size(), 1u);
}

// Parameterized: moments of uniform densities over varying supports.
class UniformDensityMomentsTest
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(UniformDensityMomentsTest, VarianceIsWidthSquaredOverTwelve) {
  const auto [lo, hi] = GetParam();
  const auto d = UniformDensity(lo, hi);
  const double width = hi - lo;
  EXPECT_NEAR(d.Mean(), (lo + hi) / 2.0, 1e-10);
  EXPECT_NEAR(d.Variance(), width * width / 12.0, 1e-10);
  // Kurtosis of a uniform distribution is 9/5.
  EXPECT_NEAR(d.CentralMoment(4) / (d.Variance() * d.Variance()), 1.8,
              1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Supports, UniformDensityMomentsTest,
    ::testing::Values(std::pair{0.0, 1.0}, std::pair{-1.0, 1.0},
                      std::pair{-0.5, 1.5}, std::pair{2.0, 10.0},
                      std::pair{-7.0, -3.0}));

// --------------------------------------------------------- PageAllocator --

// The path column of the /proc/self/maps line whose range holds `p`
// ("" for an anonymous mapping, "[heap]" for the brk heap), or nullopt
// when no mapping holds it.
std::optional<std::string> MappingOf(const void* p) {
  const auto address = reinterpret_cast<uintptr_t>(p);
  std::ifstream maps("/proc/self/maps");
  std::string line;
  while (std::getline(maps, line)) {
    unsigned long begin = 0;
    unsigned long end = 0;
    int path_at = 0;
    if (std::sscanf(line.c_str(), "%lx-%lx %*s %*s %*s %*s %n", &begin, &end,
                    &path_at) < 2) {
      continue;
    }
    if (address >= begin && address < end) {
      return path_at > 0 ? line.substr(static_cast<size_t>(path_at)) : "";
    }
  }
  return std::nullopt;
}

TEST(PageAllocatorTest, LargeBlocksAreMappedUntilFreed) {
  // Freeing an 8 MiB block raises glibc's mmap threshold to 8 MiB, after
  // which a plain 1 MiB block would come from the brk heap.
  { const std::vector<char> raise(size_t{8} << 20); }
  const void* block = nullptr;
  {
    PageVector<uint64_t> large((size_t{1} << 20) / sizeof(uint64_t));
    block = large.data();
    EXPECT_EQ(reinterpret_cast<uintptr_t>(block) % 4096, 0u);
    EXPECT_EQ(MappingOf(block), std::optional<std::string>(""));
  }
  EXPECT_EQ(MappingOf(block), std::nullopt);
}

TEST(PageAllocatorTest, SmallBlocksStayWithOperatorNew) {
  const PageVector<uint64_t> small(16);
  const std::vector<uint64_t> reference(16);
  EXPECT_EQ(MappingOf(small.data()), MappingOf(reference.data()));
}

TEST(PageAllocatorTest, GrowthAcrossTheThresholdKeepsValues) {
  const size_t n = 3 * kPageAllocatorMinBytes / sizeof(uint32_t);
  PageVector<uint32_t> grown;
  for (size_t i = 0; i < n; ++i) grown.push_back(static_cast<uint32_t>(i));
  PageVector<uint32_t> other(5, 7);
  std::swap(grown, other);
  ASSERT_EQ(other.size(), n);
  ASSERT_EQ(grown.size(), 5u);
  for (size_t i = 0; i < n; ++i) ASSERT_EQ(other[i], i);
  const std::vector<uint32_t> copy(other.begin(), other.end());
  EXPECT_EQ(copy.back(), n - 1);
}

}  // namespace
}  // namespace capp
