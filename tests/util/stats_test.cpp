#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/rng.hpp"

namespace liquid {
namespace {

TEST(StatsTest, SummaryBasics) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  const Summary s = Summarize(std::span<const double>(v));
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_NEAR(s.stddev, std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(StatsTest, SummaryEmpty) {
  const Summary s = Summarize(std::span<const double>{});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(StatsTest, PercentileInterpolates) {
  const std::vector<double> v{10.0, 20.0, 30.0, 40.0, 50.0};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 10.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 30.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 50.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 25), 20.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 12.5), 15.0);
}

TEST(StatsTest, PercentileMatchesSortOracle) {
  // Oracle: full sort, then interpolate between the bracketing ranks.
  const auto oracle = [](std::vector<double> v, double p) {
    std::sort(v.begin(), v.end());
    const double rank = (p / 100.0) * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return v[lo] * (1.0 - frac) + v[hi] * frac;
  };
  Rng rng(7);
  for (std::size_t n = 1; n <= 64; ++n) {
    std::vector<double> v(n);
    // Few distinct levels, so most inputs carry duplicates.
    for (double& x : v) {
      x = 0.25 * static_cast<double>(rng.Below(n / 3 + 1)) - 1.0;
    }
    for (const double p : {0.0, 1.0, 50.0, 99.0, 99.9, 100.0}) {
      EXPECT_EQ(Percentile(v, p), oracle(v, p)) << "n=" << n << " p=" << p;
      std::vector<double> sorted = v;
      std::sort(sorted.begin(), sorted.end());
      EXPECT_EQ(PercentileOfSorted(sorted, p), oracle(v, p))
          << "n=" << n << " p=" << p;
    }
  }
}

TEST(StatsTest, MseAndSqnr) {
  const std::vector<float> ref{1.0f, -1.0f, 1.0f, -1.0f};
  const std::vector<float> rec{1.1f, -0.9f, 1.1f, -0.9f};
  EXPECT_NEAR(MeanSquaredError(ref, rec), 0.01, 1e-6);
  // Signal power 1, noise 0.01 -> 20 dB.
  EXPECT_NEAR(SignalToQuantNoiseDb(ref, rec), 20.0, 1e-3);
  EXPECT_NEAR(MaxAbsError(ref, rec), 0.1, 1e-6);
}

TEST(StatsTest, PerfectReconstructionIsInfiniteSqnr) {
  const std::vector<float> ref{1.0f, 2.0f};
  EXPECT_TRUE(std::isinf(SignalToQuantNoiseDb(ref, ref)));
  EXPECT_DOUBLE_EQ(RelativeFrobeniusError(ref, ref), 0.0);
}

TEST(StatsTest, RelativeFrobenius) {
  const std::vector<float> ref{3.0f, 4.0f};  // norm 5
  const std::vector<float> rec{3.0f, 3.0f};  // error norm 1
  EXPECT_NEAR(RelativeFrobeniusError(ref, rec), 0.2, 1e-6);
}

TEST(StatsTest, GeometricMean) {
  const std::vector<double> v{1.0, 4.0};
  EXPECT_NEAR(GeometricMean(v), 2.0, 1e-12);
  const std::vector<double> ones{1.0, 1.0, 1.0};
  EXPECT_NEAR(GeometricMean(ones), 1.0, 1e-12);
}

}  // namespace
}  // namespace liquid
