#include "core/quant/first_level.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "util/stats.hpp"

namespace liquid {
namespace {

MatrixF RandomWeights(std::size_t n, std::size_t k, std::uint64_t seed,
                      double outlier_frac = 0.0) {
  Rng rng(seed);
  MatrixF w(n, k);
  auto vals = outlier_frac > 0 ? rng.OutlierTensor(n * k, 0.05, outlier_frac, 15.0)
                               : rng.GaussianTensor(n * k, 0.05);
  for (std::size_t i = 0; i < w.size(); ++i) w.Flat()[i] = vals[i];
  return w;
}

TEST(FirstLevelTest, ProtectiveRangeIsEnforced) {
  const MatrixF w = RandomWeights(16, 256, 1, 0.02);
  const FirstLevelResult q = QuantizeFirstLevel(w);
  for (const std::int8_t v : q.q.Flat()) {
    EXPECT_GE(v, -kProtectiveMax);
    EXPECT_LE(v, kProtectiveMax);
  }
}

TEST(FirstLevelTest, FullRangeWhenUnprotected) {
  MatrixF w(1, 4);
  w.At(0, 0) = 1.0f;
  w.At(0, 1) = -1.0f;
  w.At(0, 2) = 0.5f;
  w.At(0, 3) = 0.0f;
  FirstLevelOptions opt;
  opt.protective_range = false;
  const FirstLevelResult q = QuantizeFirstLevel(w, opt);
  EXPECT_EQ(q.q.At(0, 0), 127);
  EXPECT_EQ(q.q.At(0, 1), -127);
}

TEST(FirstLevelTest, MaxAbsElementHitsBound) {
  const MatrixF w = RandomWeights(8, 128, 2);
  const FirstLevelResult q = QuantizeFirstLevel(w);
  for (std::size_t n = 0; n < w.rows(); ++n) {
    int absmax = 0;
    for (const std::int8_t v : q.q.Row(n)) {
      absmax = std::max<int>(absmax, std::abs(static_cast<int>(v)));
    }
    EXPECT_EQ(absmax, kProtectiveMax) << "row " << n;
  }
}

TEST(FirstLevelTest, ReconstructionErrorWithinHalfStep) {
  const MatrixF w = RandomWeights(8, 128, 3);
  const FirstLevelResult q = QuantizeFirstLevel(w);
  const MatrixF rec = DequantizeFirstLevel(q);
  for (std::size_t n = 0; n < w.rows(); ++n) {
    const float half_step = q.channel_scale[n] * 0.5f * 1.0001f;
    for (std::size_t k = 0; k < w.cols(); ++k) {
      EXPECT_LE(std::fabs(rec.At(n, k) - w.At(n, k)), half_step);
    }
  }
}

TEST(FirstLevelTest, ZeroRowHasUnitScale) {
  MatrixF w(2, 8);  // all zeros
  const FirstLevelResult q = QuantizeFirstLevel(w);
  EXPECT_EQ(q.channel_scale[0], 1.0f);
  for (const std::int8_t v : q.q.Flat()) EXPECT_EQ(v, 0);
}

TEST(FirstLevelTest, SmoothingPreservesProduct) {
  // X * W^T must be unchanged by (X / s) * (W * s)^T.
  Rng rng(4);
  MatrixF x(4, 64);
  for (auto& v : x.Flat()) v = static_cast<float>(rng.Normal(0, 1));
  MatrixF w = RandomWeights(8, 64, 5);
  const auto smooth = ComputeSmoothScale(x, w, 0.5);

  // Direct dot product check on a few entries.
  MatrixF xs = x;
  MatrixF ws = w;
  SmoothActivations(xs, smooth);
  SmoothWeights(ws, smooth);
  for (std::size_t m = 0; m < 4; ++m) {
    for (std::size_t n = 0; n < 8; ++n) {
      double before = 0;
      double after = 0;
      for (std::size_t k = 0; k < 64; ++k) {
        before += static_cast<double>(x.At(m, k)) * w.At(n, k);
        after += static_cast<double>(xs.At(m, k)) * ws.At(n, k);
      }
      EXPECT_NEAR(after, before, 1e-3 * (std::fabs(before) + 1.0));
    }
  }
}

TEST(FirstLevelTest, SmoothingReducesActivationOutlierImpact) {
  // With activation outliers in a few columns, smoothing shifts difficulty
  // into the weights: post-smoothing activation absmax per column shrinks.
  Rng rng(6);
  MatrixF x(16, 64);
  for (auto& v : x.Flat()) v = static_cast<float>(rng.Normal(0, 1));
  for (std::size_t m = 0; m < 16; ++m) x.At(m, 7) *= 50.0f;  // outlier channel
  MatrixF w = RandomWeights(8, 64, 7);
  const auto smooth = ComputeSmoothScale(x, w, 0.5);
  EXPECT_GT(smooth[7], smooth[3]);
}

TEST(FirstLevelTest, AlphaSearchReturnsCandidate) {
  Rng rng(8);
  MatrixF x(8, 64);
  for (auto& v : x.Flat()) v = static_cast<float>(rng.Normal(0, 1));
  const MatrixF w = RandomWeights(8, 64, 9);
  const std::vector<double> grid{0.3, 0.5, 0.7};
  const double alpha = SearchSmoothAlpha(x, w, 64, grid);
  EXPECT_TRUE(alpha == 0.3 || alpha == 0.5 || alpha == 0.7);
}

TEST(ActivationQuantTest, PerTokenRoundTrip) {
  Rng rng(10);
  MatrixF x(8, 128);
  for (auto& v : x.Flat()) v = static_cast<float>(rng.Normal(0, 3));
  const QuantizedActivations q = QuantizeActivationsPerToken(x);
  const MatrixF rec = DequantizeActivations(q);
  for (std::size_t m = 0; m < x.rows(); ++m) {
    const float half_step = q.token_scale[m] * 0.5f * 1.0001f;
    for (std::size_t k = 0; k < x.cols(); ++k) {
      EXPECT_LE(std::fabs(rec.At(m, k) - x.At(m, k)), half_step);
    }
  }
}

TEST(ActivationQuantTest, ScalesArePerToken) {
  MatrixF x(2, 4);
  x.At(0, 0) = 127.0f;   // row 0 absmax 127 -> scale 1
  x.At(1, 0) = 254.0f;   // row 1 absmax 254 -> scale 2
  const QuantizedActivations q = QuantizeActivationsPerToken(x);
  EXPECT_FLOAT_EQ(q.token_scale[0], 1.0f);
  EXPECT_FLOAT_EQ(q.token_scale[1], 2.0f);
  EXPECT_EQ(q.q.At(0, 0), 127);
  EXPECT_EQ(q.q.At(1, 0), 127);
}

// --- Quantizer edge cases against a scalar oracle --------------------------
// QuantizeActivationsPerToken runs 16 floats per vector step, so a row of K
// elements has K / 16 * 16 in the vector body and the rest in the scalar
// tail; the K sweeps below put every probe value in both.

constexpr float kDenormMin = std::numeric_limits<float>::denorm_min();

/// The definition: scale = absmax / 127 (unit for a zero row), then
/// clamp(nearbyint(x / scale), -127, 127) with round half to even.
float OracleScale(std::span<const float> row) {
  float absmax = 0.0f;
  for (const float v : row) absmax = std::max(absmax, std::fabs(v));
  return absmax > 0.0f ? std::max(absmax / 127.0f, kDenormMin) : 1.0f;
}

std::int8_t OracleQuant(float x, float scale) {
  const float r = std::nearbyint(x / scale);
  return static_cast<std::int8_t>(std::clamp(r, -127.0f, 127.0f));
}

void ExpectMatchesOracle(const MatrixF& x, const std::string& what) {
  const QuantizedActivations q = QuantizeActivationsPerToken(x);
  for (std::size_t m = 0; m < x.rows(); ++m) {
    const float scale = OracleScale(x.Row(m));
    ASSERT_EQ(q.token_scale[m], scale) << what << " row " << m;
    for (std::size_t k = 0; k < x.cols(); ++k) {
      ASSERT_EQ(q.q.At(m, k), OracleQuant(x.At(m, k), scale))
          << what << " row " << m << " k " << k << " x " << x.At(m, k);
    }
  }
}

// Ties, near-ties, signed zero and subnormals; 127 fixes the scale at 1.
const std::vector<float> kUnitScaleProbes = {
    127.0f, 0.5f,   -0.5f,      1.5f,        -1.5f,  2.5f,   -2.5f,
    126.5f, -126.5f, 126.49f,   -0.0f,       0.0f,   kDenormMin,
    -kDenormMin, std::numeric_limits<float>::min() / 2,   -127.0f,
    0.49999997f, -0.49999997f, 3.5f, -3.5f, 64.5f, -64.5f, 1e-30f};

TEST(ActivationQuantTest, UnitScaleRoundsHalfToEven) {
  MatrixF x(1, kUnitScaleProbes.size());
  std::copy(kUnitScaleProbes.begin(), kUnitScaleProbes.end(),
            x.Row(0).begin());
  const QuantizedActivations q = QuantizeActivationsPerToken(x);
  EXPECT_EQ(q.token_scale[0], 1.0f);
  const std::vector<int> expected = {127, 0,   0,   2,  -2,  2,   -2, 126,
                                     -126, 126, 0,  0,  0,   0,   0,  -127,
                                     0,   0,   4,   -4, 64,  -64, 0};
  ASSERT_EQ(expected.size(), kUnitScaleProbes.size());
  for (std::size_t k = 0; k < expected.size(); ++k) {
    EXPECT_EQ(q.q.At(0, k), expected[k]) << "x=" << kUnitScaleProbes[k];
  }
  ExpectMatchesOracle(x, "unit-scale probes");
}

TEST(ActivationQuantTest, MatchesOracleOnEdgeRowsForEveryTailLength) {
  // Row 0 cycles the unit-scale probes; rows 1 and 2 put +-127.5 / +-127.49
  // at the absmax, so quotients sit at the clamp bound; row 3 is all zero;
  // row 4 is random.
  const std::vector<float> near_bound = {127.5f, -127.49f, 127.49f, -127.5f,
                                         0.5f,   63.75f,   -63.75f, 1.0f};
  for (std::size_t k = 1; k <= 49; ++k) {
    MatrixF x(5, k);
    Rng rng(1000 + k);
    for (std::size_t kk = 0; kk < k; ++kk) {
      x.At(0, kk) = kUnitScaleProbes[kk % kUnitScaleProbes.size()];
      x.At(1, kk) = near_bound[kk % near_bound.size()];
      x.At(2, kk) = -near_bound[(kk + 3) % near_bound.size()];
      x.At(4, kk) = static_cast<float>(rng.Normal(0, 2));
    }
    ExpectMatchesOracle(x, "K=" + std::to_string(k));
  }
}

TEST(ActivationQuantTest, AllZeroRowHasUnitScale) {
  for (const std::size_t k : {7u, 16u, 37u}) {
    MatrixF x(2, k);
    x.At(1, 0) = -0.0f;
    const QuantizedActivations q = QuantizeActivationsPerToken(x);
    for (std::size_t m = 0; m < 2; ++m) {
      EXPECT_EQ(q.token_scale[m], 1.0f);
      for (const std::int8_t v : q.q.Row(m)) EXPECT_EQ(v, 0);
    }
  }
}

TEST(ActivationQuantTest, SubnormalRowKeepsAFiniteScale) {
  // absmax / 127 underflows to zero here; the scale floors at denorm_min.
  MatrixF x(1, 20);
  for (std::size_t k = 0; k < x.cols(); ++k) {
    x.At(0, k) = k % 3 == 0 ? 0.0f : (k % 2 ? kDenormMin : -kDenormMin);
  }
  const QuantizedActivations q = QuantizeActivationsPerToken(x);
  EXPECT_EQ(q.token_scale[0], kDenormMin);
  ExpectMatchesOracle(x, "subnormal row");
}

TEST(ActivationQuantTest, NonFiniteActivationThrowsNamingTheRow) {
  const float bad[] = {std::numeric_limits<float>::quiet_NaN(),
                       std::numeric_limits<float>::infinity(),
                       -std::numeric_limits<float>::infinity()};
  // Column 5 is in the vector body, column 35 in the tail of K=37.
  for (const float v : bad) {
    for (const std::size_t col : {5u, 35u}) {
      MatrixF x(3, 37);
      for (auto& e : x.Flat()) e = 1.0f;
      x.At(2, col) = v;
      try {
        (void)QuantizeActivationsPerToken(x);
        ADD_FAILURE() << "no throw for x=" << v << " at column " << col;
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("row 2"), std::string::npos)
            << e.what();
      }
    }
  }
}

}  // namespace
}  // namespace liquid
