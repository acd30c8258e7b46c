// Provider-parity suite: every available GEMM provider x every kernel on
// ragged M/N/K shapes, including K not a multiple of the 32-byte SIMD width
// (exercises the vector tails) and group sizes that leave ragged register
// groups (exercises the scalar tail of the fused LUT dequant).
//
// Integer kernels (W8A8, W4A8 LQQ/QServe/DualMma) must match the reference
// provider bit-for-bit: INT32 accumulation is associative and the float
// epilogue expression is identical across providers.  Float kernels (fp32,
// fp16, W4A16) differ only by accumulation order, so they are held to a tight
// relative-Frobenius tolerance.
//
// The AVX2 provider's W4A8 row kernel has two builds (vpdpbusd and an
// int16-widening dot) chosen from CPUID; W4A8DotParity runs each one through
// the detail::Avx2KernelsWith seam, so both are checked on a host that can
// run them regardless of which one the provider picks.

#include "core/gemm/gemm.hpp"

#include <gtest/gtest.h>

#include <array>
#include <stdexcept>
#include <string>

#include "core/gemm/kernels.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/swar.hpp"

namespace liquid {
namespace {

// Accumulation-order-only differences on K <= 512 Gaussian dots.
constexpr double kTolReorderFp32 = 1e-5;
constexpr double kTolReorderFp16 = 1e-4;

struct Problem {
  MatrixF x;
  MatrixF w;
  QuantizedActivations xq;
};

Problem MakeProblem(std::size_t m, std::size_t n, std::size_t k,
                    std::uint64_t seed) {
  Rng rng(seed);
  Problem p{MatrixF(m, k), MatrixF(n, k), {}};
  for (auto& v : p.x.Flat()) v = static_cast<float>(rng.Normal(0, 1.0));
  for (auto& v : p.w.Flat()) v = static_cast<float>(rng.Normal(0, 0.05));
  p.xq = QuantizeActivationsPerToken(p.x);
  return p;
}

/// Restores the process-wide provider override on scope exit.
class ProviderGuard {
 public:
  ProviderGuard() = default;
  ~ProviderGuard() { SetGemmProvider(GemmProvider::kAuto); }
};

void ExpectBitIdentical(const MatrixF& ref, const MatrixF& got,
                        const std::string& who, const char* kernel) {
  ASSERT_EQ(ref.rows(), got.rows());
  ASSERT_EQ(ref.cols(), got.cols());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(ref.Flat()[i], got.Flat()[i])
        << kernel << " " << who << " flat index " << i;
  }
}

void ExpectBitIdentical(const MatrixF& ref, const MatrixF& got,
                        GemmProvider p, const char* kernel) {
  ExpectBitIdentical(ref, got, std::string("provider=") + GemmProviderName(p),
                     kernel);
}

// W4A8 parity shapes, shared by the provider and dot-variant sweeps.  M=5
// and M=9 leave one token past a 4-token block; small groups leave ragged
// register groups (scalar tail of the fused LUT dequant).
struct W4A8Shape {
  std::size_t m, n, k, group;
};

constexpr W4A8Shape kLqqShapes[] = {
    {1, 5, 40, 8},     // 5 registers: below the 8-register vector chunk
    {3, 33, 72, 8},    // 9 registers per group boundary: vector + tail
    {16, 7, 96, 16},   //
    {4, 12, 128, 64},  // paper-default group, one vector chunk per group
    {2, 3, 320, 64},   // several chunks per row
    {5, 17, 256, 64},  // token-block edge: 4 + 1
    {9, 10, 192, 64},  // token-block edge: 4 + 4 + 1
};

constexpr W4A8Shape kQserveShapes[] = {
    {1, 5, 40, 8},
    {3, 33, 72, 24},    // 3 registers per group: pure scalar-tail groups
    {16, 7, 96, 16},
    {4, 12, 256, 128},  // QServe-default group
    {5, 9, 256, 128},   // token-block edge: 4 + 1
    {9, 6, 384, 128},   // token-block edge: 4 + 4 + 1
};

constexpr W4A8Shape kDualMmaShapes[] = {
    {3, 64, 128, 64},
    {1, 128, 64, 64},
    {8, 128, 256, 64},
    {9, 64, 192, 64},  // token-block edge: 4 + 4 + 1
};

// Saturation adversaries.  One token is +127 everywhere and one is -127
// everywhere.  Row 0 dequantizes to w = 127 (UINT8 u = w + 128 = 255), row 1
// to w = -128 (u = 0), row 2 alternates u = 255 and u = 15.  A u8*s8 pair sum
// reaches 2*255*127 = 64770, past int16, so a maddubs dot saturates; the
// exact INT32 sums (row 0: +-127*127*K) are what the reference computes.  At
// K=66560 the biased sum(u*a) = 255*127*K passes INT32_MAX even though
// sum(w*a) fits, so the 128*sum(a) correction must wrap, not overflow.
constexpr std::size_t kAdversaryKs[] = {4096, 66560};

QuantizedActivations AdversaryTokens(std::size_t k) {
  QuantizedActivations x;
  x.q = MatrixI8(2, k);
  for (std::size_t kk = 0; kk < k; ++kk) {
    x.q.At(0, kk) = 127;
    x.q.At(1, kk) = -127;
  }
  x.token_scale = {0.5f, 0.25f};
  return x;
}

std::uint32_t AdversaryRegister(std::size_t row) {
  constexpr std::array<std::uint8_t, 8> kAllMax{15, 15, 15, 15,
                                                15, 15, 15, 15};
  constexpr std::array<std::uint8_t, 8> kAlternate{15, 0, 15, 0,
                                                   15, 0, 15, 0};
  if (row == 0) return PackNibblesInterleaved(kAllMax);
  if (row == 1) return 0;
  return PackNibblesInterleaved(kAlternate);
}

template <typename Weights>
void FillAdversaryRegisters(Weights& w, std::size_t k) {
  w.n = 3;
  w.k = k;
  w.group_size = 64;
  w.packed.Resize(w.n * w.k / 8);
  for (std::size_t row = 0; row < w.n; ++row) {
    for (std::size_t r = 0; r < w.k / 8; ++r) {
      w.packed[row * (w.k / 8) + r] = AdversaryRegister(row);
    }
  }
  w.channel_scale = {1.0f, 0.5f, 2.0f};
}

LqqWeights AdversaryLqq(std::size_t k) {
  LqqWeights w;
  FillAdversaryRegisters(w, k);
  // u = q*s + a: code 15 -> 16*15 + 15 = 255, code 0 with s=1, a=0 -> 0.
  const LqqGroupParams by_row[3] = {{16, 15}, {1, 0}, {16, 15}};
  for (std::size_t row = 0; row < w.n; ++row) {
    w.group_params.insert(w.group_params.end(), w.GroupsPerRow(),
                          by_row[row]);
  }
  return w;
}

QserveWeights AdversaryQserve(std::size_t k) {
  QserveWeights w;
  FillAdversaryRegisters(w, k);
  // w = q*s - s*z: 15*16 - 113 = 127; 0*1 - 128 = -128.  Only `zero_scaled`
  // enters the dequant, so `zero` is left at 0.
  const QserveGroupParams by_row[3] = {{16, 0, 113}, {1, 0, 128},
                                       {16, 0, 113}};
  for (std::size_t row = 0; row < w.n; ++row) {
    w.group_params.insert(w.group_params.end(), w.GroupsPerRow(),
                          by_row[row]);
  }
  return w;
}

TEST(GemmProviderTest, NamesRoundTrip) {
  for (GemmProvider p : {GemmProvider::kAuto, GemmProvider::kReference,
                         GemmProvider::kPortable, GemmProvider::kAvx2}) {
    GemmProvider parsed = GemmProvider::kAuto;
    EXPECT_TRUE(ParseGemmProvider(GemmProviderName(p), &parsed));
    EXPECT_EQ(parsed, p);
  }
  GemmProvider parsed = GemmProvider::kAuto;
  EXPECT_TRUE(ParseGemmProvider("AVX2", &parsed));  // case-insensitive
  EXPECT_EQ(parsed, GemmProvider::kAvx2);
  EXPECT_FALSE(ParseGemmProvider("bogus", &parsed));
}

TEST(GemmProviderTest, ReferenceAndPortableAlwaysAvailable) {
  EXPECT_TRUE(GemmProviderAvailable(GemmProvider::kReference));
  EXPECT_TRUE(GemmProviderAvailable(GemmProvider::kPortable));
  const auto providers = AvailableGemmProviders();
  EXPECT_GE(providers.size(), 2u);
  // The active provider must itself be available (never kAuto).
  EXPECT_NE(ActiveGemmProvider(), GemmProvider::kAuto);
  EXPECT_TRUE(GemmProviderAvailable(ActiveGemmProvider()));
}

TEST(GemmProviderTest, UnavailableProviderThrows) {
  if (GemmProviderAvailable(GemmProvider::kAvx2)) {
    GTEST_SKIP() << "AVX2 available here; nothing is unavailable to test";
  }
  const Problem p = MakeProblem(2, 4, 64, 1);
  const auto wq = QuantizeWeightsW8A8(p.w);
  EXPECT_THROW(GemmW8A8(p.xq, wq, GemmProvider::kAvx2), std::invalid_argument);
  EXPECT_THROW(SetGemmProvider(GemmProvider::kAvx2), std::invalid_argument);
}

TEST(GemmProviderTest, ForcedFallbackMatchesReference) {
  // Simulates LIQUID_GEMM_PROVIDER=portable: the default-argument call path
  // must route through the portable provider and stay bit-identical on the
  // integer kernels.
  const Problem p = MakeProblem(5, 33, 192, 2);
  const LqqWeights wq = QuantizeWeightsLqq(p.w);
  const MatrixF ref = GemmW4A8Liquid(p.xq, wq, GemmProvider::kReference);
  ProviderGuard guard;
  SetGemmProvider(GemmProvider::kPortable);
  EXPECT_EQ(ActiveGemmProvider(), GemmProvider::kPortable);
  const MatrixF got = GemmW4A8Liquid(p.xq, wq);  // default = active provider
  ExpectBitIdentical(ref, got, GemmProvider::kPortable, "W4A8Liquid");
}

// ---------------------------------------------------------------------------
// Parity sweeps: one fixture instantiated per available provider.
// ---------------------------------------------------------------------------

class ProviderParity : public ::testing::TestWithParam<GemmProvider> {};

TEST_P(ProviderParity, W8A8ExactOnRaggedShapes) {
  const GemmProvider provider = GetParam();
  const struct { std::size_t m, n, k; } shapes[] = {
      {1, 7, 37},    // K < one SIMD chunk, scalar tail only
      {3, 5, 64},    //
      {16, 33, 70},  // K and N both ragged vs the 32/4-wide blocks
      {2, 4, 33},    // K one past a chunk boundary
  };
  for (const auto& s : shapes) {
    const Problem p = MakeProblem(s.m, s.n, s.k, 10 + s.k);
    const auto wq = QuantizeWeightsW8A8(p.w);
    const MatrixF ref = GemmW8A8(p.xq, wq, GemmProvider::kReference);
    const MatrixF got = GemmW8A8(p.xq, wq, provider);
    ExpectBitIdentical(ref, got, provider, "W8A8");
  }
}

TEST_P(ProviderParity, W4A8LiquidExactOnRaggedShapes) {
  const GemmProvider provider = GetParam();
  for (const W4A8Shape& s : kLqqShapes) {
    const Problem p = MakeProblem(s.m, s.n, s.k, 20 + s.k + s.group);
    const LqqWeights wq = QuantizeWeightsLqq(p.w, {s.group});
    const MatrixF ref = GemmW4A8Liquid(p.xq, wq, GemmProvider::kReference);
    const MatrixF got = GemmW4A8Liquid(p.xq, wq, provider);
    ExpectBitIdentical(ref, got, provider, "W4A8Liquid");
  }
}

TEST_P(ProviderParity, W4A8QserveExactOnRaggedShapes) {
  const GemmProvider provider = GetParam();
  for (const W4A8Shape& s : kQserveShapes) {
    const Problem p = MakeProblem(s.m, s.n, s.k, 30 + s.k + s.group);
    const QserveWeights wq = QuantizeWeightsQserve(p.w, {s.group});
    const MatrixF ref = GemmW4A8Qserve(p.xq, wq, GemmProvider::kReference);
    const MatrixF got = GemmW4A8Qserve(p.xq, wq, provider);
    ExpectBitIdentical(ref, got, provider, "W4A8Qserve");
  }
}

TEST_P(ProviderParity, W4A8DualMmaExactAndMatchesLinearPath) {
  const GemmProvider provider = GetParam();
  for (const W4A8Shape& s : kDualMmaShapes) {
    const Problem p = MakeProblem(s.m, s.n, s.k, 40 + s.n + s.k);
    const LqqWeights wq = QuantizeWeightsLqq(p.w);
    const DualMmaPackedWeights packed = PackDualMma(wq);
    const MatrixF ref =
        GemmW4A8LiquidDualMma(p.xq, packed, GemmProvider::kReference);
    const MatrixF got = GemmW4A8LiquidDualMma(p.xq, packed, provider);
    ExpectBitIdentical(ref, got, provider, "W4A8DualMma");
    // The layout proof must hold per provider too: supertile order computes
    // the same GEMM as linear register order.
    const MatrixF linear = GemmW4A8Liquid(p.xq, wq, provider);
    ExpectBitIdentical(linear, got, provider, "W4A8DualMma-vs-linear");
  }
}

TEST_P(ProviderParity, W4A8SaturationAdversaryExact) {
  const GemmProvider provider = GetParam();
  for (const std::size_t k : kAdversaryKs) {
    const QuantizedActivations x = AdversaryTokens(k);
    const LqqWeights lqq = AdversaryLqq(k);
    const MatrixF ref = GemmW4A8Liquid(x, lqq, GemmProvider::kReference);
    // The adversary reaches the sums it claims: row 0 is w = 127 throughout.
    const std::int32_t row0 = 127 * 127 * static_cast<std::int32_t>(k);
    EXPECT_EQ(ref.At(0, 0), static_cast<float>(row0) * 0.5f * 1.0f);
    EXPECT_EQ(ref.At(1, 0), static_cast<float>(-row0) * 0.25f * 1.0f);
    ExpectBitIdentical(ref, GemmW4A8Liquid(x, lqq, provider), provider,
                       "W4A8Liquid-adversary");
    const QserveWeights qserve = AdversaryQserve(k);
    ExpectBitIdentical(GemmW4A8Qserve(x, qserve, GemmProvider::kReference),
                       GemmW4A8Qserve(x, qserve, provider), provider,
                       "W4A8Qserve-adversary");
  }
}

TEST_P(ProviderParity, Fp32WithinReorderTolerance) {
  const GemmProvider provider = GetParam();
  const struct { std::size_t m, n, k; } shapes[] = {
      {1, 3, 17}, {5, 9, 130}, {16, 33, 512},
  };
  for (const auto& s : shapes) {
    const Problem p = MakeProblem(s.m, s.n, s.k, 50 + s.k);
    const MatrixF ref = GemmReference(p.x, p.w, GemmProvider::kReference);
    const MatrixF got = GemmReference(p.x, p.w, provider);
    EXPECT_LT(RelativeFrobeniusError(ref.Flat(), got.Flat()), kTolReorderFp32)
        << "provider=" << GemmProviderName(provider) << " k=" << s.k;
  }
}

TEST_P(ProviderParity, Fp16WithinReorderTolerance) {
  const GemmProvider provider = GetParam();
  const Problem p = MakeProblem(6, 19, 190, 60);
  const MatrixF ref = GemmFp16(p.x, p.w, GemmProvider::kReference);
  const MatrixF got = GemmFp16(p.x, p.w, provider);
  EXPECT_LT(RelativeFrobeniusError(ref.Flat(), got.Flat()), kTolReorderFp16)
      << "provider=" << GemmProviderName(provider);
}

TEST_P(ProviderParity, W4A16WithinReorderTolerance) {
  const GemmProvider provider = GetParam();
  const struct { std::size_t m, n, k, group; } shapes[] = {
      {3, 5, 36, 6},     // ragged K, tiny group
      {8, 17, 256, 128},
  };
  for (const auto& s : shapes) {
    const Problem p = MakeProblem(s.m, s.n, s.k, 70 + s.k);
    const W4A16Weights wq = QuantizeWeightsW4A16(p.w, s.group);
    const MatrixF ref = GemmW4A16(p.x, wq, GemmProvider::kReference);
    const MatrixF got = GemmW4A16(p.x, wq, provider);
    EXPECT_LT(RelativeFrobeniusError(ref.Flat(), got.Flat()), kTolReorderFp16)
        << "provider=" << GemmProviderName(provider) << " k=" << s.k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllProviders, ProviderParity,
    ::testing::ValuesIn(AvailableGemmProviders()),
    // Not named `info`: INSTANTIATE_TEST_SUITE_P expands to a function whose
    // parameter is already called that, and -Wshadow flags the collision.
    [](const ::testing::TestParamInfo<GemmProvider>& param_info) {
      return std::string(GemmProviderName(param_info.param));
    });

// ---------------------------------------------------------------------------
// Both builds of the AVX2 W4A8 row kernel, pinned through the detail seam.
// ---------------------------------------------------------------------------

class W4A8DotParity : public ::testing::TestWithParam<detail::W4A8Dot> {
 protected:
  void SetUp() override {
    if (detail::W4A8DotAvailable(GetParam())) return;
    if (GetParam() == detail::W4A8Dot::kVnni) {
      GTEST_SKIP() << "CPU lacks avx512vnni/avx512vl (or the AVX2 provider is "
                      "unavailable), so the vpdpbusd row kernel cannot run";
    }
    GTEST_SKIP() << "AVX2 provider unavailable on this machine/build";
  }
  const detail::GemmKernelTable& Kernels() const {
    return detail::Avx2KernelsWith(GetParam());
  }
  std::string Who() const {
    return std::string("dot=") + detail::W4A8DotName(GetParam());
  }
};

TEST_P(W4A8DotParity, ExactOnRaggedShapes) {
  for (const W4A8Shape& s : kLqqShapes) {
    const Problem p = MakeProblem(s.m, s.n, s.k, 80 + s.k + s.group);
    const LqqWeights wq = QuantizeWeightsLqq(p.w, {s.group});
    ExpectBitIdentical(GemmW4A8Liquid(p.xq, wq, GemmProvider::kReference),
                       Kernels().w4a8_lqq(p.xq, wq), Who(), "W4A8Liquid");
  }
  for (const W4A8Shape& s : kQserveShapes) {
    const Problem p = MakeProblem(s.m, s.n, s.k, 90 + s.k + s.group);
    const QserveWeights wq = QuantizeWeightsQserve(p.w, {s.group});
    ExpectBitIdentical(GemmW4A8Qserve(p.xq, wq, GemmProvider::kReference),
                       Kernels().w4a8_qserve(p.xq, wq), Who(), "W4A8Qserve");
  }
  for (const W4A8Shape& s : kDualMmaShapes) {
    const Problem p = MakeProblem(s.m, s.n, s.k, 100 + s.n + s.k);
    const DualMmaPackedWeights packed = PackDualMma(QuantizeWeightsLqq(p.w));
    ExpectBitIdentical(
        GemmW4A8LiquidDualMma(p.xq, packed, GemmProvider::kReference),
        Kernels().w4a8_dual(p.xq, packed), Who(), "W4A8DualMma");
  }
}

TEST_P(W4A8DotParity, SaturationAdversaryExact) {
  for (const std::size_t k : kAdversaryKs) {
    const QuantizedActivations x = AdversaryTokens(k);
    const LqqWeights lqq = AdversaryLqq(k);
    ExpectBitIdentical(GemmW4A8Liquid(x, lqq, GemmProvider::kReference),
                       Kernels().w4a8_lqq(x, lqq), Who(),
                       "W4A8Liquid-adversary");
    const QserveWeights qserve = AdversaryQserve(k);
    ExpectBitIdentical(GemmW4A8Qserve(x, qserve, GemmProvider::kReference),
                       Kernels().w4a8_qserve(x, qserve), Who(),
                       "W4A8Qserve-adversary");
  }
}

INSTANTIATE_TEST_SUITE_P(
    BothBuilds, W4A8DotParity,
    ::testing::Values(detail::W4A8Dot::kWiden, detail::W4A8Dot::kVnni),
    [](const ::testing::TestParamInfo<detail::W4A8Dot>& param_info) {
      return std::string(detail::W4A8DotName(param_info.param));
    });

}  // namespace
}  // namespace liquid
