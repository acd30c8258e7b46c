// AVX2/FMA GEMM provider.
//
// Compiled with -mavx2 -mfma (x86 only; see LIQUID_ENABLE_AVX2 in
// CMakeLists.txt) and selected at runtime only when CPUID reports AVX2+FMA,
// so the library itself stays runnable on any x86-64.
//
// Techniques:
//   * W8A8 INT8 dot: sign-extend both operands to int16 and
//     _mm256_madd_epi16 — the TitanInfer idiom that dodges
//     _mm256_maddubs_epi16, whose u8*s8 pair-sums saturate at int16 and
//     silently corrupt large products.  INT32 accumulation is associative, so
//     results are bit-identical to the scalar reference.
//   * W4A8 (LQQ, QServe, DualMma): one set of kernels.  Each group's
//     (scale, add) pair becomes a 16-byte code→UINT8 lookup table built in a
//     register and applied with pshufb.  The table yields u = w_i8 + 128:
//     for LQQ that is Eq. 12's value before its XOR 0x80.  The activations
//     are split once per call into the register's low/high-nibble lane
//     planes, so the dot takes u as the unsigned operand and subtracts
//     128*sum(a) per token.  Two builds, picked from CPUID at the start of
//     every call:
//       - vnni (AVX-512 VNNI/BW/VL): a register tile of 4 weight rows x up
//         to 4 tokens.  Dequantized bytes go from the packed load through
//         the LUT straight into vpdpbusd and are never written back, the
//         CPU analogue of the paper's ImFP.  vpdpbusd sums four u8*s8
//         products into int32 without saturating, so the result is exact.
//       - widen (plain AVX2): each panel of 8 rows is dequantized once into
//         a UINT8 scratch row that the token blocks stream across with an
//         int16-widening madd dot.
//   * Float paths: FMA with hoisted binary16 rounding (tolerance-tested;
//     accumulation order differs from the reference).

#if defined(LIQUID_HAS_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/gemm/kernels.hpp"
#include "util/swar.hpp"

namespace liquid::detail {
namespace {

std::int32_t HorizontalSum(__m256i v) {
  __m128i s = _mm_add_epi32(_mm256_castsi256_si128(v),
                            _mm256_extracti128_si256(v, 1));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(s);
}

std::int32_t DotI8Avx2(const std::int8_t* a, const std::int8_t* b,
                       std::size_t k) {
  // Two independent accumulator chains so the add latency doesn't serialize
  // the madd throughput.
  __m256i acc0 = _mm256_setzero_si256();
  __m256i acc1 = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 32 <= k; i += 32) {
    const __m256i a_lo = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i)));
    const __m256i b_lo = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i)));
    const __m256i a_hi = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i + 16)));
    const __m256i b_hi = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i + 16)));
    acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(a_lo, b_lo));
    acc1 = _mm256_add_epi32(acc1, _mm256_madd_epi16(a_hi, b_hi));
  }
  std::int32_t sum = HorizontalSum(_mm256_add_epi32(acc0, acc1));
  for (; i < k; ++i) {
    sum += static_cast<std::int32_t>(a[i]) * static_cast<std::int32_t>(b[i]);
  }
  return sum;
}

/// 4-row register-blocked variant: widens each activation chunk once and
/// streams it against four weight rows, quartering the cvtepi8 traffic on the
/// activation side and giving the madd chains independent accumulators.
void DotI8Avx2x4(const std::int8_t* a, const std::int8_t* const b[4],
                 std::size_t k, std::int32_t out[4]) {
  __m256i acc[4] = {_mm256_setzero_si256(), _mm256_setzero_si256(),
                    _mm256_setzero_si256(), _mm256_setzero_si256()};
  std::size_t i = 0;
  for (; i + 16 <= k; i += 16) {
    const __m256i a16 = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i)));
    for (int j = 0; j < 4; ++j) {
      const __m256i b16 = _mm256_cvtepi8_epi16(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(b[j] + i)));
      acc[j] = _mm256_add_epi32(acc[j], _mm256_madd_epi16(a16, b16));
    }
  }
  for (int j = 0; j < 4; ++j) out[j] = HorizontalSum(acc[j]);
  for (; i < k; ++i) {
    for (int j = 0; j < 4; ++j) {
      out[j] += static_cast<std::int32_t>(a[i]) *
                static_cast<std::int32_t>(b[j][i]);
    }
  }
}

float DotF32Fma(const float* a, const float* b, std::size_t k) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= k; i += 16) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8),
                           _mm256_loadu_ps(b + i + 8), acc1);
  }
  for (; i + 8 <= k; i += 8) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
  }
  const __m256 acc = _mm256_add_ps(acc0, acc1);
  __m128 s = _mm_add_ps(_mm256_castps256_ps128(acc),
                        _mm256_extractf128_ps(acc, 1));
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0x55));
  float sum = _mm_cvtss_f32(s);
  for (; i < k; ++i) sum += a[i] * b[i];
  return sum;
}

// --- W4A8: one set of kernels for the LQQ, QServe and DualMma layouts ------

/// Row s holds q * s mod 256 for the sixteen 4-bit codes q.
constexpr auto kCodeProducts = [] {
  std::array<std::array<std::uint8_t, 16>, 256> t{};
  for (std::size_t s = 0; s < 256; ++s) {
    for (std::size_t q = 0; q < 16; ++q) {
      t[s][q] = static_cast<std::uint8_t>(q * s);
    }
  }
  return t;
}();

/// A group's 16-entry code→UINT8 dequant table is lut[q] = (q * scale + add)
/// mod 256, which is w_i8 + 128.  LQQ's add is Eq. 12's `a`: the table holds
/// the UINT8 value *before* its XOR 0x80.  QServe's q*s - s*z wraps like
/// q*s + (256 - s*z); the XOR 0x80 that maps that INT8 pattern to the same
/// w_i8 + 128 is an add of 128 mod 256, so it folds into `add`.
inline std::uint8_t LutAdd(const LqqGroupParams& p) { return p.offset; }
inline std::uint8_t LutAdd(const QserveGroupParams& p) {
  return static_cast<std::uint8_t>(384 - p.zero_scaled);
}

/// Builds a group's table in a register from kCodeProducts[scale] + add.
template <class Params>
inline __m128i GroupLut(const Params& p) {
  const __m128i products = _mm_loadu_si128(
      reinterpret_cast<const __m128i*>(kCodeProducts[p.scale].data()));
  return _mm_add_epi8(products, _mm_set1_epi8(static_cast<char>(LutAdd(p))));
}

/// Token rows split into the two lane planes of a packed register.  Register
/// r of a weight row holds k = 8r..8r+3 in its low nibbles and 8r+4..8r+7 in
/// its high ones, so `lo` stores a[8r..8r+3] at [4r..4r+3] and `hi` stores
/// a[8r+4..8r+7] there: a nibble-masked register lines up with its
/// activations without an unpack or permute.  `A` is the element type the
/// build loads: int8 for vpdpbusd, int16 pre-widened for madd.
template <typename A>
struct SplitTokens {
  std::size_t m = 0;
  std::size_t half_k = 0;
  std::vector<A> lo;               ///< [m][half_k]
  std::vector<A> hi;               ///< [m][half_k]
  std::vector<std::int32_t> bias;  ///< [m]: 128 * sum_k a[k]
};

inline void StorePlane(std::int8_t* dst, __m256i v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst), v);
}

inline void StorePlane(std::int16_t* dst, __m256i v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst),
                      _mm256_cvtepi8_epi16(_mm256_castsi256_si128(v)));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + 16),
                      _mm256_cvtepi8_epi16(_mm256_extracti128_si256(v, 1)));
}

/// The split is an even/odd dword de-interleave: 64 activations per step
/// become 32 per plane.  sum(a) comes from psadbw on a ^ 0x80 = a + 128.
template <typename A>
SplitTokens<A> SplitActivations(const MatrixI8& q) {
  SplitTokens<A> s;
  s.m = q.rows();
  s.half_k = q.cols() / 2;
  s.lo.resize(s.m * s.half_k);
  s.hi.resize(s.m * s.half_k);
  s.bias.resize(s.m);
  const __m256i bias8 = _mm256_set1_epi8(static_cast<char>(0x80));
  const __m256i zero = _mm256_setzero_si256();
  for (std::size_t m = 0; m < s.m; ++m) {
    const std::int8_t* a = q.Row(m).data();
    A* lo = s.lo.data() + m * s.half_k;
    A* hi = s.hi.data() + m * s.half_k;
    __m256i biased = _mm256_setzero_si256();  // four u64 sums of a + 128
    std::size_t j = 0;
    for (; j + 32 <= s.half_k; j += 32) {
      const __m256i x0 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + 2 * j));
      const __m256i x1 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + 2 * j + 32));
      const __m256 f0 = _mm256_castsi256_ps(x0);
      const __m256 f1 = _mm256_castsi256_ps(x1);
      // shuffle_ps gives [x0 d0 d2, x1 d0 d2 | x0 d4 d6, x1 d4 d6] (and the
      // odd dwords likewise); the qword permute puts x0's ahead of x1's.
      StorePlane(lo + j, _mm256_permute4x64_epi64(
                             _mm256_castps_si256(_mm256_shuffle_ps(
                                 f0, f1, _MM_SHUFFLE(2, 0, 2, 0))),
                             _MM_SHUFFLE(3, 1, 2, 0)));
      StorePlane(hi + j, _mm256_permute4x64_epi64(
                             _mm256_castps_si256(_mm256_shuffle_ps(
                                 f0, f1, _MM_SHUFFLE(3, 1, 3, 1))),
                             _MM_SHUFFLE(3, 1, 2, 0)));
      biased = _mm256_add_epi64(
          biased, _mm256_add_epi64(
                      _mm256_sad_epu8(_mm256_xor_si256(x0, bias8), zero),
                      _mm256_sad_epu8(_mm256_xor_si256(x1, bias8), zero)));
    }
    alignas(32) std::int64_t lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), biased);
    std::int32_t sum = static_cast<std::int32_t>(
        lanes[0] + lanes[1] + lanes[2] + lanes[3] -
        128 * static_cast<std::int64_t>(2 * j));
    for (; j < s.half_k; ++j) {
      const std::size_t kk = 8 * (j / 4) + j % 4;
      lo[j] = a[kk];
      hi[j] = a[kk + 4];
      sum += a[kk] + a[kk + 4];
    }
    s.bias[m] = 128 * sum;
  }
  return s;
}

/// A packed W4A8 weight matrix as the kernels read it: row n has
/// regs_per_row registers in LQQ nibble order and groups_per_row group
/// parameters.  A group is regs_per_group registers, so no register
/// straddles two groups.
template <class Params>
struct PackedRows {
  const std::uint32_t* regs;
  const Params* params;
  std::size_t regs_per_row;    ///< K / 8
  std::size_t regs_per_group;  ///< group_size / 8
  std::size_t groups_per_row;  ///< K / group_size

  const std::uint32_t* Regs(std::size_t n) const {
    return regs + n * regs_per_row;
  }
  const Params* Groups(std::size_t n) const {
    return params + n * groups_per_row;
  }
};

constexpr std::size_t kTokenBlock = 4;

// --- The widen build (plain AVX2): a panel dequantized into UINT8 rows -----

/// Dequantizes a row once into UINT8 lane planes laid out like SplitTokens:
/// u[0, half_k) pairs with `lo`, u[half_k, 2*half_k) with `hi`.  Eight
/// registers (64 elements) take one and, one shift+and and two pshufb.
template <class Params>
inline void DequantRowU8(const std::uint32_t* regs, const Params* groups,
                         std::size_t regs_per_group, std::size_t half_k,
                         std::uint8_t* u) {
  const __m256i nib_mask = _mm256_set1_epi8(0x0F);
  std::uint8_t* u_lo = u;
  std::uint8_t* u_hi = u + half_k;
  const std::size_t num_regs = half_k / 4;
  for (std::size_t r = 0, g = 0; r < num_regs; ++g) {
    const __m128i lut = GroupLut(groups[g]);
    const __m256i lutv = _mm256_broadcastsi128_si256(lut);
    const std::size_t end = r + regs_per_group;
    for (; r + 8 <= end; r += 8) {
      const __m256i v =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(regs + r));
      const __m256i lo = _mm256_and_si256(v, nib_mask);
      const __m256i hi = _mm256_and_si256(_mm256_srli_epi32(v, 4), nib_mask);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(u_lo + 4 * r),
                          _mm256_shuffle_epi8(lutv, lo));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(u_hi + 4 * r),
                          _mm256_shuffle_epi8(lutv, hi));
    }
    if (r == end) continue;
    alignas(16) std::uint8_t table[16];  // ragged group: < 8 registers left
    _mm_store_si128(reinterpret_cast<__m128i*>(table), lut);
    for (; r < end; ++r) {
      for (int b = 0; b < 4; ++b) {
        const std::uint32_t byte = (regs[r] >> (8 * b)) & 0xFFu;
        u_lo[4 * r + static_cast<std::size_t>(b)] = table[byte & 0x0Fu];
        u_hi[4 * r + static_cast<std::size_t>(b)] = table[byte >> 4];
      }
    }
  }
}

/// Dots the UINT8 row `u` against tokens m0..m0+kTokens-1 and writes each
/// exact INT32 sum.  The weights are zero-extended to int16 once per chunk
/// (shared by the token block) against activations pre-widened by the split,
/// then madd; a pair sum is at most 2*255*128, far inside int32.  Since
/// u = w + 128, sum(u*a) - 128*sum(a) = sum(w*a).  Each token keeps one
/// accumulator per plane, two independent chains.
template <int kTokens>
inline void DotTokenBlock(const std::uint8_t* u,
                          const SplitTokens<std::int16_t>& a, std::size_t m0,
                          std::int32_t* out) {
  const std::size_t half = a.half_k;
  const std::int16_t* lo[kTokens];
  const std::int16_t* hi[kTokens];
  __m256i acc_lo[kTokens];
  __m256i acc_hi[kTokens];
  for (int t = 0; t < kTokens; ++t) {
    lo[t] = a.lo.data() + (m0 + static_cast<std::size_t>(t)) * half;
    hi[t] = a.hi.data() + (m0 + static_cast<std::size_t>(t)) * half;
    acc_lo[t] = _mm256_setzero_si256();
    acc_hi[t] = _mm256_setzero_si256();
  }
  const auto madd = [](__m256i acc, __m256i u8, const std::int16_t* act) {
    const __m256i u_lo = _mm256_cvtepu8_epi16(_mm256_castsi256_si128(u8));
    const __m256i u_hi = _mm256_cvtepu8_epi16(_mm256_extracti128_si256(u8, 1));
    const __m256i a_lo =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(act));
    const __m256i a_hi =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(act + 16));
    return _mm256_add_epi32(acc, _mm256_add_epi32(_mm256_madd_epi16(u_lo, a_lo),
                                                  _mm256_madd_epi16(u_hi, a_hi)));
  };
  std::size_t j = 0;
  for (; j + 32 <= half; j += 32) {
    const __m256i u_lo =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(u + j));
    const __m256i u_hi =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(u + half + j));
    for (int t = 0; t < kTokens; ++t) {
      acc_lo[t] = madd(acc_lo[t], u_lo, lo[t] + j);
      acc_hi[t] = madd(acc_hi[t], u_hi, hi[t] + j);
    }
  }
  // sum(u*a) alone passes INT32_MAX once K > 2^31 / (255*127) ~ 66k while
  // sum(w*a) still fits, so the tail and the correction wrap in uint32 like
  // the vector adds do.
  for (int t = 0; t < kTokens; ++t) {
    std::uint32_t sum = static_cast<std::uint32_t>(
        HorizontalSum(_mm256_add_epi32(acc_lo[t], acc_hi[t])));
    for (std::size_t jj = j; jj < half; ++jj) {
      sum += static_cast<std::uint32_t>(u[jj] * lo[t][jj] +
                                        u[half + jj] * hi[t][jj]);
    }
    const std::size_t m = m0 + static_cast<std::size_t>(t);
    out[m] = static_cast<std::int32_t>(
        sum - static_cast<std::uint32_t>(a.bias[m]));
  }
}

/// int16-widening build: dequantize each panel of up to kRows rows once into
/// `u`, then stream the tokens across it kTokenBlock at a time, so a token
/// block is fetched once per panel rather than once per row (this is what
/// keeps prefill-sized M fast).  `out` is [num_rows][m].
///
/// Each build's Rows is a noinline function that the OpenMP loop calls: a
/// target attribute must sit on a real function, because outlined
/// `omp parallel` bodies drop it, and `flatten` inlines the shared helpers
/// into it.
struct WidenBuild {
  using A = std::int16_t;
  using Scratch = std::vector<std::uint8_t>;
  static constexpr std::size_t kRows = 8;

  template <class Params>
  __attribute__((noinline, flatten)) static void Rows(
      const PackedRows<Params>& w, std::size_t n0, std::size_t num_rows,
      const SplitTokens<A>& a, Scratch& u, std::int32_t* out) {
    const std::size_t k = 2 * a.half_k;
    u.resize(kRows * k);
    for (std::size_t p = 0; p < num_rows; ++p) {
      DequantRowU8(w.Regs(n0 + p), w.Groups(n0 + p), w.regs_per_group,
                   a.half_k, u.data() + p * k);
    }
    for (std::size_t m0 = 0; m0 < a.m; m0 += kTokenBlock) {
      for (std::size_t p = 0; p < num_rows; ++p) {
        const std::uint8_t* up = u.data() + p * k;
        std::int32_t* op = out + p * a.m;
        switch (std::min(kTokenBlock, a.m - m0)) {
          case 4: DotTokenBlock<4>(up, a, m0, op); break;
          case 3: DotTokenBlock<3>(up, a, m0, op); break;
          case 2: DotTokenBlock<2>(up, a, m0, op); break;
          default: DotTokenBlock<1>(up, a, m0, op); break;
        }
      }
    }
  }
};

// --- The vnni build (AVX-512): a register tile, the CPU analogue of ImFP ---

// Every function that touches an AVX-512 intrinsic carries the target; the
// file itself is compiled for AVX2 only.
#define LIQUID_VNNI_TARGET \
  __attribute__((target("avx512f,avx512bw,avx512vl,avx512vnni")))

// The all-lanes maskz forms compile to the plain instructions; the unmasked
// intrinsics pass an undefined vector that gcc 12 flags under
// -Wmaybe-uninitialized.
constexpr __mmask16 kAll16 = 0xFFFF;

/// Sums the two 256-bit halves.
LIQUID_VNNI_TARGET inline __m256i FoldHalves(__m512i v) {
  return _mm256_add_epi32(_mm512_maskz_extracti64x4_epi64(0xFF, v, 0),
                          _mm512_maskz_extracti64x4_epi64(0xFF, v, 1));
}

/// One register tile: kRows weight rows x kTokens tokens.  Dequantized bytes
/// go from the packed load through the pshufb LUT straight into vpdpbusd
/// and are never stored.  vpdpbusd sums four u8*s8 products into int32
/// without saturating, so sum(u*a) - 128*sum(a) = sum(w*a) exactly.
///
/// A 512-bit step covers 16 registers (128 codes) as two 8-register halves.
/// When group_size is a multiple of 64 each half sits inside one group and
/// gets that group's LUT, so at group_size 64 a step spans two groups.  What
/// is left runs in 256-bit chunks of up to 8 registers inside one group: an
/// odd last half, or every chunk of a ragged group (group_size % 64 != 0),
/// whose last chunk is masked to the group's end.  Masked-off activation
/// bytes are zero, so the products they meet vanish.  `out` is [row][m].
template <int kRows, int kTokens, class Params>
LIQUID_VNNI_TARGET inline void VnniTile(const PackedRows<Params>& w,
                                        std::size_t n0,
                                        const SplitTokens<std::int8_t>& a,
                                        std::size_t m0, std::int32_t* out) {
  const std::uint32_t* regs[kRows];
  const Params* groups[kRows];
  for (int p = 0; p < kRows; ++p) {
    regs[p] = w.Regs(n0 + static_cast<std::size_t>(p));
    groups[p] = w.Groups(n0 + static_cast<std::size_t>(p));
  }
  const std::int8_t* lo[kTokens];
  const std::int8_t* hi[kTokens];
  for (int t = 0; t < kTokens; ++t) {
    lo[t] = a.lo.data() + (m0 + static_cast<std::size_t>(t)) * a.half_k;
    hi[t] = a.hi.data() + (m0 + static_cast<std::size_t>(t)) * a.half_k;
  }
  const std::size_t num_regs = w.regs_per_row;
  const std::size_t per_group = w.regs_per_group;

  __m512i acc[kRows][kTokens];
  for (auto& row : acc) {
    for (auto& v : row) v = _mm512_setzero_si512();
  }
  std::size_t r = 0;
  if (per_group % 8 == 0) {
    const __m512i nib = _mm512_set1_epi8(0x0F);
    const std::size_t halves_per_group = per_group / 8;
    std::size_t g = 0;                   // group of the next half
    std::size_t left = halves_per_group;  // halves of g still ahead
    const auto next_half = [&] {
      const std::size_t half_group = g;
      if (--left == 0) {
        ++g;
        left = halves_per_group;
      }
      return half_group;
    };
    for (; r + 16 <= num_regs; r += 16) {
      const std::size_t g0 = next_half();
      const std::size_t g1 = next_half();
      __m512i a_lo[kTokens];
      __m512i a_hi[kTokens];
      for (int t = 0; t < kTokens; ++t) {
        a_lo[t] = _mm512_loadu_si512(lo[t] + 4 * r);
        a_hi[t] = _mm512_loadu_si512(hi[t] + 4 * r);
      }
#pragma GCC unroll 4
      for (int p = 0; p < kRows; ++p) {
        __m512i lut =
            _mm512_maskz_broadcast_i32x4(kAll16, GroupLut(groups[p][g0]));
        if (g1 != g0) {
          lut = _mm512_mask_broadcast_i32x4(lut, 0xFF00,
                                            GroupLut(groups[p][g1]));
        }
        const __m512i v = _mm512_loadu_si512(regs[p] + r);
        const __m512i u_lo = _mm512_shuffle_epi8(lut, _mm512_and_si512(v, nib));
        const __m512i u_hi = _mm512_shuffle_epi8(
            lut, _mm512_and_si512(_mm512_maskz_srli_epi32(kAll16, v, 4), nib));
#pragma GCC unroll 4
        for (int t = 0; t < kTokens; ++t) {
          acc[p][t] = _mm512_dpbusd_epi32(acc[p][t], u_lo, a_lo[t]);
          acc[p][t] = _mm512_dpbusd_epi32(acc[p][t], u_hi, a_hi[t]);
        }
      }
    }
  }

  __m256i acc256[kRows][kTokens];
  for (int p = 0; p < kRows; ++p) {
    for (int t = 0; t < kTokens; ++t) acc256[p][t] = FoldHalves(acc[p][t]);
  }
  const __m256i nib = _mm256_set1_epi8(0x0F);
  for (std::size_t g = r / per_group; r < num_regs; ++g) {
    const std::size_t end = (g + 1) * per_group;
    __m256i lut[kRows];
    for (int p = 0; p < kRows; ++p) {
      lut[p] = _mm256_broadcastsi128_si256(GroupLut(groups[p][g]));
    }
    while (r < end) {
      const std::size_t n = std::min<std::size_t>(8, end - r);
      const auto mask = static_cast<__mmask8>((1u << n) - 1);
      __m256i a_lo[kTokens];
      __m256i a_hi[kTokens];
      for (int t = 0; t < kTokens; ++t) {
        a_lo[t] = _mm256_maskz_loadu_epi32(mask, lo[t] + 4 * r);
        a_hi[t] = _mm256_maskz_loadu_epi32(mask, hi[t] + 4 * r);
      }
      for (int p = 0; p < kRows; ++p) {
        const __m256i v = _mm256_maskz_loadu_epi32(mask, regs[p] + r);
        const __m256i u_lo =
            _mm256_shuffle_epi8(lut[p], _mm256_and_si256(v, nib));
        const __m256i u_hi = _mm256_shuffle_epi8(
            lut[p], _mm256_and_si256(_mm256_srli_epi32(v, 4), nib));
        for (int t = 0; t < kTokens; ++t) {
          acc256[p][t] = _mm256_dpbusd_epi32(acc256[p][t], u_lo, a_lo[t]);
          acc256[p][t] = _mm256_dpbusd_epi32(acc256[p][t], u_hi, a_hi[t]);
        }
      }
      r += n;
    }
  }

  // sum(u*a) alone passes INT32_MAX once K > 2^31 / (255*127) ~ 66k while
  // sum(w*a) still fits, so the correction wraps in uint32 like the vector
  // adds do.
  for (int p = 0; p < kRows; ++p) {
    for (int t = 0; t < kTokens; ++t) {
      const std::size_t m = m0 + static_cast<std::size_t>(t);
      const auto sum =
          static_cast<std::uint32_t>(HorizontalSum(acc256[p][t]));
      out[static_cast<std::size_t>(p) * a.m + m] = static_cast<std::int32_t>(
          sum - static_cast<std::uint32_t>(a.bias[m]));
    }
  }
}

/// kRows rows against every token, kTokenBlock tokens at a time.
template <int kRows, class Params>
LIQUID_VNNI_TARGET inline void VnniRows(const PackedRows<Params>& w,
                                        std::size_t n0,
                                        const SplitTokens<std::int8_t>& a,
                                        std::int32_t* out) {
  for (std::size_t m0 = 0; m0 < a.m; m0 += kTokenBlock) {
    switch (std::min(kTokenBlock, a.m - m0)) {
      case 4: VnniTile<kRows, 4>(w, n0, a, m0, out); break;
      case 3: VnniTile<kRows, 3>(w, n0, a, m0, out); break;
      case 2: VnniTile<kRows, 2>(w, n0, a, m0, out); break;
      default: VnniTile<kRows, 1>(w, n0, a, m0, out); break;
    }
  }
}

/// vpdpbusd build: register tiles of kRows rows; a block of fewer rows (the
/// last one when kRows does not divide N) runs one row at a time.
struct VnniBuild {
  using A = std::int8_t;
  struct Scratch {};
  static constexpr std::size_t kRows = 4;

  template <class Params>
  LIQUID_VNNI_TARGET __attribute__((noinline, flatten)) static void Rows(
      const PackedRows<Params>& w, std::size_t n0, std::size_t num_rows,
      const SplitTokens<A>& a, Scratch& /*unused*/, std::int32_t* out) {
    if (num_rows == kRows) {
      VnniRows<kRows>(w, n0, a, out);
      return;
    }
    for (std::size_t p = 0; p < num_rows; ++p) {
      VnniRows<1>(w, n0 + p, a, out + p * a.m);
    }
  }
};

#undef LIQUID_VNNI_TARGET

bool CpuHasVnni() {
  return __builtin_cpu_supports("avx512vnni") &&
         __builtin_cpu_supports("avx512vl") &&
         __builtin_cpu_supports("avx512bw");
}

/// Shared W4A8 GEMM loop: split the tokens once, then per block of
/// Build::kRows weight rows run the build's kernel and apply the float
/// epilogue exactly as the reference does.  `packed` is [n][K/8] registers
/// in LQQ nibble order and `params` is [n][K/group_size].
template <class Build, class Params>
MatrixF W4A8Gemm(const QuantizedActivations& x, const std::uint32_t* packed,
                 std::size_t n_dim, std::size_t group_size,
                 const Params* params,
                 const std::vector<float>& channel_scale) {
  const SplitTokens<typename Build::A> a =
      SplitActivations<typename Build::A>(x.q);
  const std::size_t k = x.q.cols();
  const PackedRows<Params> w{packed, params, k / 8, group_size / 8,
                             k / group_size};
  constexpr std::size_t kRows = Build::kRows;
  const std::ptrdiff_t blocks =
      static_cast<std::ptrdiff_t>((n_dim + kRows - 1) / kRows);
  MatrixF y(a.m, n_dim);
#pragma omp parallel
  {
    typename Build::Scratch scratch;
    std::vector<std::int32_t> acc(kRows * a.m);
#pragma omp for schedule(static)
    for (std::ptrdiff_t bi = 0; bi < blocks; ++bi) {
      const std::size_t n0 = static_cast<std::size_t>(bi) * kRows;
      const std::size_t nt = std::min(kRows, n_dim - n0);
      Build::Rows(w, n0, nt, a, scratch, acc.data());
      for (std::size_t p = 0; p < nt; ++p) {
        for (std::size_t m = 0; m < a.m; ++m) {
          y.At(m, n0 + p) = static_cast<float>(acc[p * a.m + m]) *
                            x.token_scale[m] * channel_scale[n0 + p];
        }
      }
    }
  }
  return y;
}

/// Runs W4A8Gemm with the build `dot` names.
template <class Params>
MatrixF DispatchW4A8(const QuantizedActivations& x, W4A8Dot dot,
                     const std::uint32_t* packed, std::size_t n_dim,
                     std::size_t group_size, const std::vector<Params>& params,
                     const std::vector<float>& channel_scale) {
  if (dot == W4A8Dot::kVnni) {
    return W4A8Gemm<VnniBuild>(x, packed, n_dim, group_size, params.data(),
                               channel_scale);
  }
  return W4A8Gemm<WidenBuild>(x, packed, n_dim, group_size, params.data(),
                              channel_scale);
}

MatrixF Avx2Fp32(const MatrixF& x, const MatrixF& w) {
  MatrixF y(x.rows(), w.rows());
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t n = 0; n < static_cast<std::ptrdiff_t>(w.rows()); ++n) {
    const std::size_t nu = static_cast<std::size_t>(n);
    const float* wr = w.Row(nu).data();
    for (std::size_t m = 0; m < x.rows(); ++m) {
      y.At(m, nu) = DotF32Fma(x.Row(m).data(), wr, x.cols());
    }
  }
  return y;
}

MatrixF Avx2Fp16(const MatrixF& x, const MatrixF& w) {
  const MatrixF xh = RoundMatrixToHalf(x);
  const MatrixF wh = RoundMatrixToHalf(w);
  return Avx2Fp32(xh, wh);
}

MatrixF Avx2W8A8(const QuantizedActivations& x, const W8A8Weights& w) {
  const std::size_t m_dim = x.q.rows();
  const std::size_t n_dim = w.q.rows();
  const std::size_t k = x.q.cols();
  MatrixF y(m_dim, n_dim);
  const std::ptrdiff_t blocks = static_cast<std::ptrdiff_t>(n_dim / 4);
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t blk = 0; blk < blocks; ++blk) {
    const std::size_t n0 = static_cast<std::size_t>(blk) * 4;
    const std::int8_t* rows[4] = {w.q.Row(n0).data(), w.q.Row(n0 + 1).data(),
                                  w.q.Row(n0 + 2).data(),
                                  w.q.Row(n0 + 3).data()};
    for (std::size_t m = 0; m < m_dim; ++m) {
      std::int32_t acc[4];
      DotI8Avx2x4(x.q.Row(m).data(), rows, k, acc);
      for (int j = 0; j < 4; ++j) {
        y.At(m, n0 + static_cast<std::size_t>(j)) =
            static_cast<float>(acc[j]) * x.token_scale[m] *
            w.channel_scale[n0 + static_cast<std::size_t>(j)];
      }
    }
  }
  for (std::size_t nu = static_cast<std::size_t>(blocks) * 4; nu < n_dim;
       ++nu) {
    const std::int8_t* wr = w.q.Row(nu).data();
    for (std::size_t m = 0; m < m_dim; ++m) {
      const std::int32_t acc = DotI8Avx2(x.q.Row(m).data(), wr, k);
      y.At(m, nu) = static_cast<float>(acc) * x.token_scale[m] *
                    w.channel_scale[nu];
    }
  }
  return y;
}

MatrixF Avx2W4A16(const MatrixF& x, const W4A16Weights& w) {
  const MatrixF xh = RoundMatrixToHalf(x);
  const std::size_t m_dim = x.rows();
  MatrixF y(m_dim, w.n);
#pragma omp parallel
  {
    std::vector<float> wrow(w.k);
#pragma omp for schedule(static)
    for (std::ptrdiff_t n = 0; n < static_cast<std::ptrdiff_t>(w.n); ++n) {
      const std::size_t nu = static_cast<std::size_t>(n);
      for (std::size_t kk = 0; kk < w.k; ++kk) {
        wrow[kk] = QuantizeToHalf(w.Dequant(nu, kk));
      }
      for (std::size_t m = 0; m < m_dim; ++m) {
        y.At(m, nu) = DotF32Fma(xh.Row(m).data(), wrow.data(), w.k);
      }
    }
  }
  return y;
}

MatrixF Avx2W4A8Lqq(const QuantizedActivations& x, const LqqWeights& w,
                    W4A8Dot dot) {
  return DispatchW4A8(x, dot, w.packed.data(), w.n, w.group_size,
                      w.group_params, w.channel_scale);
}

MatrixF Avx2W4A8Qserve(const QuantizedActivations& x, const QserveWeights& w,
                       W4A8Dot dot) {
  return DispatchW4A8(x, dot, w.packed.data(), w.n, w.group_size,
                      w.group_params, w.channel_scale);
}

MatrixF Avx2W4A8DualMma(const QuantizedActivations& x,
                        const DualMmaPackedWeights& w, W4A8Dot dot) {
  // Invert the supertile layout to natural-order codes and repack them into
  // LQQ registers; the groups keep their LQQ parameters.
  const std::vector<std::uint8_t> u4 = UnpackDualMmaToU4(w);
  std::vector<std::uint32_t> regs(u4.size() / 8);
  for (std::size_t r = 0; r < regs.size(); ++r) {
    std::array<std::uint8_t, 8> lanes{};
    std::copy_n(&u4[8 * r], 8, lanes.begin());
    regs[r] = PackNibblesInterleaved(lanes);
  }
  return DispatchW4A8(x, dot, regs.data(), w.n, w.group_size, w.group_params,
                      w.channel_scale);
}

/// The provider's kernel table; `kSelect` picks the W4A8 dot variant at the
/// start of every W4A8 call.
template <W4A8Dot (*kSelect)()>
constexpr GemmKernelTable MakeAvx2Table() {
  return {Avx2Fp32, Avx2Fp16, Avx2W8A8, Avx2W4A16,
          [](const QuantizedActivations& x, const LqqWeights& w) {
            return Avx2W4A8Lqq(x, w, kSelect());
          },
          [](const QuantizedActivations& x, const QserveWeights& w) {
            return Avx2W4A8Qserve(x, w, kSelect());
          },
          [](const QuantizedActivations& x, const DualMmaPackedWeights& w) {
            return Avx2W4A8DualMma(x, w, kSelect());
          }};
}

constexpr W4A8Dot PinWiden() { return W4A8Dot::kWiden; }
constexpr W4A8Dot PinVnni() { return W4A8Dot::kVnni; }

}  // namespace

bool W4A8DotAvailable(W4A8Dot dot) {
  return GemmProviderAvailable(GemmProvider::kAvx2) &&
         (dot == W4A8Dot::kWiden || CpuHasVnni());
}

W4A8Dot ActiveW4A8Dot() {
  return CpuHasVnni() ? W4A8Dot::kVnni : W4A8Dot::kWiden;
}

const GemmKernelTable& Avx2Kernels() {
  static const GemmKernelTable table = MakeAvx2Table<ActiveW4A8Dot>();
  return table;
}

const GemmKernelTable& Avx2KernelsWith(W4A8Dot dot) {
  if (!W4A8DotAvailable(dot)) {
    throw std::invalid_argument(std::string("W4A8 dot variant '") +
                                W4A8DotName(dot) +
                                "' is not available on this machine/build");
  }
  static const GemmKernelTable widen = MakeAvx2Table<PinWiden>();
  static const GemmKernelTable vnni = MakeAvx2Table<PinVnni>();
  return dot == W4A8Dot::kVnni ? vnni : widen;
}

}  // namespace liquid::detail

#else  // !LIQUID_HAS_AVX2

#include <stdexcept>
#include <string>

#include "core/gemm/kernels.hpp"

namespace liquid::detail {

// Link-time stubs for non-x86 / AVX2-disabled builds; dispatch guards on
// GemmProviderAvailable() so Avx2Kernels() is unreachable.
const GemmKernelTable& Avx2Kernels() {
  throw std::logic_error("AVX2 GEMM provider is not compiled into this build");
}

bool W4A8DotAvailable(W4A8Dot) { return false; }

W4A8Dot ActiveW4A8Dot() { return W4A8Dot::kWiden; }

const GemmKernelTable& Avx2KernelsWith(W4A8Dot dot) {
  throw std::invalid_argument(std::string("W4A8 dot variant '") +
                              W4A8DotName(dot) +
                              "' needs the AVX2 provider, which this build "
                              "does not compile");
}

}  // namespace liquid::detail

#endif  // LIQUID_HAS_AVX2
