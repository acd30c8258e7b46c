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
//   * W4A8 (LQQ, QServe, DualMma): one row kernel.  Each group becomes a
//     16-byte code→UINT8 lookup table applied with _mm256_shuffle_epi8 to 8
//     packed registers at a time.  The table yields u = w_i8 + 128: for LQQ
//     that is Eq. 12's value before its XOR 0x80.  The activations are split
//     once per call into the register's low/high-nibble lane planes, so the
//     dot takes u as the unsigned operand of vpdpbusd (AVX-512 VNNI) and
//     subtracts 128*sum(a) per token.  vpdpbusd sums four u8*s8 products
//     straight into int32 without saturating, so the result is exact.  CPUs
//     without VNNI run the same row kernel with an int16-widening madd dot;
//     the variant is picked from CPUID at the start of every call.
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

// --- W4A8: one row kernel for the LQQ, QServe and DualMma layouts ----------

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

/// Builds the 16-entry code→UINT8 dequant table for one group:
/// lut[q] = (q * scale + add) mod 256.  LQQ passes Eq. 12's (q*s + a), the
/// UINT8 value *before* its XOR 0x80, which is w_i8 + 128.  QServe's q*s - s*z
/// wraps like q*s + (256 - s*z); the XOR 0x80 that maps that INT8 pattern to
/// the same w_i8 + 128 is an add of 128 mod 256, so it folds into `add`.
inline __m128i BuildDequantLut(std::uint8_t scale, int add) {
  const __m128i products = _mm_loadu_si128(
      reinterpret_cast<const __m128i*>(kCodeProducts[scale].data()));
  return _mm_add_epi8(products,
                      _mm_set1_epi8(static_cast<char>(add & 0xFF)));
}

/// Token rows split into the two lane planes of a packed register.  Register
/// r of a weight row holds k = 8r..8r+3 in its low nibbles and 8r+4..8r+7 in
/// its high ones, so `lo` stores a[8r..8r+3] at [4r..4r+3] and `hi` stores
/// a[8r+4..8r+7] there: a nibble-masked register lines up with its
/// activations without an unpack or permute.  `A` is the element type the
/// dot variant loads: int8 for vpdpbusd, int16 pre-widened for madd.
template <typename A>
struct SplitTokens {
  std::size_t m = 0;
  std::size_t half_k = 0;
  std::vector<A> lo;               ///< [m][half_k]
  std::vector<A> hi;               ///< [m][half_k]
  std::vector<std::int32_t> bias;  ///< [m]: 128 * sum_k a[k]
};

template <typename A>
SplitTokens<A> SplitActivations(const MatrixI8& q) {
  SplitTokens<A> s;
  s.m = q.rows();
  s.half_k = q.cols() / 2;
  s.lo.resize(s.m * s.half_k);
  s.hi.resize(s.m * s.half_k);
  s.bias.resize(s.m);
  for (std::size_t m = 0; m < s.m; ++m) {
    const std::int8_t* a = q.Row(m).data();
    A* lo = s.lo.data() + m * s.half_k;
    A* hi = s.hi.data() + m * s.half_k;
    std::int32_t sum = 0;
    for (std::size_t j = 0; j < s.half_k; ++j) {
      const std::size_t kk = 8 * (j / 4) + j % 4;
      lo[j] = a[kk];
      hi[j] = a[kk + 4];
      sum += a[kk] + a[kk + 4];
    }
    s.bias[m] = 128 * sum;
  }
  return s;
}

/// One weight row as the row kernel reads it.
struct PackedRow {
  const std::uint32_t* regs;   ///< K/8 registers in LQQ nibble order
  const std::uint8_t* luts;    ///< one 16-byte code→UINT8 table per group
  std::size_t regs_per_group;
};

/// Dequantizes a row once into UINT8 lane planes laid out like SplitTokens:
/// u[0, half_k) pairs with `lo`, u[half_k, 2*half_k) with `hi`.  Eight
/// registers (64 elements) take one and, one shift+and and two pshufb.
inline void DequantRowU8(const PackedRow& row, std::size_t half_k,
                         std::uint8_t* u) {
  const __m256i nib_mask = _mm256_set1_epi8(0x0F);
  std::uint8_t* u_lo = u;
  std::uint8_t* u_hi = u + half_k;
  const std::size_t num_regs = half_k / 4;
  for (std::size_t r = 0, g = 0; r < num_regs; ++g) {
    const std::uint8_t* lut = row.luts + 16 * g;
    const __m256i lutv = _mm256_broadcastsi128_si256(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(lut)));
    const std::size_t end = r + row.regs_per_group;
    for (; r + 8 <= end; r += 8) {
      const __m256i v =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row.regs + r));
      const __m256i lo = _mm256_and_si256(v, nib_mask);
      const __m256i hi = _mm256_and_si256(_mm256_srli_epi32(v, 4), nib_mask);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(u_lo + 4 * r),
                          _mm256_shuffle_epi8(lutv, lo));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(u_hi + 4 * r),
                          _mm256_shuffle_epi8(lutv, hi));
    }
    for (; r < end; ++r) {  // ragged group: fewer than 8 registers left
      for (int b = 0; b < 4; ++b) {
        const std::uint32_t byte = (row.regs[r] >> (8 * b)) & 0xFFu;
        u_lo[4 * r + static_cast<std::size_t>(b)] = lut[byte & 0x0Fu];
        u_hi[4 * r + static_cast<std::size_t>(b)] = lut[byte >> 4];
      }
    }
  }
}

/// vpdpbusd: u8 x s8 products summed four at a time straight into int32.
/// Unlike vpdpbusds or maddubs nothing saturates on the way.
struct VnniDot {
  using A = std::int8_t;
  using U = __m256i;
  static U Prep(__m256i u) { return u; }
  __attribute__((target("avx512vnni,avx512vl"))) static __m256i Step(
      __m256i acc, U u, const A* a) {
    return _mm256_dpbusd_epi32(
        acc, u, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a)));
  }
};

/// Plain AVX2: zero-extend the weights to int16 once per chunk (shared by the
/// token block) against activations pre-widened by the split, then madd; a
/// pair sum is at most 2*255*128, far inside int32.
struct WidenDot {
  using A = std::int16_t;
  struct U {
    __m256i lo, hi;
  };
  static U Prep(__m256i u) {
    return {_mm256_cvtepu8_epi16(_mm256_castsi256_si128(u)),
            _mm256_cvtepu8_epi16(_mm256_extracti128_si256(u, 1))};
  }
  static __m256i Step(__m256i acc, const U& u, const A* a) {
    const __m256i a_lo =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a));
    const __m256i a_hi =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + 16));
    return _mm256_add_epi32(acc,
                            _mm256_add_epi32(_mm256_madd_epi16(u.lo, a_lo),
                                             _mm256_madd_epi16(u.hi, a_hi)));
  }
};

/// Dots the UINT8 row `u` against tokens m0..m0+kTokens-1 and writes each
/// exact INT32 sum.  Since u = w + 128, sum(u*a) - 128*sum(a) = sum(w*a).
/// Each token keeps one accumulator per plane, two independent chains.
template <class Dot, int kTokens>
inline void DotTokenBlock(const std::uint8_t* u,
                          const SplitTokens<typename Dot::A>& a,
                          std::size_t m0, std::int32_t* out) {
  using A = typename Dot::A;
  const std::size_t half = a.half_k;
  const A* lo[kTokens];
  const A* hi[kTokens];
  __m256i acc_lo[kTokens];
  __m256i acc_hi[kTokens];
  for (int t = 0; t < kTokens; ++t) {
    lo[t] = a.lo.data() + (m0 + static_cast<std::size_t>(t)) * half;
    hi[t] = a.hi.data() + (m0 + static_cast<std::size_t>(t)) * half;
    acc_lo[t] = _mm256_setzero_si256();
    acc_hi[t] = _mm256_setzero_si256();
  }
  std::size_t j = 0;
  for (; j + 32 <= half; j += 32) {
    const typename Dot::U u_lo = Dot::Prep(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(u + j)));
    const typename Dot::U u_hi = Dot::Prep(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(u + half + j)));
    for (int t = 0; t < kTokens; ++t) {
      acc_lo[t] = Dot::Step(acc_lo[t], u_lo, lo[t] + j);
      acc_hi[t] = Dot::Step(acc_hi[t], u_hi, hi[t] + j);
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

constexpr std::size_t kTokenBlock = 4;
constexpr std::size_t kPanelRows = 8;

/// The row kernel: dequantize each group of `num_rows` (<= kPanelRows) rows
/// once, then stream the tokens across them kTokenBlock at a time, so a
/// token block is fetched once per panel rather than once per row (this is
/// what keeps prefill-sized M fast).  `u` is num_rows * 2*half_k bytes of
/// scratch; `out` is [num_rows][m].
template <class Dot>
inline void W4A8RowBody(const PackedRow* rows, std::size_t num_rows,
                        const SplitTokens<typename Dot::A>& a, std::uint8_t* u,
                        std::int32_t* out) {
  const std::size_t k = 2 * a.half_k;
  for (std::size_t p = 0; p < num_rows; ++p) {
    DequantRowU8(rows[p], a.half_k, u + p * k);
  }
  for (std::size_t m0 = 0; m0 < a.m; m0 += kTokenBlock) {
    for (std::size_t p = 0; p < num_rows; ++p) {
      const std::uint8_t* up = u + p * k;
      std::int32_t* op = out + p * a.m;
      switch (std::min(kTokenBlock, a.m - m0)) {
        case 4: DotTokenBlock<Dot, 4>(up, a, m0, op); break;
        case 3: DotTokenBlock<Dot, 3>(up, a, m0, op); break;
        case 2: DotTokenBlock<Dot, 2>(up, a, m0, op); break;
        default: DotTokenBlock<Dot, 1>(up, a, m0, op); break;
      }
    }
  }
}

// The two builds of the row kernel.  Each is a noinline function that the
// OpenMP loop calls through a pointer: the target attribute must sit on a
// real function, because outlined `omp parallel` bodies drop it.  `flatten`
// inlines the shared template body, VnniDot::Step included, into the one
// function whose target allows it.
__attribute__((target("avx512vnni,avx512vl"), noinline, flatten)) void
W4A8RowVnni(const PackedRow* rows, std::size_t num_rows,
            const SplitTokens<std::int8_t>& a, std::uint8_t* u,
            std::int32_t* out) {
  W4A8RowBody<VnniDot>(rows, num_rows, a, u, out);
}

__attribute__((noinline, flatten)) void W4A8RowWiden(
    const PackedRow* rows, std::size_t num_rows,
    const SplitTokens<std::int16_t>& a, std::uint8_t* u, std::int32_t* out) {
  W4A8RowBody<WidenDot>(rows, num_rows, a, u, out);
}

bool CpuHasVnni() {
  return __builtin_cpu_supports("avx512vnni") &&
         __builtin_cpu_supports("avx512vl");
}

/// Shared W4A8 driver: split the tokens once, then per panel of weight rows
/// build the group LUTs with `lut(params)`, run the row kernel and apply the
/// float epilogue exactly as the reference does.  `packed` is [n][K/8]
/// registers in LQQ nibble order and `params` is [n][K/group_size].
template <typename A, typename Params, typename LutFn>
MatrixF W4A8Gemm(const QuantizedActivations& x,
                 void (*row_kernel)(const PackedRow*, std::size_t,
                                    const SplitTokens<A>&, std::uint8_t*,
                                    std::int32_t*),
                 const std::uint32_t* packed, std::size_t n_dim,
                 std::size_t group_size, const Params* params,
                 const std::vector<float>& channel_scale, LutFn&& lut) {
  const SplitTokens<A> a = SplitActivations<A>(x.q);
  const std::size_t k = x.q.cols();
  const std::size_t groups = k / group_size;
  const std::ptrdiff_t panels =
      static_cast<std::ptrdiff_t>((n_dim + kPanelRows - 1) / kPanelRows);
  MatrixF y(a.m, n_dim);
#pragma omp parallel
  {
    std::vector<std::uint8_t> u(kPanelRows * k);
    std::vector<std::uint8_t> luts(kPanelRows * groups * 16);
    std::vector<std::int32_t> acc(kPanelRows * a.m);
    std::array<PackedRow, kPanelRows> rows{};
#pragma omp for schedule(static)
    for (std::ptrdiff_t pi = 0; pi < panels; ++pi) {
      const std::size_t n0 = static_cast<std::size_t>(pi) * kPanelRows;
      const std::size_t nt = std::min(kPanelRows, n_dim - n0);
      for (std::size_t p = 0; p < nt; ++p) {
        const Params* row_params = params + (n0 + p) * groups;
        std::uint8_t* row_luts = &luts[p * groups * 16];
        for (std::size_t g = 0; g < groups; ++g) {
          _mm_storeu_si128(reinterpret_cast<__m128i*>(row_luts + 16 * g),
                           lut(row_params[g]));
        }
        rows[p] = {packed + (n0 + p) * (k / 8), row_luts, group_size / 8};
      }
      row_kernel(rows.data(), nt, a, u.data(), acc.data());
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

/// Runs W4A8Gemm with the row kernel of variant `dot`.
template <typename Params, typename LutFn>
MatrixF DispatchW4A8(const QuantizedActivations& x, W4A8Dot dot,
                 const std::uint32_t* packed, std::size_t n_dim,
                 std::size_t group_size, const std::vector<Params>& params,
                 const std::vector<float>& channel_scale, LutFn&& lut) {
  if (dot == W4A8Dot::kVnni) {
    return W4A8Gemm(x, W4A8RowVnni, packed, n_dim, group_size, params.data(),
                    channel_scale, lut);
  }
  return W4A8Gemm(x, W4A8RowWiden, packed, n_dim, group_size, params.data(),
                  channel_scale, lut);
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

constexpr auto kLqqLut = [](const LqqGroupParams& p) {
  return BuildDequantLut(p.scale, p.offset);
};

MatrixF Avx2W4A8Lqq(const QuantizedActivations& x, const LqqWeights& w,
                    W4A8Dot dot) {
  return DispatchW4A8(x, dot, w.packed.data(), w.n, w.group_size,
                      w.group_params, w.channel_scale, kLqqLut);
}

MatrixF Avx2W4A8Qserve(const QuantizedActivations& x, const QserveWeights& w,
                       W4A8Dot dot) {
  return DispatchW4A8(x, dot, w.packed.data(), w.n, w.group_size,
                      w.group_params, w.channel_scale,
                      [](const QserveGroupParams& p) {
                        return BuildDequantLut(p.scale,
                                               256 - p.zero_scaled + 128);
                      });
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
                      w.channel_scale, kLqqLut);
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
