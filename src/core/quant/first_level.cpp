#include "core/quant/first_level.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace liquid {
namespace {

/// Largest |v| of a row, and whether the row holds a NaN, which a max
/// reduction drops silently.
struct AbsMax {
  float value = 0.0f;
  bool nan = false;
};

AbsMax RowAbsMax(std::span<const float> values) {
  AbsMax out;
  std::size_t i = 0;
#if defined(__SSE2__)
  // Four independent max chains; cmpunord(x, x) flags NaN lanes.
  const __m128 abs_mask = _mm_castsi128_ps(_mm_set1_epi32(0x7FFFFFFF));
  __m128 m[4] = {_mm_setzero_ps(), _mm_setzero_ps(), _mm_setzero_ps(),
                 _mm_setzero_ps()};
  __m128 unordered = _mm_setzero_ps();
  for (; i + 16 <= values.size(); i += 16) {
    for (int j = 0; j < 4; ++j) {
      const __m128 x = _mm_loadu_ps(values.data() + i + 4 * j);
      unordered = _mm_or_ps(unordered, _mm_cmpunord_ps(x, x));
      m[j] = _mm_max_ps(m[j], _mm_and_ps(x, abs_mask));
    }
  }
  __m128 r = _mm_max_ps(_mm_max_ps(m[0], m[1]), _mm_max_ps(m[2], m[3]));
  r = _mm_max_ps(r, _mm_movehl_ps(r, r));
  r = _mm_max_ss(r, _mm_shuffle_ps(r, r, 0x55));
  out.value = _mm_cvtss_f32(r);
  out.nan = _mm_movemask_ps(unordered) != 0;
#endif
  for (; i < values.size(); ++i) {
    out.nan = out.nan || std::isnan(values[i]);
    out.value = std::max(out.value, std::fabs(values[i]));
  }
  return out;
}

std::int8_t ClampRound(float value, int bound) {
  const float r = std::nearbyint(value);
  const float clamped =
      std::clamp(r, static_cast<float>(-bound), static_cast<float>(bound));
  return static_cast<std::int8_t>(clamped);
}

/// dst[k] = ClampRound(src[k] / scale, 127) for finite src.  The vector body
/// clamps first and then rounds half to even with (v + 1.5*2^23) - 1.5*2^23;
/// for |v| <= 127 that is exactly nearbyint, and clamping before rounding
/// gives the same integer as clamping after for every non-NaN v.
void QuantizeRowI8(std::span<const float> src, float scale, std::int8_t* dst) {
  std::size_t i = 0;
#if defined(__SSE2__)
  const __m128 vscale = _mm_set1_ps(scale);
  const __m128 lo = _mm_set1_ps(-127.0f);
  const __m128 hi = _mm_set1_ps(127.0f);
  const __m128 magic = _mm_set1_ps(12582912.0f);  // 1.5 * 2^23
  for (; i + 16 <= src.size(); i += 16) {
    __m128i q[4];
    for (int j = 0; j < 4; ++j) {
      __m128 v = _mm_div_ps(_mm_loadu_ps(src.data() + i + 4 * j), vscale);
      v = _mm_min_ps(_mm_max_ps(v, lo), hi);
      q[j] = _mm_cvttps_epi32(_mm_sub_ps(_mm_add_ps(v, magic), magic));
    }
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     _mm_packs_epi16(_mm_packs_epi32(q[0], q[1]),
                                     _mm_packs_epi32(q[2], q[3])));
  }
#endif
  for (; i < src.size(); ++i) dst[i] = ClampRound(src[i] / scale, 127);
}

}  // namespace

FirstLevelResult QuantizeFirstLevel(const MatrixF& weights,
                                    FirstLevelOptions options) {
  const int bound = options.protective_range ? kProtectiveMax : 127;
  FirstLevelResult out;
  out.q = MatrixI8(weights.rows(), weights.cols());
  out.channel_scale.resize(weights.rows());
  for (std::size_t n = 0; n < weights.rows(); ++n) {
    const float absmax = RowAbsMax(weights.Row(n)).value;
    // A zero row quantizes to zeros with unit scale (avoids 0/0).
    const float scale =
        absmax > 0.0f ? absmax / static_cast<float>(bound) : 1.0f;
    out.channel_scale[n] = scale;
    const auto src = weights.Row(n);
    const auto dst = out.q.Row(n);
    for (std::size_t k = 0; k < src.size(); ++k) {
      dst[k] = ClampRound(src[k] / scale, bound);
    }
  }
  return out;
}

MatrixF DequantizeFirstLevel(const FirstLevelResult& q) {
  MatrixF out(q.q.rows(), q.q.cols());
  for (std::size_t n = 0; n < q.q.rows(); ++n) {
    const auto src = q.q.Row(n);
    const auto dst = out.Row(n);
    for (std::size_t k = 0; k < src.size(); ++k) {
      dst[k] = static_cast<float>(src[k]) * q.channel_scale[n];
    }
  }
  return out;
}

std::vector<float> ComputeSmoothScale(const MatrixF& act_sample,
                                      const MatrixF& weights, double alpha) {
  const std::size_t k_dim = weights.cols();
  std::vector<float> smooth(k_dim, 1.0f);
  for (std::size_t k = 0; k < k_dim; ++k) {
    float act_max = 0.0f;
    for (std::size_t m = 0; m < act_sample.rows(); ++m) {
      act_max = std::max(act_max, std::fabs(act_sample.At(m, k)));
    }
    float w_max = 0.0f;
    for (std::size_t n = 0; n < weights.rows(); ++n) {
      w_max = std::max(w_max, std::fabs(weights.At(n, k)));
    }
    if (act_max <= 0.0f || w_max <= 0.0f) continue;
    const double s = std::pow(act_max, alpha) / std::pow(w_max, 1.0 - alpha);
    if (s > 0.0 && std::isfinite(s)) smooth[k] = static_cast<float>(s);
  }
  return smooth;
}

void SmoothWeights(MatrixF& weights, std::span<const float> smooth) {
  for (std::size_t n = 0; n < weights.rows(); ++n) {
    const auto row = weights.Row(n);
    for (std::size_t k = 0; k < row.size(); ++k) row[k] *= smooth[k];
  }
}

void SmoothActivations(MatrixF& activations, std::span<const float> smooth) {
  for (std::size_t m = 0; m < activations.rows(); ++m) {
    const auto row = activations.Row(m);
    for (std::size_t k = 0; k < row.size(); ++k) row[k] /= smooth[k];
  }
}

double SearchSmoothAlpha(const MatrixF& act_sample, const MatrixF& weights,
                         int group_size, std::span<const double> candidates) {
  // Score each alpha by the INT8 reconstruction error of the smoothed
  // weights; group_size is accepted for interface symmetry with the
  // second-level quantizers but the first level is per-channel.
  (void)group_size;
  double best_alpha = 0.5;
  double best_err = std::numeric_limits<double>::infinity();
  for (const double alpha : candidates) {
    const auto smooth = ComputeSmoothScale(act_sample, weights, alpha);
    MatrixF smoothed = weights;
    SmoothWeights(smoothed, smooth);
    const FirstLevelResult q = QuantizeFirstLevel(smoothed);
    const MatrixF rec = DequantizeFirstLevel(q);
    double err = 0.0;
    for (std::size_t i = 0; i < rec.size(); ++i) {
      const double d = static_cast<double>(rec.Flat()[i]) -
                       static_cast<double>(smoothed.Flat()[i]);
      err += d * d;
    }
    if (err < best_err) {
      best_err = err;
      best_alpha = alpha;
    }
  }
  return best_alpha;
}

QuantizedActivations QuantizeActivationsPerToken(const MatrixF& activations) {
  QuantizedActivations out;
  out.q = MatrixI8(activations.rows(), activations.cols());
  out.token_scale.resize(activations.rows());
  for (std::size_t m = 0; m < activations.rows(); ++m) {
    const auto src = activations.Row(m);
    const AbsMax absmax = RowAbsMax(src);
    if (absmax.nan || !std::isfinite(absmax.value)) {
      throw std::invalid_argument(
          "QuantizeActivationsPerToken: token row " + std::to_string(m) +
          " holds a NaN or infinite activation");
    }
    // A zero row gets unit scale (avoids 0/0).  Below absmax ~ 1.8e-43 the
    // quotient underflows to 0; the floor keeps the division finite.
    const float scale =
        absmax.value > 0.0f
            ? std::max(absmax.value / 127.0f,
                       std::numeric_limits<float>::denorm_min())
            : 1.0f;
    out.token_scale[m] = scale;
    QuantizeRowI8(src, scale, out.q.Row(m).data());
  }
  return out;
}

MatrixF DequantizeActivations(const QuantizedActivations& acts) {
  MatrixF out(acts.q.rows(), acts.q.cols());
  for (std::size_t m = 0; m < acts.q.rows(); ++m) {
    const auto src = acts.q.Row(m);
    const auto dst = out.Row(m);
    for (std::size_t k = 0; k < src.size(); ++k) {
      dst[k] = static_cast<float>(src[k]) * acts.token_scale[m];
    }
  }
  return out;
}

}  // namespace liquid
