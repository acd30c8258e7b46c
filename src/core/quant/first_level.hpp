#pragma once
// First-level quantization (paper Section 4 / Section 6, "Offline
// Quantization"): SmoothQuant-style smoothing followed by symmetric
// per-channel FP -> INT8 quantization with the protective range [-119, 119].
//
// The protective range (from QServe, adopted by LiquidQuant) guarantees that
// the second-level scale s_u8 = (max - min)/15 never exceeds 16, which is what
// makes the register-parallel dequantization overflow-free (Section 4 proof).

#include <cstdint>
#include <span>
#include <vector>

#include "core/types.hpp"

namespace liquid {

/// Result of the first quantization level.
struct FirstLevelResult {
  MatrixI8 q;                        ///< [N x K], each value in [-119, 119]
  std::vector<float> channel_scale;  ///< [N]; W[n,k] ≈ q[n,k] * channel_scale[n]
};

struct FirstLevelOptions {
  /// Clamp to [-protective_max, +protective_max] instead of the full INT8
  /// range.  true reproduces QServe/LQQ; false gives a plain symmetric INT8
  /// quantizer (used by the W8A8 baseline).
  bool protective_range = true;
};

/// Symmetric per-channel quantization of W [N x K] to INT8.
FirstLevelResult QuantizeFirstLevel(const MatrixF& weights,
                                    FirstLevelOptions options = {});

/// Dequantizes a first-level tensor back to float (Equation 2 with z = 0).
MatrixF DequantizeFirstLevel(const FirstLevelResult& q);

/// SmoothQuant smoothing factors (Section 6): per-K-column scale
///   smooth[k] = max|X[:,k]|^alpha / max|W[:,k]|^(1-alpha)
/// Weights are multiplied by smooth, activations divided, preserving X·Wᵀ
/// exactly while moving activation outliers into the (4-bit-grouped) weights.
std::vector<float> ComputeSmoothScale(const MatrixF& act_sample,
                                      const MatrixF& weights, double alpha);

/// Applies smoothing in place: W[n,k] *= smooth[k].
void SmoothWeights(MatrixF& weights, std::span<const float> smooth);
/// Applies the inverse smoothing to activations in place: X[m,k] /= smooth[k].
void SmoothActivations(MatrixF& activations, std::span<const float> smooth);

/// Grid search for the smoothing exponent alpha minimizing the quantization
/// MSE of the smoothed weights (OutlierSuppression+-style search, Section 6).
double SearchSmoothAlpha(const MatrixF& act_sample, const MatrixF& weights,
                         int group_size, std::span<const double> candidates);

/// Per-token symmetric INT8 activation quantization (Section 6, fused
/// on-the-fly in serving; here a standalone reference): scale = absmax / 127,
/// q = clamp(nearbyint(x / scale), -127, 127), rounding half to even.
/// Throws std::invalid_argument naming the row if a token holds a NaN or an
/// infinity, which has no finite scale.
QuantizedActivations QuantizeActivationsPerToken(const MatrixF& activations);

/// Dequantizes per-token activations back to float.
MatrixF DequantizeActivations(const QuantizedActivations& acts);

}  // namespace liquid
