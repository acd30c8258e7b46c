#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace liquid {
namespace {

template <typename T>
Summary SummarizeImpl(std::span<const T> values) {
  Summary s;
  if (values.empty()) return s;
  s.count = values.size();
  s.min = std::numeric_limits<double>::infinity();
  s.max = -std::numeric_limits<double>::infinity();
  double mean = 0.0;
  double m2 = 0.0;
  std::size_t n = 0;
  for (const T v : values) {
    const double x = static_cast<double>(v);
    ++n;
    const double delta = x - mean;
    mean += delta / static_cast<double>(n);
    m2 += delta * (x - mean);
    s.min = std::min(s.min, x);
    s.max = std::max(s.max, x);
  }
  s.mean = mean;
  s.stddev = n > 1 ? std::sqrt(m2 / static_cast<double>(n - 1)) : 0.0;
  return s;
}

/// Where percentile `p` falls among `n` ordered values: between ranks `lo`
/// and `lo + 1`, `frac` of the way up.
struct Rank {
  std::size_t lo;
  double frac;
};

Rank RankOf(std::size_t n, double p) {
  p = std::clamp(p, 0.0, 100.0);
  const double rank = (p / 100.0) * static_cast<double>(n - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  return {lo, rank - static_cast<double>(lo)};
}

}  // namespace

Summary Summarize(std::span<const double> values) {
  return SummarizeImpl(values);
}
Summary Summarize(std::span<const float> values) { return SummarizeImpl(values); }

double Percentile(std::span<const double> values, double p) {
  if (values.empty()) return 0.0;
  const Rank r = RankOf(values.size(), p);
  // Only the order statistics at `lo` and `lo + 1` are needed: select `lo`,
  // then the next one is the minimum of the partition above it.
  std::vector<double> v(values.begin(), values.end());
  const auto at_lo = v.begin() + static_cast<std::ptrdiff_t>(r.lo);
  std::nth_element(v.begin(), at_lo, v.end());
  const double next =
      at_lo + 1 == v.end() ? *at_lo : *std::min_element(at_lo + 1, v.end());
  return *at_lo * (1.0 - r.frac) + next * r.frac;
}

double PercentileOfSorted(std::span<const double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  const Rank r = RankOf(sorted.size(), p);
  const std::size_t hi = std::min(r.lo + 1, sorted.size() - 1);
  return sorted[r.lo] * (1.0 - r.frac) + sorted[hi] * r.frac;
}

double MeanSquaredError(std::span<const float> reference,
                        std::span<const float> reconstructed) {
  if (reference.empty() || reference.size() != reconstructed.size()) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    const double d =
        static_cast<double>(reference[i]) - static_cast<double>(reconstructed[i]);
    acc += d * d;
  }
  return acc / static_cast<double>(reference.size());
}

double SignalToQuantNoiseDb(std::span<const float> reference,
                            std::span<const float> reconstructed) {
  const double mse = MeanSquaredError(reference, reconstructed);
  if (mse == 0.0) return std::numeric_limits<double>::infinity();
  double power = 0.0;
  for (const float v : reference) {
    power += static_cast<double>(v) * static_cast<double>(v);
  }
  power /= static_cast<double>(reference.size());
  return 10.0 * std::log10(power / mse);
}

double MaxAbsError(std::span<const float> reference,
                   std::span<const float> reconstructed) {
  double worst = 0.0;
  const std::size_t n = std::min(reference.size(), reconstructed.size());
  for (std::size_t i = 0; i < n; ++i) {
    worst = std::max(worst, std::abs(static_cast<double>(reference[i]) -
                                     static_cast<double>(reconstructed[i])));
  }
  return worst;
}

double RelativeFrobeniusError(std::span<const float> reference,
                              std::span<const float> reconstructed) {
  double num = 0.0;
  double den = 0.0;
  const std::size_t n = std::min(reference.size(), reconstructed.size());
  for (std::size_t i = 0; i < n; ++i) {
    const double d =
        static_cast<double>(reference[i]) - static_cast<double>(reconstructed[i]);
    num += d * d;
    den += static_cast<double>(reference[i]) * static_cast<double>(reference[i]);
  }
  if (den == 0.0) return num == 0.0 ? 0.0 : std::numeric_limits<double>::infinity();
  return std::sqrt(num / den);
}

double GeometricMean(std::span<const double> values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

}  // namespace liquid
