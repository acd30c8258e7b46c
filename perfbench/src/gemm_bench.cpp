// gemm_decode / gemm_prefill and the core-layer probe.
//
// The weights are the four projection GEMMs of one LLaMA-2-7B decoder layer
// sharded 4-way (ShardModel(Llama2_7B(), 4).LayerGemms): ~50.6M weights,
// ~25 MB packed as LQQ UINT4.  On a host whose L3 holds them (300 MiB here)
// the timed calls run from cache, not DRAM; the printed host fingerprint
// carries the L3 size next to these numbers.

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

#include "core/api.hpp"
#include "core/gemm/gemm_counters.hpp"
#include "host.hpp"
#include "obs/prof/wall_profiler.hpp"
#include "serving/model_config.hpp"
#include "serving/tensor_parallel.hpp"
#include "util/rng.hpp"
#include "util/wall_timer.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using liquid::GemmProvider;
using liquid::MatrixF;

constexpr std::size_t kDecodeM = 4;
constexpr std::size_t kPrefillM = 256;

struct Projection {
  const char* name;  ///< qkv | o | gate_up | down
  const char* span;  ///< benchmark-side profiler span around its call
  std::size_t n = 0;
  std::size_t k = 0;
  MatrixF weights;   ///< fp32 [n x k], the quantizer's input
  liquid::LqqWeights lqq;
};

/// Fills `m` with uniform values in [-scale, scale) from `rng`.
void Fill(MatrixF& m, liquid::Rng& rng, float scale) {
  for (float& v : m.Flat()) {
    v = static_cast<float>(rng.Uniform(-scale, scale));
  }
}

/// FNV-style checksum over a float matrix's bit patterns, 8 bytes a step.
std::uint64_t Checksum(const MatrixF& y, std::uint64_t h) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(y.data());
  const std::size_t size = y.size() * sizeof(float);
  for (std::size_t at = 0; at < size; at += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, bytes + at, std::min<std::size_t>(8, size - at));
    h = (h ^ w) * 1099511628211ull;
  }
  return h;
}

/// One sharded decoder layer: fp32 weights, their LQQ form, and activations
/// at each M the workload uses.
class Layer {
 public:
  explicit Layer(std::uint64_t seed) {
    const auto shard = liquid::serving::ShardModel(
        liquid::serving::LlmConfig::Llama2_7B(), 4);
    const auto calls = shard.LayerGemms(1);
    static constexpr const char* kNames[] = {"qkv", "o", "gate_up", "down"};
    static constexpr const char* kSpans[] = {"bench/gemm/qkv", "bench/gemm/o",
                                             "bench/gemm/gate_up",
                                             "bench/gemm/down"};
    liquid::Rng rng(seed ^ 0x6e6d6d5eedull);
    for (std::size_t i = 0; i < calls.size() && i < 4; ++i) {
      Projection p{kNames[i], kSpans[i], calls[i].shape.n, calls[i].shape.k,
                   MatrixF(calls[i].shape.n, calls[i].shape.k), {}};
      Fill(p.weights, rng, 0.05f);
      projections_.push_back(std::move(p));
    }
  }

  void Quantize() {
    for (Projection& p : projections_) {
      p.lqq = liquid::QuantizeWeightsLqq(p.weights);
    }
  }

  /// Activations [m x k] per projection, generated from `seed`.
  [[nodiscard]] std::vector<MatrixF> Activations(std::size_t m,
                                                 std::uint64_t seed) const {
    liquid::Rng rng(seed ^ (0xac7ull + m));
    std::vector<MatrixF> xs;
    for (const Projection& p : projections_) {
      MatrixF x(m, p.k);
      Fill(x, rng, 1.0f);
      xs.push_back(std::move(x));
    }
    return xs;
  }

  [[nodiscard]] double Macs(std::size_t m) const {
    double macs = 0;
    for (const Projection& p : projections_) {
      macs += static_cast<double>(m) * static_cast<double>(p.n) *
              static_cast<double>(p.k);
    }
    return macs;
  }

  [[nodiscard]] const std::vector<Projection>& projections() const {
    return projections_;
  }

 private:
  std::vector<Projection> projections_;
};

/// One operation: LiquidGemm over the four projections.  Only the calls are
/// timed; the checksum of every output is folded into `*checksum`.
double LayerCall(const Layer& layer, const std::vector<MatrixF>& xs,
                 GemmProvider provider, std::uint64_t* checksum) {
  double seconds = 0;
  std::uint64_t h = 1469598103934665603ull;
  const auto& ps = layer.projections();
  for (std::size_t i = 0; i < ps.size(); ++i) {
    liquid::WallTimer timer;
    MatrixF y;
    {
      liquid::obs::WallProfileScope span(ps[i].span);
      y = liquid::LiquidGemm(xs[i], ps[i].lqq, provider);
    }
    seconds += timer.Seconds();
    h = Checksum(y, h);
  }
  *checksum = h;
  return seconds;
}

class GemmWorkload final : public Workload {
 public:
  GemmWorkload(std::size_t m, std::uint64_t seed)
      : m_(m), seed_(seed), layer_(seed), xs_(layer_.Activations(m, seed)) {}

  OpResult Setup() override {
    layer_.Quantize();
    std::uint64_t sum = 0;
    OpResult r;
    r.seconds = LayerCall(layer_, xs_, GemmProvider::kAuto, &sum);
    r.work = layer_.Macs(m_) / 1e9;
    if (!have_reference_) {
      reference_ = sum;
      have_reference_ = true;
    }
    r.ok = sum == reference_;
    return r;
  }

  void PreTimingChecks(Report& report) override {
    // Bit-exact parity with the scalar reference provider at both M values
    // the gemm workloads use, projection by projection.
    for (const std::size_t m : {kDecodeM, kPrefillM}) {
      const std::vector<MatrixF> xs =
          m == m_ ? xs_ : layer_.Activations(m, seed_);
      for (std::size_t i = 0; i < layer_.projections().size(); ++i) {
        const Projection& p = layer_.projections()[i];
        const MatrixF fast = liquid::LiquidGemm(xs[i], p.lqq);
        const MatrixF ref =
            liquid::LiquidGemm(xs[i], p.lqq, GemmProvider::kReference);
        const bool same =
            fast.size() == ref.size() &&
            std::memcmp(fast.data(), ref.data(),
                        fast.size() * sizeof(float)) == 0;
        report.CountOp(same);
        if (!same) {
          report.Fail(std::string("provider output differs from reference: ") +
                      p.name + " at M=" + std::to_string(m));
        }
      }
    }
  }

  [[nodiscard]] std::size_t InputId(std::size_t /*i*/) const override {
    return 0;
  }

  OpResult Op(std::size_t /*i*/) override {
    std::uint64_t sum = 0;
    OpResult r;
    r.seconds = LayerCall(layer_, xs_, GemmProvider::kAuto, &sum);
    r.work = layer_.Macs(m_) / 1e9;
    r.ok = sum == reference_;
    return r;
  }

  [[nodiscard]] std::size_t TracedOps() const override {
    return m_ >= kPrefillM ? 8 : 400;
  }
  [[nodiscard]] std::size_t ProbeM() const override { return m_; }
  void DigestMetrics(Report& /*report*/) const override {}
  [[nodiscard]] bool IsFleet() const override { return false; }

 private:
  std::size_t m_;
  std::uint64_t seed_;
  Layer layer_;
  std::vector<MatrixF> xs_;
  std::uint64_t reference_ = 0;
  bool have_reference_ = false;
};

/// Seconds of `fn`, once.
template <typename Fn>
double Time(Fn&& fn) {
  liquid::WallTimer t;
  fn();
  return t.Seconds();
}

}  // namespace

std::unique_ptr<Workload> MakeGemmWorkload(std::size_t m, std::uint64_t seed) {
  return std::make_unique<GemmWorkload>(m, seed);
}

void CoreProbe(std::size_t m, std::uint64_t seed, Report& report) {
  Layer layer(seed);
  layer.Quantize();
  const std::vector<MatrixF> xs = layer.Activations(m, seed);
  const std::vector<MatrixF> x1 = layer.Activations(1, seed);
  const auto& ps = layer.projections();

  std::vector<liquid::QuantizedActivations> qx, qx1;
  std::vector<liquid::W8A8Weights> w8;
  for (std::size_t i = 0; i < ps.size(); ++i) {
    qx.push_back(liquid::QuantizeActivationsPerToken(xs[i]));
    qx1.push_back(liquid::QuantizeActivationsPerToken(x1[i]));
    w8.push_back(liquid::QuantizeWeightsW8A8(ps[i].weights));
  }

  // The peak probe runs first: its second of all-thread warm-up wakes the
  // cores a long single-threaded fleet run left idle before any GEMM is
  // timed.  A short untimed pass over the layer finishes the warm-up.
  std::string isa;
  const double peak = Int8PeakGmacPerSecond(&isa);
  liquid::WallTimer warm;
  while (warm.Seconds() < 0.3) {
    for (std::size_t i = 0; i < ps.size(); ++i) {
      (void)liquid::LiquidGemm(xs[i], ps[i].lqq);
    }
  }

  // Rounds interleave every kernel on every projection, so a burst of host
  // contention lands on all of them alike; each figure is a per-kernel,
  // per-projection median over the rounds.
  enum Kernel { kGemm, kLqq, kW8a8, kM1, kAct, kKernels };
  std::vector<std::array<std::vector<double>, kKernels>> samples(ps.size());
  const double min_s = m >= kPrefillM ? 3.0 : 1.5;
  liquid::WallTimer rounds;
  for (int round = 0; round < 5 || rounds.Seconds() < min_s; ++round) {
    for (std::size_t i = 0; i < ps.size(); ++i) {
      auto& at = samples[i];
      at[kGemm].push_back(
          Time([&] { (void)liquid::LiquidGemm(xs[i], ps[i].lqq); }));
      at[kLqq].push_back(
          Time([&] { (void)liquid::GemmW4A8Liquid(qx[i], ps[i].lqq); }));
      at[kW8a8].push_back(
          Time([&] { (void)liquid::GemmW8A8(qx[i], w8[i]); }));
      at[kM1].push_back(
          Time([&] { (void)liquid::GemmW4A8Liquid(qx1[i], ps[i].lqq); }));
      at[kAct].push_back(
          Time([&] { (void)liquid::QuantizeActivationsPerToken(xs[i]); }));
    }
  }
  double t_gemm = 0, t_lqq = 0, t_w8a8 = 0, t_m1 = 0, t_act = 0, elems = 0;
  for (std::size_t i = 0; i < ps.size(); ++i) {
    const auto median = [&](Kernel k) { return Median(samples[i][k]); };
    report.Set(std::string("core.") + ps[i].name + "_ms", median(kGemm) * 1e3);
    t_gemm += median(kGemm);
    t_lqq += median(kLqq);
    t_w8a8 += median(kW8a8);
    t_m1 += median(kM1);
    t_act += median(kAct);
    elems += static_cast<double>(ps[i].n) * static_cast<double>(ps[i].k);
  }

  const double gemm_rate = layer.Macs(m) / t_gemm / 1e9;
  report.Set("core.probe_m", static_cast<double>(m));
  report.Set("core.int8_peak_gmac_per_s", peak);
  report.Set("core.gemm_gmac_per_s", gemm_rate);
  report.Set("core.int8_peak_frac", peak > 0 ? gemm_rate / peak : 0);
  report.Set("core.dequant_gelem_per_s", elems / t_m1 / 1e9);
  report.Set("core.int8_dot_gmac_per_s", layer.Macs(m) / t_w8a8 / 1e9);
  report.Set("core.dequant_share", 1.0 - t_w8a8 / t_lqq);
  report.Set("core.act_quant_ms", t_act * 1e3);
  std::printf("core probe: M=%zu, int8 peak %.1f GMAC/s via %s\n", m, peak,
              isa.c_str());

  namespace gs = liquid::gemmstats;
  gs::ResetGemmCounters();
  for (std::size_t i = 0; i < ps.size(); ++i) {
    (void)liquid::LiquidGemm(xs[i], ps[i].lqq);
  }
  const gs::KernelTotals totals = gs::Totals(gs::Kernel::kW4A8Lqq);
  report.Set("core.macs_per_call", static_cast<double>(totals.macs));
  report.Set("core.bytes_per_call", static_cast<double>(totals.bytes));
  report.Set("core.ops_per_byte",
             totals.bytes > 0 ? 2.0 * static_cast<double>(totals.macs) /
                                    static_cast<double>(totals.bytes)
                              : 0);
}

}  // namespace perfbench
