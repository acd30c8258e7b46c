// Per-layer probes for simgpu, serving and the cluster router: each times one
// public call in isolation, on inputs generated from the run's seed.

#include <vector>

#include "cluster/router.hpp"
#include "serving/engine.hpp"
#include "serving/model_config.hpp"
#include "serving/scheduler.hpp"
#include "serving/system_preset.hpp"
#include "simgpu/gemm_sim.hpp"
#include "simgpu/hardware.hpp"
#include "util/rng.hpp"
#include "util/wall_timer.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using liquid::WallTimer;
using liquid::serving::ServingEngine;

/// Keeps probe results observable so the timed calls are not optimized out.
volatile double g_sink = 0;

ServingEngine FleetEngine() {
  return ServingEngine(liquid::simgpu::HardwareSpec::H800(),
                       liquid::serving::SystemPreset::LiquidServe(),
                       liquid::serving::LlmConfig::Llama2_7B());
}

/// SimulateGemmSequence over LayerGemms(b) for b = 1..16, in µs per call.
double SeqEvalUs() {
  const auto hw = liquid::simgpu::HardwareSpec::H800();
  const auto cfg = liquid::simgpu::KernelConfig::For(
      liquid::simgpu::KernelKind::kLiquidW4A8);
  const auto model = liquid::serving::LlmConfig::Llama2_7B();
  std::vector<std::vector<liquid::simgpu::GemmCall>> layers;
  for (std::size_t b = 1; b <= 16; ++b) layers.push_back(model.LayerGemms(b));
  double sink = 0;
  std::vector<double> per_call;
  WallTimer total;
  while (per_call.size() < 20 || total.Seconds() < 0.3) {
    WallTimer t;
    for (const auto& calls : layers) {
      sink += liquid::simgpu::SimulateGemmSequence(hw, cfg, calls);
    }
    per_call.push_back(t.Seconds() * 1e6 / static_cast<double>(layers.size()));
  }
  g_sink = sink;
  return Median(per_call);
}

/// DecodeStepSeconds on fresh engines (every key a memo miss) and then on a
/// repeated key (memo hit), in µs per call.
void DecodePrice(Report& report) {
  std::vector<std::pair<std::size_t, std::size_t>> keys;
  for (std::size_t b = 1; b <= 16; ++b) {
    for (const std::size_t kv : {160u, 400u, 700u, 1000u}) {
      keys.emplace_back(b, kv);
    }
  }
  double sink = 0;
  std::vector<double> cold;
  WallTimer total;
  while (cold.size() < 10 || total.Seconds() < 0.3) {
    const ServingEngine engine = FleetEngine();
    WallTimer t;
    for (const auto& [b, kv] : keys) sink += engine.DecodeStepSeconds(b, kv);
    cold.push_back(t.Seconds() * 1e6 / static_cast<double>(keys.size()));
  }
  const ServingEngine engine = FleetEngine();
  sink += engine.DecodeStepSeconds(8, 512);
  std::vector<double> warm;
  constexpr int kCalls = 20'000;
  for (int batch = 0; batch < 15; ++batch) {
    WallTimer t;
    for (int i = 0; i < kCalls; ++i) sink += engine.DecodeStepSeconds(8, 512);
    warm.push_back(t.Seconds() * 1e6 / kCalls);
  }
  g_sink = sink;
  report.Set("serving.decode_price_cold_us", Median(cold));
  report.Set("serving.decode_price_warm_us", Median(warm));
}

/// Every sixth request of the fleet_steady trace (what one of its six
/// replicas sees) replayed through one scheduler; each Step() timed.
void StepReplay(std::uint64_t seed, Report& report) {
  const auto full = SteadyTrace(seed);
  const ServingEngine engine = FleetEngine();
  liquid::serving::ContinuousBatchScheduler scheduler(engine, 4096, 16, 16);
  for (std::size_t i = 0; i < full.size(); i += 6) {
    scheduler.SubmitTimed(full[i]);
  }
  std::vector<double> step_us;
  double running = 0;
  for (;;) {
    WallTimer t;
    const bool more = scheduler.Step();
    const double us = t.Seconds() * 1e6;
    if (!more) break;
    step_us.push_back(us);
    running += static_cast<double>(scheduler.running());
  }
  const auto& stats = scheduler.stats();
  const Tail tail = TailOf(step_us);
  report.Set("serving.step_us_p50", Median(step_us));
  report.Set("serving.step_us_tail", tail.value);
  report.Set("serving.step_tail_pct", tail.percentile);
  report.Set("serving.steps", static_cast<double>(step_us.size()));
  report.Set("serving.batch_mean",
             step_us.empty() ? 0 : running / static_cast<double>(step_us.size()));
  report.Set("serving.preemptions", static_cast<double>(stats.preemptions));
  report.Set("serving.prefix_hit_ratio",
             stats.completed > 0 ? static_cast<double>(stats.prefix_hits) /
                                       static_cast<double>(stats.completed)
                                 : 0);
}

/// Router::Decide (least-outstanding preset) over six views, µs per call.
double DecideUs(std::uint64_t seed) {
  liquid::Rng rng(seed ^ 0xdec1deull);
  constexpr std::size_t kViewSets = 64;
  std::vector<std::vector<liquid::cluster::ReplicaView>> view_sets;
  std::vector<liquid::serving::TimedRequest> requests;
  for (std::size_t s = 0; s < kViewSets; ++s) {
    std::vector<liquid::cluster::ReplicaView> views(6);
    for (auto& v : views) {
      v.outstanding = rng.Below(32);
      v.total_kv_blocks = 4096;
      v.free_kv_blocks = rng.Below(4096);
      v.est_ttft_seconds = rng.Uniform(0.02, 0.5);
    }
    view_sets.push_back(std::move(views));
    liquid::serving::TimedRequest r;
    r.id = s;
    r.prompt_tokens = 128 + rng.Below(896);
    r.max_new_tokens = 16 + rng.Below(48);
    r.session = rng.Below(256);
    requests.push_back(r);
  }
  liquid::cluster::Router router(liquid::cluster::RoutePolicy::kLeastOutstanding);
  double sink = 0;
  std::vector<double> per_call;
  constexpr std::size_t kCalls = 4096;
  WallTimer total;
  while (per_call.size() < 20 || total.Seconds() < 0.2) {
    WallTimer t;
    for (std::size_t i = 0; i < kCalls; ++i) {
      const auto d = router.Decide(requests[i % kViewSets],
                                   view_sets[i % kViewSets]);
      sink += static_cast<double>(d.replica.value_or(0));
    }
    per_call.push_back(t.Seconds() * 1e6 / kCalls);
  }
  g_sink = sink;
  return Median(per_call);
}

}  // namespace

void LayerProbes(std::uint64_t seed, Report& report) {
  report.Set("simgpu.seq_eval_us", SeqEvalUs());
  DecodePrice(report);
  StepReplay(seed, report);
  report.Set("cluster.decide_us_p50", DecideUs(seed));
}

}  // namespace perfbench
