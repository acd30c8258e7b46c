// Telemetry overhead gate: the same disaggregated chaos-free fleet run with
// and without a TraceRecorder + MetricsRegistry attached, interleaved A/B
// over several repetitions.  Tracing records POD events into a vector and
// metrics sample only at instants the simulation already visits, so the
// attached run should cost within noise of the detached one.
//
// The gate compares min-of-reps wall time (min is the standard low-noise
// estimator for "how fast can this go"): exit status is nonzero if the
// traced minimum exceeds 1.05x the untraced minimum, so CI fails the build
// when telemetry stops being cheap.
//
// Usage: bench_telemetry_overhead [--quick] [--seed N]

#include <cstdio>
#include <vector>

#include "cluster/cluster_sim.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_recorder.hpp"
#include "util/cli_flags.hpp"
#include "util/wall_timer.hpp"

using namespace liquid;
using namespace liquid::cluster;

namespace {

constexpr double kMaxSlowdown = 1.05;  // the <5% overhead budget CI enforces

ReplicaSpec Replica(ReplicaRole role) {
  ReplicaSpec spec;
  spec.hw = simgpu::HardwareSpec::H800();
  spec.preset = serving::SystemPreset::LiquidServe();
  spec.model = serving::LlmConfig::Llama2_7B();
  spec.kv_pool_blocks = 4096;
  spec.block_tokens = 16;
  spec.max_batch = 16;
  spec.role = role;
  if (role == ReplicaRole::kPrefill) {
    spec.options.prefill_chunk_tokens = 2048;
  }
  spec.dollars_per_hour = role == ReplicaRole::kPrefill ? 2.8 : 2.2;
  return spec;
}

/// One 2P:4D disaggregated run — the busiest telemetry path (arrival, route,
/// span, prefix, handoff, and migration events all fire).  Fresh simulator
/// per call so the A and B arms never share warmed state.
double RunOnce(const std::vector<serving::TimedRequest>& trace, bool traced,
               std::size_t& events, std::size_t& samples) {
  DisaggConfig disagg;
  disagg.interconnect.bandwidth_gb_per_s = 400.0;
  disagg.max_migration_seconds = 0.25;
  ClusterSimulator sim(RoutePolicy::kLeastOutstanding, {}, {}, {}, disagg);
  for (int i = 0; i < 2; ++i) sim.AddReplica(Replica(ReplicaRole::kPrefill));
  for (int i = 0; i < 4; ++i) sim.AddReplica(Replica(ReplicaRole::kDecode));

  obs::TraceRecorder recorder;
  obs::MetricsRegistry metrics;
  if (traced) sim.AttachTelemetry(&recorder, &metrics);

  const WallTimer timer;
  sim.Run(trace);
  const double seconds = timer.Seconds();
  if (traced) {
    events = recorder.events().size();
    samples = metrics.rows();
  }
  return seconds;
}

}  // namespace

int main(int argc, char** argv) {
  const CliFlags flags = ParseCliFlags(argc, argv);
  RejectUnknownFlags(flags.positional);
  const std::size_t count = flags.quick ? 120 : 400;
  const int reps = flags.quick ? 3 : 5;

  serving::TraceConfig config;
  config.arrival_rate_per_s = 28.0;
  config.count = count;
  config.prompt_min = 2048;
  config.prompt_max = 8192;
  config.output_min = 32;
  config.output_max = 128;
  config.sessions = 32;
  const auto trace =
      serving::GenerateTrace(config, flags.seed_set ? flags.seed : 7);

  std::size_t events = 0, samples = 0;
  double untraced_min = 0, traced_min = 0;
  // Warm-up pass (untimed gate-wise — it still lands in the min, which only
  // tightens), then interleave the arms so clock drift hits both equally.
  for (int rep = 0; rep < reps; ++rep) {
    const double plain = RunOnce(trace, false, events, samples);
    const double traced = RunOnce(trace, true, events, samples);
    untraced_min = rep == 0 ? plain : std::min(untraced_min, plain);
    traced_min = rep == 0 ? traced : std::min(traced_min, traced);
    std::printf("rep %d: untraced %.3fs, traced %.3fs\n", rep + 1, plain,
                traced);
  }

  const double slowdown = traced_min / untraced_min;
  std::printf(
      "\n%zu requests -> %zu trace events, %zu metric sample rows\n"
      "min wall time: untraced %.3fs, traced %.3fs -> %.2fx (budget %.2fx)\n",
      trace.size(), events, samples, untraced_min, traced_min, slowdown,
      kMaxSlowdown);

  const bool ok = slowdown <= kMaxSlowdown;
  std::printf("telemetry overhead gate: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
