// Prefix-cache-aware placement study: shared-prefix mixture vs hit rate vs
// p99 TTFT.
//
// The workload models few-shot / system-preamble traffic: a configurable
// fraction of every prompt is a preamble shared across sessions (8 distinct
// preambles spread over 32 sessions), the rest is unique content.  Session
// stickiness (`affinity`) only ever exploits within-session locality; the
// `prefix_aware` preset scores each replica's resident PrefixIndex against
// the request's block signature, so it packs same-preamble work together and
// the scheduler skips the shared blocks' prefill compute.
//
// Sweep: shared fraction 0% (fully disjoint) → 75%, affinity vs prefix_aware
// at equal fleet size.  The claims the exit status enforces:
//   * on a >= 50% shared-prefix mix, prefix_aware beats affinity on p99 TTFT
//     and saves strictly more prefill tokens;
//   * on the fully disjoint mix it stays within noise of affinity (no tax
//     for carrying the index around).
//
// Usage: bench_prefix_routing [--quick] [--seed N] [--trace-out PATH]
//                             [--metrics-out PATH] [--json-out PATH]
//   --quick runs a smaller trace for CI; the telemetry/JSON sinks capture
//   the prefix_aware run on the 50% shared mix (see util/cli_flags.hpp).

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "cluster/cluster_sim.hpp"
#include "obs/prof/prof_sink.hpp"
#include "obs/telemetry_sink.hpp"
#include "util/cli_flags.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace liquid;
using namespace liquid::cluster;

namespace {

ReplicaSpec UnifiedReplica() {
  ReplicaSpec spec;
  spec.hw = simgpu::HardwareSpec::H800();
  spec.preset = serving::SystemPreset::LiquidServe();
  spec.model = serving::LlmConfig::Llama2_7B();
  spec.kv_pool_blocks = 4096;
  spec.block_tokens = 16;  // == TraceConfig::prefix_block_tokens
  spec.max_batch = 16;
  spec.dollars_per_hour = 2.2;
  return spec;
}

std::vector<serving::TimedRequest> SharedPrefixMix(double shared_fraction,
                                                   std::size_t count,
                                                   std::uint64_t seed) {
  serving::TraceConfig config;
  config.arrival_rate_per_s = 30.0;  // queues form: placement decides TTFT
  config.count = count;
  config.prompt_min = 1024;  // preambles only matter on real prompts
  config.prompt_max = 4096;
  config.output_min = 32;
  config.output_max = 128;
  config.sessions = 32;
  config.shared_prefix_fraction = shared_fraction;
  config.prefix_groups = 8;  // more preambles than replicas: placement matters
  config.prefix_block_tokens = 16;
  return serving::GenerateTrace(config, seed);
}

FleetStats RunPreset(RoutePolicy policy,
                     const std::vector<serving::TimedRequest>& trace,
                     std::size_t replicas,
                     obs::TraceRecorder* recorder = nullptr,
                     obs::MetricsRegistry* metrics = nullptr) {
  ClusterSimulator sim(policy);
  for (std::size_t i = 0; i < replicas; ++i) {
    sim.AddReplica(UnifiedReplica());
  }
  sim.AttachTelemetry(recorder, metrics);
  return sim.Run(trace);
}

}  // namespace

int main(int argc, char** argv) {
  const CliFlags flags = ParseCliFlags(argc, argv);
  RejectUnknownFlags(flags.positional);
  obs::MaybeEnableProfiler(flags);
  const std::size_t count = flags.quick ? 100 : 300;
  const std::uint64_t seed = flags.seed_set ? flags.seed : 7;
  const std::size_t replicas = 4;
  const double fractions[] = {0.0, 0.25, 0.5, 0.75};
  obs::TraceRecorder recorder;
  obs::MetricsRegistry metrics;
  const bool telemetry =
      flags.WantsTrace() || flags.WantsMetrics() || !flags.json_out.empty();

  Table table(
      "Shared-prefix mixture sweep, 4 unified replicas, prompts 1-4k tokens");
  table.SetHeader({"shared", "preset", "p50 TTFT", "p99 TTFT", "hit %",
                   "tokens saved", "done", "p99 TPOT"});

  bool shared_win = true;   // prefix_aware must win every >= 50% row
  bool disjoint_ok = true;  // and tie the 0% row
  for (const double fraction : fractions) {
    const auto trace = SharedPrefixMix(fraction, count, seed);
    const FleetStats affinity =
        RunPreset(RoutePolicy::kSessionAffinity, trace, replicas);
    // The telemetry sinks capture the prefix_aware run on the 50% mix — the
    // row where prefix-hit events actually fire.
    const bool capture = telemetry && fraction == 0.5;
    const FleetStats prefix =
        RunPreset(RoutePolicy::kPrefixAware, trace, replicas,
                  capture ? &recorder : nullptr, capture ? &metrics : nullptr);
    if (capture && !flags.json_out.empty()) {
      if (WriteFleetStatsJson(prefix, flags.json_out)) {
        std::printf("wrote fleet stats: %s\n", flags.json_out.c_str());
      } else {
        std::fprintf(stderr, "FAILED to write %s\n", flags.json_out.c_str());
        return 1;
      }
    }
    for (const auto& [label, s] :
         {std::pair<const char*, const FleetStats&>{"affinity", affinity},
          {"prefix_aware", prefix}}) {
      table.AddRow({Format("%.0f%%", 100.0 * fraction), label,
                    HumanTime(s.ttft.p50), HumanTime(s.ttft.p99),
                    Format("%.1f%%", 100.0 * s.prefix_hit_ratio),
                    WithCommas(static_cast<long long>(s.prefill_tokens_saved)),
                    std::to_string(s.completed), HumanTime(s.tpot.p99)});
    }
    if (fraction >= 0.5) {
      shared_win &= prefix.ttft.p99 < affinity.ttft.p99 &&
                    prefix.prefill_tokens_saved > affinity.prefill_tokens_saved;
    }
    if (fraction == 0.0) {
      // "Within noise": no shared blocks exist, so prefix_aware degenerates
      // to stickiness + load and must not regress the tail materially.
      disjoint_ok &= prefix.ttft.p99 <= affinity.ttft.p99 * 1.15;
    }
  }
  table.Print();

  std::printf(
      "\nprefix_aware on >=50%% shared mixes: %s; disjoint parity: %s\n",
      shared_win ? "WIN" : "LOSS", disjoint_ok ? "OK" : "REGRESSED");
  if (!obs::WriteProfile(flags)) return 1;
  if (!obs::WriteTelemetry(flags, recorder, metrics)) return 1;
  return shared_win && disjoint_ok ? 0 : 1;
}
