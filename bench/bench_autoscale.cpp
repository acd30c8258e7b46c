// Role-typed, cost-aware autoscaling study on burst→idle traces — the
// regime the arrival-driven autoscaler handled worst (it only ever ran when
// a request arrived, so after the burst the peak fleet burned $/hour across
// the whole idle tail).
//
// Sweep: a kilotoken-prompt burst that loads the README's best fixed
// 2P:4D disaggregated split, followed by a sparse keep-alive trickle over
// an idle tail of varying length.  For each tail length the fixed split is
// compared against the same fleet under role-typed autoscaling pools
// (prefill pool on queue depth, decode pool on free-KV pressure) with the
// cost-aware shrink objective and the periodic event-pump tick: the burst
// is served at full size, then the tail is served at the pool floors.
//
// Exit status is nonzero unless the autoscaled fleet strictly lowers
// $/1M tokens versus the fixed split at equal-or-better p99 TPOT on every
// tail length, so the bench doubles as a regression check.
//
// Usage: bench_autoscale [--quick] [--seed N] [--trace-out PATH]
//                        [--metrics-out PATH] [--json-out PATH]
//   --quick writes CI-sized sweeps; the telemetry/JSON sinks capture the
//   first tail's autoscaled run (see util/cli_flags.hpp for the full list).

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

constexpr double kPrefillDollarsPerHour = 2.8;
constexpr double kDecodeDollarsPerHour = 2.2;

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
  spec.dollars_per_hour = role == ReplicaRole::kPrefill
                              ? kPrefillDollarsPerHour
                              : kDecodeDollarsPerHour;
  return spec;
}

/// A kilotoken burst (same mix bench_disagg sizes the 2P:4D split on), then
/// a sparse keep-alive trickle across `tail_seconds` of idle.
std::vector<serving::TimedRequest> BurstIdleTrace(std::size_t burst_count,
                                                  double tail_seconds,
                                                  std::uint64_t seed) {
  serving::TraceConfig burst;
  burst.arrival_rate_per_s = 28.0;
  burst.count = burst_count;
  burst.prompt_min = 2048;
  burst.prompt_max = 8192;
  burst.output_min = 32;
  burst.output_max = 128;
  burst.sessions = 32;
  std::vector<serving::TimedRequest> trace =
      serving::GenerateTrace(burst, seed);
  const double burst_end = trace.back().arrival_seconds;

  serving::TraceConfig tail;
  tail.arrival_rate_per_s = 0.1;  // one keep-alive request every ~10 s
  tail.count = static_cast<std::size_t>(tail_seconds / 10.0);
  tail.prompt_min = 256;
  tail.prompt_max = 1024;
  tail.output_min = 32;
  tail.output_max = 64;
  tail.sessions = 4;
  for (serving::TimedRequest r : serving::GenerateTrace(tail, seed ^ 0x7A11)) {
    r.id += 1000000;
    r.session += 1000000;
    r.arrival_seconds += burst_end + 5.0;
    trace.push_back(r);
  }
  return trace;
}

FleetStats RunFixed(const std::vector<serving::TimedRequest>& trace) {
  DisaggConfig disagg;
  disagg.interconnect.bandwidth_gb_per_s = 400.0;
  disagg.max_migration_seconds = 0.25;
  ClusterSimulator sim(RoutePolicy::kLeastOutstanding, {}, {}, {}, disagg);
  for (int i = 0; i < 2; ++i) sim.AddReplica(Replica(ReplicaRole::kPrefill));
  for (int i = 0; i < 4; ++i) sim.AddReplica(Replica(ReplicaRole::kDecode));
  return sim.Run(trace);
}

FleetStats RunAutoscaled(const std::vector<serving::TimedRequest>& trace,
                         obs::TraceRecorder* recorder = nullptr,
                         obs::MetricsRegistry* metrics = nullptr) {
  AutoscaleConfig autoscale;
  autoscale.enabled = true;
  autoscale.cooldown_seconds = 2.0;
  autoscale.tick_seconds = 0.5;  // the event-pump tick covers the tail
  autoscale.cost_aware = true;   // the pricier pool shrinks first
  // k8s-style downscale stabilization: 3 s of continuously low readings
  // before any shrink, so mid-burst queue dips don't flap.
  autoscale.shrink_stable_seconds = 3.0;

  AutoscalePool prefill_pool;
  prefill_pool.role = ReplicaRole::kPrefill;
  prefill_pool.spec = Replica(ReplicaRole::kPrefill);
  prefill_pool.signal = AutoscaleSignal::kQueueDepth;
  prefill_pool.high = 12.0;
  prefill_pool.low = 0.5;
  prefill_pool.min_replicas = 1;
  prefill_pool.max_replicas = 3;

  AutoscalePool decode_pool;
  decode_pool.role = ReplicaRole::kDecode;
  decode_pool.spec = Replica(ReplicaRole::kDecode);
  decode_pool.signal = AutoscaleSignal::kFreeKv;  // KV pressure, role-typed
  decode_pool.high = 0.85;
  decode_pool.low = 0.05;
  decode_pool.min_replicas = 1;
  decode_pool.max_replicas = 6;

  autoscale.pools = {prefill_pool, decode_pool};

  DisaggConfig disagg;
  disagg.interconnect.bandwidth_gb_per_s = 400.0;
  disagg.max_migration_seconds = 0.25;
  ClusterSimulator sim(RoutePolicy::kLeastOutstanding, autoscale, {}, {},
                       disagg);
  for (int i = 0; i < 2; ++i) sim.AddReplica(Replica(ReplicaRole::kPrefill));
  for (int i = 0; i < 4; ++i) sim.AddReplica(Replica(ReplicaRole::kDecode));
  sim.AttachTelemetry(recorder, metrics);
  return sim.Run(trace);
}

void AddRow(Table& table, const std::string& label, const FleetStats& s) {
  table.AddRow({label, HumanTime(s.ttft.p99), HumanTime(s.tpot.p50),
                HumanTime(s.tpot.p99), std::to_string(s.completed),
                Format("%zu/%zu", s.scale_ups, s.scale_downs),
                std::to_string(s.replicas_final),
                Format("$%.4f", s.cost_dollars),
                Format("$%.2f", s.dollars_per_m_tokens)});
}

}  // namespace

int main(int argc, char** argv) {
  const CliFlags flags = ParseCliFlags(argc, argv);
  RejectUnknownFlags(flags.positional);
  obs::MaybeEnableProfiler(flags);
  const bool quick = flags.quick;
  const std::uint64_t seed = flags.seed_set ? flags.seed : 2026;
  const std::size_t burst = quick ? 100 : 240;
  std::vector<double> tails = quick ? std::vector<double>{120.0}
                                    : std::vector<double>{60.0, 120.0, 240.0};
  obs::TraceRecorder recorder;
  obs::MetricsRegistry metrics;
  const bool telemetry =
      flags.WantsTrace() || flags.WantsMetrics() || !flags.json_out.empty();

  Table table(Format(
      "Burst→idle sweep: fixed 2P:4D vs role-typed cost-aware autoscale "
      "(%zu-request kilotoken burst)",
      burst));
  table.SetHeader({"fleet", "p99 TTFT", "p50 TPOT", "p99 TPOT", "done",
                   "up/down", "final", "$fleet", "$/1Mtok"});

  bool all_win = true;
  double best_cut = 0;
  bool first_tail = true;
  for (const double tail : tails) {
    const auto trace = BurstIdleTrace(burst, tail, seed);
    const FleetStats fixed = RunFixed(trace);
    // The telemetry sinks capture the first tail's autoscaled run.
    const FleetStats autoscaled =
        RunAutoscaled(trace, telemetry && first_tail ? &recorder : nullptr,
                      telemetry && first_tail ? &metrics : nullptr);
    if (telemetry && first_tail && !flags.json_out.empty()) {
      if (WriteFleetStatsJson(autoscaled, flags.json_out)) {
        std::printf("wrote fleet stats: %s\n", flags.json_out.c_str());
      } else {
        std::fprintf(stderr, "FAILED to write %s\n", flags.json_out.c_str());
        return 1;
      }
    }
    first_tail = false;
    AddRow(table, Format("fixed 2P:4D, %.0fs tail", tail), fixed);
    AddRow(table, Format("autoscaled,  %.0fs tail", tail), autoscaled);

    const bool cheaper =
        autoscaled.dollars_per_m_tokens < fixed.dollars_per_m_tokens;
    const bool tpot_ok = autoscaled.tpot.p99 <= fixed.tpot.p99;
    all_win = all_win && cheaper && tpot_ok;
    if (cheaper && fixed.dollars_per_m_tokens > 0) {
      best_cut = std::max(
          best_cut, 1.0 - autoscaled.dollars_per_m_tokens /
                              fixed.dollars_per_m_tokens);
    }
    std::printf(
        "tail %5.0fs: $/1Mtok %s$%.2f -> $%.2f%s, p99 TPOT %s -> %s (%s)\n",
        tail, cheaper ? "" : "!", fixed.dollars_per_m_tokens,
        autoscaled.dollars_per_m_tokens, cheaper ? "" : "!",
        HumanTime(fixed.tpot.p99).c_str(),
        HumanTime(autoscaled.tpot.p99).c_str(),
        tpot_ok ? "equal-or-better" : "WORSE");
  }
  std::printf("\n");
  table.Print();

  std::printf("\nrole-typed + cost-aware autoscaling %s the fixed 2P:4D "
              "split (best $/1Mtok cut: %.0f%%)\n",
              all_win ? "beats" : "FAILED to beat", 100.0 * best_cut);
  if (!obs::WriteProfile(flags)) return 1;
  if (!obs::WriteTelemetry(flags, recorder, metrics)) return 1;
  return all_win ? 0 : 1;
}
