// Disaggregated prefill/decode serving study, two sweeps on a long-prompt-
// heavy mix (the regime where prefill/decode interference hurts most):
//
//  (1) Pool-ratio shootout at equal replica count: 6 unified replicas vs
//      prefill:decode splits 1:5 / 2:4 / 3:3 / 4:2 over an NVLink-class
//      interconnect.  The claim to verify (DistServe/Splitwise): moving
//      prefills off the decode pool tightens p99 TPOT — decode steps no
//      longer stall behind kilotoken prompts.
//
//  (2) Interconnect-bandwidth sweep at the best ratio, down to a dead link:
//      as bandwidth → 0 the migration budget rejects every transfer, the
//      coordinator decodes locally, and the fleet degrades gracefully to
//      unified-style serving instead of collapsing.
//
// Both tables report $/1M tokens from per-pool $/hour prices.  Exit status
// is nonzero if no disaggregated split beats the unified baseline's p99
// TPOT, so the bench doubles as a regression check.
//
// Usage: bench_disagg [--quick] [--seed N] [--trace-out PATH]
//                     [--metrics-out PATH] [--json-out PATH]
//   --quick runs a smaller trace for CI smoke; the telemetry/JSON sinks
//   capture the 2P:4D ratio run (see util/cli_flags.hpp for the full list).

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

constexpr double kPrefillDollarsPerHour = 2.8;  // prefill pool: compute-bound
constexpr double kDecodeDollarsPerHour = 2.2;   // decode pool: bandwidth-bound

ReplicaSpec Replica(ReplicaRole role) {
  ReplicaSpec spec;
  spec.hw = simgpu::HardwareSpec::H800();
  spec.preset = serving::SystemPreset::LiquidServe();
  spec.model = serving::LlmConfig::Llama2_7B();
  spec.kv_pool_blocks = 4096;  // 64k tokens: room for several huge prompts
  spec.block_tokens = 16;
  spec.max_batch = 16;
  spec.role = role;
  // Chunked prefill is the prefill pool's default: a kilotoken prompt
  // advances one 2048-token chunk per iteration, so a newly arrived prompt
  // is never stuck behind a whole competing prefill (Sarathi-style).
  if (role == ReplicaRole::kPrefill) {
    spec.options.prefill_chunk_tokens = 2048;
  }
  spec.dollars_per_hour = role == ReplicaRole::kPrefill
                              ? kPrefillDollarsPerHour
                              : kDecodeDollarsPerHour;
  return spec;
}

std::vector<serving::TimedRequest> LongPromptMix(std::size_t count,
                                                 std::uint64_t seed) {
  serving::TraceConfig config;
  config.arrival_rate_per_s = 28.0;  // keeps a 6-replica fleet busy
  config.count = count;
  config.prompt_min = 2048;  // long-prompt-heavy: every prompt is kilotoken
  config.prompt_max = 8192;
  config.output_min = 32;
  config.output_max = 128;
  config.sessions = 32;
  return serving::GenerateTrace(config, seed);
}

FleetStats RunSplit(const std::vector<serving::TimedRequest>& trace,
                    std::size_t prefills, std::size_t decodes,
                    double bandwidth_gb_per_s,
                    obs::TraceRecorder* recorder = nullptr,
                    obs::MetricsRegistry* metrics = nullptr) {
  DisaggConfig disagg;
  disagg.interconnect.bandwidth_gb_per_s = bandwidth_gb_per_s;
  disagg.max_migration_seconds = 0.25;
  ClusterSimulator sim(RoutePolicy::kLeastOutstanding, {}, {}, {}, disagg);
  for (std::size_t i = 0; i < prefills; ++i) {
    sim.AddReplica(Replica(ReplicaRole::kPrefill));
  }
  for (std::size_t i = 0; i < decodes; ++i) {
    sim.AddReplica(Replica(ReplicaRole::kDecode));
  }
  sim.AttachTelemetry(recorder, metrics);
  return sim.Run(trace);
}

FleetStats RunUnified(const std::vector<serving::TimedRequest>& trace,
                      std::size_t replicas) {
  ClusterSimulator sim(RoutePolicy::kLeastOutstanding);
  for (std::size_t i = 0; i < replicas; ++i) {
    ReplicaSpec spec = Replica(ReplicaRole::kUnified);
    sim.AddReplica(spec);
  }
  return sim.Run(trace);
}

void AddRow(Table& table, const std::string& label, const FleetStats& s) {
  table.AddRow({label, HumanTime(s.ttft.p50), HumanTime(s.ttft.p99),
                HumanTime(s.tpot.p50), HumanTime(s.tpot.p99),
                std::to_string(s.completed),
                std::to_string(s.disagg.migrated_requests),
                std::to_string(s.disagg.local_decode_fallbacks),
                Format("$%.2f", s.dollars_per_m_tokens)});
}

}  // namespace

int main(int argc, char** argv) {
  const CliFlags flags = ParseCliFlags(argc, argv);
  RejectUnknownFlags(flags.positional);
  obs::MaybeEnableProfiler(flags);
  const std::size_t count = flags.quick ? 80 : 300;
  const auto trace = LongPromptMix(count, flags.seed_set ? flags.seed : 2025);
  const double nvlink = 400.0;  // GB/s per directed link
  obs::TraceRecorder recorder;
  obs::MetricsRegistry metrics;
  const bool telemetry =
      flags.WantsTrace() || flags.WantsMetrics() || !flags.json_out.empty();

  Table ratios(
      "Prefill:decode pool ratio, 6 replicas, kilotoken prompts, 400 GB/s");
  ratios.SetHeader({"fleet", "p50 TTFT", "p99 TTFT", "p50 TPOT", "p99 TPOT",
                    "done", "migrated", "local", "$/1Mtok"});
  const FleetStats unified = RunUnified(trace, 6);
  AddRow(ratios, "unified x6", unified);
  FleetStats best;
  std::string best_label;
  const std::size_t splits[][2] = {{1, 5}, {2, 4}, {3, 3}, {4, 2}};
  for (const auto& split : splits) {
    // The telemetry sinks capture the 2P:4D run (the README's best split).
    const bool capture = telemetry && split[0] == 2;
    const FleetStats s =
        RunSplit(trace, split[0], split[1], nvlink,
                 capture ? &recorder : nullptr, capture ? &metrics : nullptr);
    if (capture && !flags.json_out.empty()) {
      if (WriteFleetStatsJson(s, flags.json_out)) {
        std::printf("wrote fleet stats: %s\n", flags.json_out.c_str());
      } else {
        std::fprintf(stderr, "FAILED to write %s\n", flags.json_out.c_str());
        return 1;
      }
    }
    const std::string label =
        Format("%zuP : %zuD", split[0], split[1]);
    AddRow(ratios, label, s);
    if (best_label.empty() || s.tpot.p99 < best.tpot.p99) {
      best = s;
      best_label = label;
    }
  }
  ratios.Print();
  std::printf("\n");

  Table bandwidth(Format("Interconnect sweep at %s (graceful degradation)",
                         best_label.c_str()));
  bandwidth.SetHeader({"link GB/s", "p50 TTFT", "p99 TTFT", "p50 TPOT",
                       "p99 TPOT", "done", "migrated", "local", "$/1Mtok"});
  std::size_t best_prefills = 2, best_decodes = 4;
  for (const auto& split : splits) {
    if (best_label == Format("%zuP : %zuD", split[0], split[1])) {
      best_prefills = split[0];
      best_decodes = split[1];
    }
  }
  const double links[] = {900.0, 400.0, 100.0, 25.0, 2.0, 0.5, 0.0};
  for (const double link : links) {
    const FleetStats s = RunSplit(trace, best_prefills, best_decodes, link);
    AddRow(bandwidth, Format("%g", link), s);
  }
  bandwidth.Print();

  std::printf(
      "\nmigration stall p50/p99 at %s, 400 GB/s: %s / %s over %.1f MB "
      "migrated KV\n",
      best_label.c_str(), HumanTime(best.disagg.migration_seconds.p50).c_str(),
      HumanTime(best.disagg.migration_seconds.p99).c_str(),
      best.disagg.migrated_kv_bytes / 1e6);
  std::printf("interference-free decode TPOT p99 (migrated requests): %s\n",
              HumanTime(best.disagg.migrated_tpot.p99).c_str());

  const bool win = best.tpot.p99 < unified.tpot.p99;
  std::printf("\n%s p99 TPOT %s vs unified %s: %s\n", best_label.c_str(),
              HumanTime(best.tpot.p99).c_str(),
              HumanTime(unified.tpot.p99).c_str(), win ? "WIN" : "LOSS");
  if (!obs::WriteProfile(flags)) return 1;
  if (!obs::WriteTelemetry(flags, recorder, metrics)) return 1;
  return win ? 0 : 1;
}
