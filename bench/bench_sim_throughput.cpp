// Simulator-throughput benchmark: how fast does the simulator itself run?
// Replays a large generated trace of short-prompt requests (1M requests by
// default, 100k with --quick) through two fleets — 6 unified replicas, and a
// 2P:4D disaggregated split over an NVLink-class link (the busiest code
// path: routing, chunked prefill, handoff planning, KV migration, decode) —
// and reports the host-side cost: events processed (engine iterations +
// fleet events), events/sec, sim-seconds per wall-second, and wall-seconds
// per simulated hour.  Both fleets replay the SAME trace, once each.
//
// The JSON artifact is the unit CI's bench-regression tracking consumes:
// `bench/compare_baselines.py` checks the deterministic counters
// (events_processed, completed, ...) exactly and reports — without gating —
// the wall-clock rates, so a change that silently makes the simulator do
// more work per request fails the build even on noisy CI hosts.
//
// Exit status is nonzero if any fleet breaks request conservation
// (completed + dropped + rejected + lost != submitted + retried) or
// processes zero events, so the bench doubles as a large-trace soak test.
//
// Usage: bench_sim_throughput [--quick] [--seed N] [--requests N]
//                             [--json-out PATH] [--profile-out BASE]
//   --quick replays 100k requests (CI-sized); the default is 1M.
//   --requests N overrides both.  --profile-out enables the wall-clock
//   profiler for the runs and writes BASE.txt/.csv/.folded/... on exit.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "cluster/cluster_sim.hpp"
#include "obs/prof/prof_sink.hpp"
#include "util/cli_flags.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace liquid;
using namespace liquid::cluster;

namespace {

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

/// Short-prompt interactive mix: per-request work is small, so the request
/// count (not prompt length) dominates and the fleet-event machinery —
/// routing, admission, retirement — gets exercised at volume.
std::vector<serving::TimedRequest> ShortPromptMix(std::size_t count,
                                                  std::uint64_t seed) {
  serving::TraceConfig config;
  config.arrival_rate_per_s = 120.0;
  config.count = count;
  config.prompt_min = 128;
  config.prompt_max = 1024;
  config.output_min = 16;
  config.output_max = 64;
  config.sessions = 256;
  return serving::GenerateTrace(config, seed);
}

FleetStats RunUnified(const std::vector<serving::TimedRequest>& trace) {
  ClusterSimulator sim(RoutePolicy::kLeastOutstanding);
  for (int i = 0; i < 6; ++i) sim.AddReplica(Replica(ReplicaRole::kUnified));
  return sim.Run(trace);
}

FleetStats RunDisagg(const std::vector<serving::TimedRequest>& trace) {
  DisaggConfig disagg;
  disagg.interconnect.bandwidth_gb_per_s = 400.0;
  disagg.max_migration_seconds = 0.25;
  ClusterSimulator sim(RoutePolicy::kLeastOutstanding, {}, {}, {}, disagg);
  for (int i = 0; i < 2; ++i) sim.AddReplica(Replica(ReplicaRole::kPrefill));
  for (int i = 0; i < 4; ++i) sim.AddReplica(Replica(ReplicaRole::kDecode));
  return sim.Run(trace);
}

bool Conserved(const FleetStats& s) {
  return s.completed + s.dropped + s.rejected_requests + s.lost_requests ==
         s.submitted + s.retried_requests;
}

struct FleetRun {
  std::string name;  ///< fleet label, e.g. "unified_x6_t1"
  FleetStats stats;
};

void AddRow(Table& table, const FleetRun& run) {
  const SimThroughput& t = run.stats.sim_throughput;
  table.AddRow({run.name, WithCommas(t.events_processed),
                Format("%.1f", t.sim_seconds), Format("%.3f", t.wall_seconds),
                WithCommas(static_cast<std::uint64_t>(t.events_per_sec)),
                Format("%.3f", t.wall_seconds_per_sim_hour)});
}

void WriteFleetJson(JsonWriter& w, const FleetRun& run) {
  const FleetStats& s = run.stats;
  const SimThroughput& t = s.sim_throughput;
  w.BeginObject();
  w.Key("name").String(run.name);
  w.Key("submitted").Number(static_cast<std::uint64_t>(s.submitted));
  w.Key("completed").Number(static_cast<std::uint64_t>(s.completed));
  w.Key("events_processed").Number(t.events_processed);
  w.Key("engine_iterations").Number(t.engine_iterations);
  w.Key("fleet_events").Number(t.fleet_events);
  w.Key("sim_seconds").Number(t.sim_seconds);
  w.Key("wall_seconds").Number(t.wall_seconds);
  w.Key("events_per_sec").Number(t.events_per_sec);
  w.Key("sim_seconds_per_wall_second").Number(t.sim_seconds_per_wall_second);
  w.Key("wall_seconds_per_sim_hour").Number(t.wall_seconds_per_sim_hour);
  w.EndObject();
}

}  // namespace

int main(int argc, char** argv) {
  const CliFlags flags = ParseCliFlags(argc, argv);
  std::size_t count = flags.quick ? 100'000 : 1'000'000;
  std::vector<std::string> unparsed;
  for (std::size_t i = 0; i < flags.positional.size(); ++i) {
    const std::string& arg = flags.positional[i];
    if (arg == "--requests" && i + 1 < flags.positional.size()) {
      count = std::strtoull(flags.positional[++i].c_str(), nullptr, 10);
    } else if (arg.rfind("--requests=", 0) == 0) {
      count = std::strtoull(arg.c_str() + 11, nullptr, 10);
    } else {
      unparsed.push_back(arg);
    }
  }
  RejectUnknownFlags(unparsed);
  const std::uint64_t seed = flags.seed_set ? flags.seed : 1;

  std::printf("generating %zu-request trace (seed %llu)...\n", count,
              static_cast<unsigned long long>(seed));
  const auto trace = ShortPromptMix(count, seed);

  obs::MaybeEnableProfiler(flags);

  // The row names keep their historical "_t1" suffix so the committed
  // baseline rows still pair up by name.
  std::vector<FleetRun> runs;
  std::printf("running unified_x6_t1...\n");
  runs.push_back({"unified_x6_t1", RunUnified(trace)});
  std::printf("running disagg_2p4d_t1...\n");
  runs.push_back({"disagg_2p4d_t1", RunDisagg(trace)});

  Table table(Format("Simulator throughput, %zu requests", count));
  table.SetHeader({"fleet", "events", "sim s", "wall s", "events/s",
                   "wall s / sim h"});
  for (const FleetRun& run : runs) AddRow(table, run);
  table.Print();

  if (!obs::WriteProfile(flags)) return 1;

  if (!flags.json_out.empty()) {
    JsonWriter w;
    w.BeginObject();
    w.Key("bench").String("sim_throughput");
    w.Key("quick").Bool(flags.quick);
    w.Key("requests").Number(static_cast<std::uint64_t>(count));
    w.Key("seed").Number(seed);
    w.Key("fleets").BeginArray();
    for (const FleetRun& run : runs) WriteFleetJson(w, run);
    w.EndArray();
    w.EndObject();
    std::string json = w.TakeString();
    json.push_back('\n');
    if (!JsonSyntaxValid(json)) {
      std::fprintf(stderr, "FAILED: emitted invalid JSON\n");
      return 1;
    }
    std::FILE* f = std::fopen(flags.json_out.c_str(), "w");
    if (f == nullptr ||
        std::fwrite(json.data(), 1, json.size(), f) != json.size()) {
      if (f != nullptr) std::fclose(f);
      std::fprintf(stderr, "FAILED to write %s\n", flags.json_out.c_str());
      return 1;
    }
    std::fclose(f);
    std::printf("wrote bench summary: %s\n", flags.json_out.c_str());
  }

  // Soak gate: conservation and nonzero work for every fleet.
  bool ok = true;
  for (const FleetRun& run : runs) {
    const FleetStats& s = run.stats;
    if (!Conserved(s) || s.completed == 0 ||
        s.sim_throughput.events_processed == 0) {
      std::printf("FAIL: %s broke conservation or did no work\n",
                  run.name.c_str());
      ok = false;
    }
  }
  std::printf("sim throughput soak: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
