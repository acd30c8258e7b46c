// Telemetry determinism: the canonical chaos + autoscale + disagg episode
// with a recorder and metrics attached must (1) behave byte-for-byte like the
// untraced run — attaching telemetry is observation, not perturbation — and
// (2) export byte-identical artifacts on every same-seed run, pinned by an
// FNV-1a golden hash so silent drift in the exporters or the event stream
// fails CI.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "cluster/cluster_sim.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_recorder.hpp"
#include "serving/workload.hpp"
#include "util/json.hpp"

namespace liquid::cluster {
namespace {

[[nodiscard]] std::uint64_t Fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

ReplicaSpec CanonicalReplica(ReplicaRole role) {
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

/// The canonical telemetry episode: a 2P:4D disaggregated fleet with decode
/// autoscaling, one mid-run kill, and a kilotoken mix — every trace hook
/// fires (arrivals, routes, spans, migrations, kill, retries, scale events).
FleetStats RunCanonicalEpisode(obs::TraceRecorder* recorder,
                               obs::MetricsRegistry* metrics) {
  AutoscaleConfig autoscale;
  autoscale.enabled = true;
  autoscale.cooldown_seconds = 2.0;
  autoscale.tick_seconds = 0.5;
  autoscale.cost_aware = true;
  AutoscalePool decode_pool;
  decode_pool.role = ReplicaRole::kDecode;
  decode_pool.spec = CanonicalReplica(ReplicaRole::kDecode);
  decode_pool.signal = AutoscaleSignal::kFreeKv;
  decode_pool.high = 0.85;
  decode_pool.low = 0.05;
  decode_pool.min_replicas = 1;
  decode_pool.max_replicas = 6;
  autoscale.pools = {decode_pool};

  DisaggConfig disagg;
  disagg.interconnect.bandwidth_gb_per_s = 400.0;
  disagg.max_migration_seconds = 0.25;

  ClusterSimulator sim(RoutePolicy::kLeastOutstanding, autoscale, {}, {},
                       disagg);
  for (int i = 0; i < 2; ++i) {
    sim.AddReplica(CanonicalReplica(ReplicaRole::kPrefill));
  }
  // Undersized decode pool: KV pressure crosses the kFreeKv high watermark
  // mid-burst, so the trace records scale-up events.
  for (int i = 0; i < 2; ++i) {
    sim.AddReplica(CanonicalReplica(ReplicaRole::kDecode));
  }

  serving::TraceConfig config;
  config.arrival_rate_per_s = 28.0;
  config.count = 160;
  config.prompt_min = 2048;
  config.prompt_max = 8192;
  config.output_min = 32;
  config.output_max = 128;
  config.sessions = 32;
  const std::vector<serving::TimedRequest> trace =
      serving::GenerateTrace(config, /*seed=*/515);

  // Kill a prefill replica: the prefill pool has no autoscale pool, so the
  // victim is guaranteed alive at kill time regardless of decode shrinks.
  sim.ScheduleKill({trace[trace.size() / 2].arrival_seconds, /*replica=*/1});
  sim.AttachTelemetry(recorder, metrics);
  return sim.Run(trace);
}

/// Zeroes the host-wall-clock SimThroughput fields, which legitimately vary
/// run to run.  The deterministic counters (events_processed,
/// engine_iterations, fleet_events, sim_seconds) stay in the comparison.
FleetStats WithoutWallClock(FleetStats stats) {
  stats.sim_throughput.wall_seconds = 0;
  stats.sim_throughput.events_per_sec = 0;
  stats.sim_throughput.sim_seconds_per_wall_second = 0;
  stats.sim_throughput.wall_seconds_per_sim_hour = 0;
  return stats;
}

/// A unified episode on the other half of the event surface: SLO shedding,
/// queue-depth autoscaling, two partial degradations and a mid-run kill.
FleetStats RunShedAndDegradeEpisode(obs::TraceRecorder* recorder,
                                    obs::MetricsRegistry* metrics) {
  ReplicaSpec spec = CanonicalReplica(ReplicaRole::kUnified);
  spec.kv_pool_blocks = 512;
  AutoscaleConfig autoscale;
  autoscale.enabled = true;
  AutoscalePool pool;
  pool.spec = spec;
  pool.signal = AutoscaleSignal::kQueueDepth;
  pool.high = 6.0;
  pool.low = 0.5;
  pool.window_seconds = 4.0;
  pool.max_replicas = 5;
  autoscale.pools = {pool};
  autoscale.cooldown_seconds = 0.5;
  SloConfig slo;
  slo.ttft_budget = 0.5;
  slo.reject_above = 1.0;

  ClusterSimulator sim(RoutePolicy::kLeastOutstanding, autoscale, slo);
  for (int i = 0; i < 3; ++i) sim.AddReplica(spec);

  serving::TraceConfig config;
  config.arrival_rate_per_s = 200.0;
  config.count = 400;
  config.prompt_min = 256;
  config.prompt_max = 2048;
  config.output_min = 64;
  config.output_max = 256;
  config.sessions = 12;
  const std::vector<serving::TimedRequest> trace =
      serving::GenerateTrace(config, /*seed=*/919);

  sim.ScheduleDegrade({trace[trace.size() / 4].arrival_seconds, 0, 3.0});
  sim.ScheduleKill({trace[trace.size() / 2].arrival_seconds, 1});
  sim.ScheduleDegrade({trace[3 * trace.size() / 4].arrival_seconds, 2, 2.0});
  sim.AttachTelemetry(recorder, metrics);
  return sim.Run(trace);
}

std::size_t Count(const obs::TraceRecorder& recorder,
                  obs::TraceEventType type) {
  std::size_t n = 0;
  for (const obs::TraceEvent& e : recorder.events()) n += e.type == type;
  return n;
}

/// Replica and fleet events reach the recorder one for one with the
/// outcomes the summary counts: nothing is lost or recorded twice on the
/// way from a replica's scheduler to the fleet trace.
void ExpectCountsMatchTheSummary(const obs::TraceRecorder& recorder,
                                 const FleetStats& stats) {
  using obs::TraceEventType;
  EXPECT_EQ(Count(recorder, TraceEventType::kComplete), stats.completed);
  EXPECT_EQ(Count(recorder, TraceEventType::kKill), stats.killed_replicas);
  EXPECT_EQ(Count(recorder, TraceEventType::kReject),
            stats.rejected_requests);
  EXPECT_EQ(Count(recorder, TraceEventType::kScaleUp), stats.scale_ups);
  EXPECT_EQ(Count(recorder, TraceEventType::kScaleDown), stats.scale_downs);
  EXPECT_EQ(Count(recorder, TraceEventType::kArrival),
            stats.submitted + stats.retried_requests);
  // A second brown-out on one replica is a second event but not a second
  // degraded replica.
  EXPECT_GE(Count(recorder, TraceEventType::kDegrade),
            stats.degraded_replicas);
}

/// Each replica's engine runs one step at a time, so its engine-lane spans
/// arrive in start order and never overlap.
void ExpectEngineSpansOrderedAndDisjoint(const obs::TraceRecorder& recorder) {
  std::map<std::int32_t, double> lane_end;  // pid -> end of its last span
  std::size_t spans = 0;
  for (const obs::TraceEvent& e : recorder.events()) {
    if (e.phase != obs::TracePhase::kSpan || e.pid == obs::kFleetPid ||
        e.tid != obs::kTidEngine) {
      continue;
    }
    ++spans;
    EXPECT_GE(e.dur, 0.0);
    const auto it = lane_end.find(e.pid);
    if (it != lane_end.end()) {
      EXPECT_GE(e.t, it->second)
          << obs::ToString(e.type) << " on pid " << e.pid << " starts at "
          << e.t << " before the previous span ends";
    }
    lane_end[e.pid] = e.t + e.dur;
  }
  EXPECT_GT(spans, 0u);
  EXPECT_GT(lane_end.size(), 1u);
}

TEST(TelemetryDeterminismTest, AttachingTelemetryDoesNotPerturbTheRun) {
  const FleetStats untraced = RunCanonicalEpisode(nullptr, nullptr);
  obs::TraceRecorder recorder;
  obs::MetricsRegistry metrics;
  const FleetStats traced = RunCanonicalEpisode(&recorder, &metrics);
  // Byte-identical summaries: telemetry observed the identical simulation.
  EXPECT_EQ(FleetStatsToJson(WithoutWallClock(untraced)),
            FleetStatsToJson(WithoutWallClock(traced)));
  EXPECT_FALSE(recorder.empty());
  EXPECT_GT(metrics.rows(), 0u);
}

TEST(TelemetryDeterminismTest, SameSeedByteIdenticalArtifacts) {
  obs::TraceRecorder rec_a, rec_b;
  obs::MetricsRegistry met_a, met_b;
  RunCanonicalEpisode(&rec_a, &met_a);
  RunCanonicalEpisode(&rec_b, &met_b);
  EXPECT_EQ(rec_a.ToChromeTraceJson(), rec_b.ToChromeTraceJson());
  EXPECT_EQ(rec_a.ToJsonl(), rec_b.ToJsonl());
  EXPECT_EQ(met_a.ToJsonl(), met_b.ToJsonl());
  EXPECT_EQ(met_a.ToCsv(), met_b.ToCsv());
}

TEST(TelemetryDeterminismTest, CanonicalEpisodeGoldenHashes) {
  obs::TraceRecorder recorder;
  obs::MetricsRegistry metrics;
  const FleetStats stats = RunCanonicalEpisode(&recorder, &metrics);

  const std::string chrome = recorder.ToChromeTraceJson();
  const std::string trace_jsonl = recorder.ToJsonl();
  const std::string metrics_jsonl = metrics.ToJsonl();
  ASSERT_TRUE(JsonSyntaxValid(chrome));

  // The episode exercised the full event surface before anything is pinned.
  EXPECT_GT(stats.disagg.migrated_requests, 0u);
  EXPECT_EQ(stats.killed_replicas, 1u);
  EXPECT_GT(stats.scale_ups, 0u);
  EXPECT_NE(chrome.find("\"name\":\"migration_land\""), std::string::npos);
  EXPECT_NE(chrome.find("\"name\":\"kill\""), std::string::npos);
  EXPECT_NE(chrome.find("\"name\":\"scale_up\""), std::string::npos);
  EXPECT_NE(chrome.find("\"cat\":\"request\""), std::string::npos);
  EXPECT_NE(chrome.find("\"cat\":\"kvflow\""), std::string::npos);

  std::printf("telemetry goldens: events=%zu rows=%zu chrome=%llu "
              "trace_jsonl=%llu metrics_jsonl=%llu\n",
              recorder.size(), metrics.rows(),
              static_cast<unsigned long long>(Fnv1a(chrome)),
              static_cast<unsigned long long>(Fnv1a(trace_jsonl)),
              static_cast<unsigned long long>(Fnv1a(metrics_jsonl)));

  // Golden byte hashes for the canonical episode.  These pin the recorded
  // event stream AND the exporters: if an intentional change shifts them,
  // re-run this test and update the literals alongside the change.
  EXPECT_EQ(Fnv1a(chrome), 17777947067110539556ull);
  EXPECT_EQ(Fnv1a(trace_jsonl), 1129426537860808181ull);
  EXPECT_EQ(Fnv1a(metrics_jsonl), 7926352182877922469ull);
}

TEST(TelemetryDeterminismTest, ShedAndDegradeEpisodeIsNotPerturbed) {
  const FleetStats untraced = RunShedAndDegradeEpisode(nullptr, nullptr);
  obs::TraceRecorder recorder;
  obs::MetricsRegistry metrics;
  const FleetStats traced = RunShedAndDegradeEpisode(&recorder, &metrics);
  // The episode reached the paths the canonical one does not.
  EXPECT_GT(traced.rejected_requests, 0u);
  EXPECT_EQ(traced.degraded_replicas, 2u);
  EXPECT_EQ(traced.killed_replicas, 1u);
  EXPECT_EQ(FleetStatsToJson(WithoutWallClock(untraced)),
            FleetStatsToJson(WithoutWallClock(traced)));
  EXPECT_FALSE(recorder.empty());
  EXPECT_GT(metrics.rows(), 0u);
}

TEST(TelemetryDeterminismTest, ShedAndDegradeEpisodeReplaysByteIdentical) {
  obs::TraceRecorder rec_a, rec_b;
  obs::MetricsRegistry met_a, met_b;
  RunShedAndDegradeEpisode(&rec_a, &met_a);
  RunShedAndDegradeEpisode(&rec_b, &met_b);
  const std::string chrome = rec_a.ToChromeTraceJson();
  EXPECT_TRUE(JsonSyntaxValid(chrome));
  EXPECT_NE(chrome.find("\"name\":\"degrade\""), std::string::npos);
  EXPECT_NE(chrome.find("\"name\":\"reject\""), std::string::npos);
  EXPECT_EQ(chrome, rec_b.ToChromeTraceJson());
  EXPECT_EQ(rec_a.ToJsonl(), rec_b.ToJsonl());
  EXPECT_EQ(met_a.ToJsonl(), met_b.ToJsonl());
}

TEST(TelemetryDeterminismTest, CanonicalTraceCountsMatchTheSummary) {
  obs::TraceRecorder recorder;
  const FleetStats stats = RunCanonicalEpisode(&recorder, nullptr);
  ExpectCountsMatchTheSummary(recorder, stats);
  // The disaggregated fleet's KV migrations are in the counted stream.
  EXPECT_GT(Count(recorder, obs::TraceEventType::kMigrationLand), 0u);
}

TEST(TelemetryDeterminismTest, ShedAndDegradeTraceCountsMatchTheSummary) {
  obs::TraceRecorder recorder;
  const FleetStats stats = RunShedAndDegradeEpisode(&recorder, nullptr);
  ExpectCountsMatchTheSummary(recorder, stats);
  EXPECT_EQ(Count(recorder, obs::TraceEventType::kDegrade), 2u);
}

TEST(TelemetryDeterminismTest, ReplicaEngineSpansAreOrderedAndDisjoint) {
  obs::TraceRecorder canonical;
  RunCanonicalEpisode(&canonical, nullptr);
  ExpectEngineSpansOrderedAndDisjoint(canonical);
  obs::TraceRecorder shed;
  RunShedAndDegradeEpisode(&shed, nullptr);
  ExpectEngineSpansOrderedAndDisjoint(shed);
}

}  // namespace
}  // namespace liquid::cluster
