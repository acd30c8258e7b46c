// Randomized chaos property test: for many seeds, build a random fleet, a
// random trace, a random kill schedule, random autoscale and SLO configs —
// then assert the fleet-wide conservation law
//
//   completed + dropped + rejected + lost == submitted + retried
//
// holds no matter what dies, slows down or gets shed.  Every lost in-flight
// request spawns exactly one retry, so both sides stay balanced even when a
// retry is lost again on a second kill.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <vector>

#include "cluster/cluster_sim.hpp"
#include "obs/trace_recorder.hpp"
#include "serving/workload.hpp"
#include "util/rng.hpp"

namespace liquid::cluster {
namespace {

ReplicaSpec ChaosReplica(std::size_t pool_blocks) {
  ReplicaSpec spec;
  spec.hw = simgpu::HardwareSpec::H800();
  spec.preset = serving::SystemPreset::LiquidServe();
  spec.model = serving::LlmConfig::Llama2_7B();
  spec.kv_pool_blocks = pool_blocks;
  spec.block_tokens = 16;
  // A small batch keeps replicas saturated so kills catch in-flight work.
  spec.max_batch = 16;
  return spec;
}

struct ChaosScenario {
  RoutePolicy policy = RoutePolicy::kLeastOutstanding;
  AutoscaleConfig autoscale;
  SloConfig slo;
  std::size_t replicas = 2;
  std::size_t pool_blocks = 128;
  std::vector<serving::TimedRequest> trace;
  std::vector<KillEvent> kills;
};

ChaosScenario RandomScenario(std::uint64_t seed) {
  Rng rng(seed);
  ChaosScenario s;
  const RoutePolicy policies[] = {
      RoutePolicy::kRoundRobin, RoutePolicy::kLeastOutstanding,
      RoutePolicy::kLeastKvLoad, RoutePolicy::kSessionAffinity};
  s.policy = policies[rng.Below(4)];
  s.replicas = 2 + static_cast<std::size_t>(rng.Below(3));  // 2..4
  s.pool_blocks = 64 + static_cast<std::size_t>(rng.Below(3)) * 64;

  // Half the scenarios autoscale the whole fleet as one unified pool,
  // spread over all four signals with thresholds in each signal's units.
  if (rng.NextDouble() < 0.5) {
    const AutoscaleSignal signals[] = {
        AutoscaleSignal::kQueueDepth, AutoscaleSignal::kTailTtft,
        AutoscaleSignal::kFreeKv, AutoscaleSignal::kTailTpot};
    AutoscalePool pool;
    pool.spec = ChaosReplica(s.pool_blocks);
    pool.signal = signals[rng.Below(4)];
    switch (pool.signal) {
      case AutoscaleSignal::kQueueDepth:  // requests per replica
        pool.high = rng.Uniform(3.0, 10.0);
        pool.low = rng.Uniform(0.1, 1.0);
        break;
      case AutoscaleSignal::kTailTtft:  // seconds
        pool.high = rng.Uniform(0.5, 3.0);
        pool.low = rng.Uniform(0.01, 0.2);
        break;
      case AutoscaleSignal::kFreeKv:  // used fraction of the KV pool
        pool.high = rng.Uniform(0.6, 0.95);
        pool.low = rng.Uniform(0.05, 0.3);
        break;
      case AutoscaleSignal::kTailTpot:  // seconds per output token
        pool.high = rng.Uniform(0.0025, 0.0045);
        pool.low = rng.Uniform(0.001, 0.0028);
        break;
    }
    pool.window_seconds = rng.Uniform(2.0, 15.0);
    pool.max_replicas = 6;
    s.autoscale.enabled = true;
    s.autoscale.pools = {pool};
    s.autoscale.cooldown_seconds = rng.Uniform(0.0, 1.0);
  }
  // Half run SLO admission control with a budget tight enough to trip.
  if (rng.NextDouble() < 0.5) {
    s.slo.ttft_budget = rng.Uniform(0.1, 2.0);
    s.slo.reject_above = rng.Uniform(1.0, 2.0);
  }

  // Offered load swings from comfortable to ~4x overload (a 2..4-replica
  // fleet of these specs retires roughly 35..75 req/s of this mix).
  serving::TraceConfig trace;
  trace.arrival_rate_per_s = rng.Uniform(20.0, 150.0);
  trace.count = 60 + static_cast<std::size_t>(rng.Below(80));
  trace.prompt_min = 128;
  trace.prompt_max = 1024 + static_cast<std::size_t>(rng.Below(1536));
  trace.output_min = 32;
  trace.output_max = 192;
  trace.sessions = 8;
  s.trace = serving::GenerateTrace(trace, seed ^ 0xC0FFEEull);

  const double span =
      s.trace.empty() ? 1.0 : s.trace.back().arrival_seconds + 1.0;
  const std::size_t kills = 1 + rng.Below(3);  // 1..3 abrupt failures
  for (std::size_t k = 0; k < kills; ++k) {
    KillEvent kill;
    kill.time = rng.Uniform(0.05, span * 1.2);  // some land past last arrival
    kill.replica = rng.Below(s.replicas);
    s.kills.push_back(kill);
  }
  return s;
}

void ExpectConservation(const FleetStats& stats, std::uint64_t seed) {
  EXPECT_EQ(stats.completed + stats.dropped + stats.rejected_requests +
                stats.lost_requests,
            stats.submitted + stats.retried_requests)
      << "seed " << seed << ": completed=" << stats.completed
      << " dropped=" << stats.dropped
      << " rejected=" << stats.rejected_requests
      << " lost=" << stats.lost_requests << " submitted=" << stats.submitted
      << " retried=" << stats.retried_requests;
  // A kill's lost requests each spawn exactly one retry.
  EXPECT_EQ(stats.lost_requests, stats.retried_requests) << "seed " << seed;
}

TEST(ChaosPropertyTest, ConservationHoldsAcrossRandomChaos) {
  std::size_t scenarios_with_losses = 0;
  std::size_t scenarios_with_rejections = 0;
  std::size_t scaled_by_signal[4] = {};  // indexed by AutoscaleSignal
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const ChaosScenario s = RandomScenario(seed);
    ClusterSimulator sim(s.policy, s.autoscale, s.slo);
    for (std::size_t i = 0; i < s.replicas; ++i) {
      sim.AddReplica(ChaosReplica(s.pool_blocks));
    }
    for (const KillEvent& kill : s.kills) sim.ScheduleKill(kill);
    const FleetStats stats = sim.Run(s.trace);

    EXPECT_EQ(stats.submitted, s.trace.size()) << "seed " << seed;
    ExpectConservation(stats, seed);
    // A scheduled kill can no-op only when its target was already scaled
    // down or killed; at least one should land in almost every scenario.
    EXPECT_LE(stats.killed_replicas, s.kills.size()) << "seed " << seed;
    if (stats.lost_requests > 0) ++scenarios_with_losses;
    if (stats.rejected_requests > 0) ++scenarios_with_rejections;
    if (!s.autoscale.pools.empty() && stats.scale_ups + stats.scale_downs > 0) {
      ++scaled_by_signal[static_cast<std::size_t>(
          s.autoscale.pools.front().signal)];
    }
    // Wasted work only arises from kills, and never exceeds what the fleet
    // generated in total (delivered + wasted).
    if (stats.killed_replicas == 0) {
      EXPECT_DOUBLE_EQ(stats.wasted_tokens, 0.0) << "seed " << seed;
    }
    EXPECT_GE(stats.wasted_tokens, 0.0) << "seed " << seed;
  }
  // The generator is tuned so chaos actually bites in a healthy fraction of
  // scenarios; if these drop to zero the test lost its teeth.
  EXPECT_GT(scenarios_with_losses, 10u);
  EXPECT_GT(scenarios_with_rejections, 5u);
  for (std::size_t signal = 0; signal < 4; ++signal) {
    EXPECT_GT(scaled_by_signal[signal], 0u)
        << "no scenario scaled on signal " << signal;
  }
  std::printf("chaos: %zu/60 scenarios lost in-flight work, %zu/60 shed load\n",
              scenarios_with_losses, scenarios_with_rejections);
}

/// RandomScenario(seed) plus 1..2 partial degradations.  The degrade draws
/// come from their own stream so the kill-only scenarios stay as they are.
FleetStats RunWithDegradations(std::uint64_t seed) {
  const ChaosScenario s = RandomScenario(seed);
  Rng rng(seed ^ 0xDE6EADull);
  const double span =
      s.trace.empty() ? 1.0 : s.trace.back().arrival_seconds + 1.0;
  ClusterSimulator sim(s.policy, s.autoscale, s.slo);
  for (std::size_t i = 0; i < s.replicas; ++i) {
    sim.AddReplica(ChaosReplica(s.pool_blocks));
  }
  for (const KillEvent& kill : s.kills) sim.ScheduleKill(kill);
  const std::size_t degrades = 1 + rng.Below(2);  // 1..2 brown-outs
  for (std::size_t d = 0; d < degrades; ++d) {
    sim.ScheduleDegrade({rng.Uniform(0.05, span), rng.Below(s.replicas),
                         rng.Uniform(1.5, 4.0)});
  }
  return sim.Run(s.trace);
}

TEST(ChaosPropertyTest, ConservationHoldsWithDegradationsAndKills) {
  // Partial degradations on top of the kills: a slowed replica keeps its
  // in-flight work, so the law must hold exactly as under kills alone.
  std::size_t scenarios_with_degrades = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const FleetStats stats = RunWithDegradations(seed);
    EXPECT_EQ(stats.submitted, RandomScenario(seed).trace.size())
        << "seed " << seed;
    ExpectConservation(stats, seed);
    if (stats.degraded_replicas > 0) ++scenarios_with_degrades;
  }
  // Most brown-outs land on a live replica; if none did, the test would
  // only be re-checking the kill-only law.
  EXPECT_GT(scenarios_with_degrades, 6u);
}

/// Zeroes the host-wall-clock SimThroughput fields, the only part of
/// FleetStats that may differ between two runs of one scenario.
FleetStats WithoutWallClock(FleetStats stats) {
  stats.sim_throughput.wall_seconds = 0;
  stats.sim_throughput.events_per_sec = 0;
  stats.sim_throughput.sim_seconds_per_wall_second = 0;
  stats.sim_throughput.wall_seconds_per_sim_hour = 0;
  return stats;
}

TEST(ChaosPropertyTest, RandomChaosReplaysBitIdentical) {
  // The event loop is the only source of ordering: kills, degradations,
  // autoscale ticks and SLO sheds replay to the identical summary (every
  // counter, percentile and per-replica row) on a fresh simulator.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const FleetStats first = RunWithDegradations(seed);
    const FleetStats again = RunWithDegradations(seed);
    EXPECT_GT(first.sim_throughput.events_processed, 0u) << "seed " << seed;
    EXPECT_EQ(FleetStatsToJson(WithoutWallClock(first)),
              FleetStatsToJson(WithoutWallClock(again)))
        << "seed " << seed;
  }
}

TEST(ChaosPropertyTest, KillingWholeFleetDropsBacklogButConserves) {
  ClusterSimulator sim(RoutePolicy::kLeastOutstanding);
  for (int i = 0; i < 2; ++i) sim.AddReplica(ChaosReplica(256));
  serving::TraceConfig config;
  config.arrival_rate_per_s = 100.0;
  config.count = 40;
  config.prompt_min = 256;
  config.prompt_max = 1024;
  config.output_min = 64;
  config.output_max = 192;
  const std::vector<serving::TimedRequest> trace =
      serving::GenerateTrace(config, 17);
  // Both replicas die just after the burst lands: everything in flight is
  // lost, retries find no alive replica and drop.
  const double t = trace.back().arrival_seconds + 0.01;
  sim.ScheduleKill({t, 0});
  sim.ScheduleKill({t + 0.001, 1});
  const FleetStats stats = sim.Run(trace);
  EXPECT_EQ(stats.killed_replicas, 2u);
  EXPECT_EQ(stats.replicas_final, 0u);
  ExpectConservation(stats, 17);
  EXPECT_GT(stats.dropped, 0u);  // retries with no fleet left
}

TEST(ChaosPropertyTest, RetriesSurviveKillAndComplete) {
  // One kill, plenty of surviving capacity: lost work is retried and the
  // whole trace still completes (nothing dropped or rejected).
  ClusterSimulator sim(RoutePolicy::kLeastOutstanding);
  for (int i = 0; i < 3; ++i) sim.AddReplica(ChaosReplica(512));
  serving::TraceConfig config;
  config.arrival_rate_per_s = 80.0;
  config.count = 90;
  config.prompt_min = 256;
  config.prompt_max = 1024;
  config.output_min = 64;
  config.output_max = 192;
  const std::vector<serving::TimedRequest> trace =
      serving::GenerateTrace(config, 23);
  sim.ScheduleKill({trace[trace.size() / 2].arrival_seconds, 1});
  const FleetStats stats = sim.Run(trace);
  EXPECT_EQ(stats.killed_replicas, 1u);
  EXPECT_GT(stats.lost_requests, 0u);
  EXPECT_GT(stats.wasted_tokens, 0.0);
  ExpectConservation(stats, 23);
  EXPECT_EQ(stats.completed, stats.submitted);  // every request finishes
  EXPECT_TRUE(stats.replicas[1].killed);
  EXPECT_FALSE(stats.replicas[1].active);
}

TEST(ChaosPropertyTest, SameInstantRetriesRouteInAscendingRequestId) {
  // A kill under a fixed backoff (every lost request is on its first retry,
  // so all share one due instant) re-routes the whole batch at once; the
  // release order is pinned to ascending request id, whatever order the
  // dying scheduler forfeited them in.
  RetryPolicy retry;
  retry.base_backoff_seconds = 0.25;
  ClusterSimulator sim(RoutePolicy::kLeastOutstanding, {}, {}, retry);
  for (int i = 0; i < 3; ++i) sim.AddReplica(ChaosReplica(512));
  serving::TraceConfig config;
  config.arrival_rate_per_s = 120.0;
  config.count = 90;
  config.prompt_min = 256;
  config.prompt_max = 1024;
  config.output_min = 64;
  config.output_max = 192;
  std::vector<serving::TimedRequest> trace =
      serving::GenerateTrace(config, 31);
  // Ids run against arrival order, so the dying scheduler forfeits its work
  // (admitted in arrival order) in descending id order.
  for (std::size_t i = 0; i < trace.size(); ++i) {
    trace[i].id = 1000 - i;
  }
  sim.ScheduleKill({trace[2 * trace.size() / 3].arrival_seconds, 1});
  obs::TraceRecorder recorder;
  sim.AttachTelemetry(&recorder, nullptr);
  const FleetStats stats = sim.Run(trace);
  ExpectConservation(stats, 31);

  // Per due instant: ids in scheduling order and in routing order.
  std::map<std::uint64_t, double> due_of;
  std::map<double, std::vector<std::uint64_t>> scheduled, routed;
  for (const obs::TraceEvent& e : recorder.events()) {
    if (e.type == obs::TraceEventType::kRetryScheduled) {
      due_of[e.id] = e.a1;
      scheduled[e.a1].push_back(e.id);
    } else if (e.type == obs::TraceEventType::kArrival && e.a2 > 0) {
      routed[due_of.at(e.id)].push_back(e.id);
    }
  }
  ASSERT_EQ(routed.size(), 1u);  // one kill, one fixed backoff
  const std::vector<std::uint64_t>& batch = routed.begin()->second;
  EXPECT_EQ(batch.size(), stats.retried_requests);
  EXPECT_GT(batch.size(), 4u);
  EXPECT_TRUE(std::is_sorted(batch.begin(), batch.end()));
  // The pin has teeth: the kill forfeited the batch out of id order.
  const std::vector<std::uint64_t>& forfeit = scheduled.begin()->second;
  EXPECT_FALSE(std::is_sorted(forfeit.begin(), forfeit.end()));
  std::vector<std::uint64_t> sorted = forfeit;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(batch, sorted);
}

}  // namespace
}  // namespace liquid::cluster
