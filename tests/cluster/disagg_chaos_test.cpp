// Randomized disaggregated chaos: for 60 seeds, build a random role-split
// fleet (prefill/decode pools, sometimes a unified straggler), a random
// long-prompt-heavy trace, random interconnect (including glacial links that
// force unified fallback), random retry budgets/backoff and kill schedules —
// then assert the extended conservation law
//
//   completed + dropped + rejected + lost == submitted + retried
//   lost == retried + retries_exhausted
//   in_migration == 0 at the end of the run
//
// holds no matter what dies, sheds, backs off, or is mid-migration when the
// lights go out.

#include <gtest/gtest.h>

#include <cstdio>
#include <vector>

#include "cluster/cluster_sim.hpp"
#include "serving/workload.hpp"
#include "util/rng.hpp"

namespace liquid::cluster {
namespace {

ReplicaSpec ChaosReplica(ReplicaRole role, std::size_t pool_blocks) {
  ReplicaSpec spec;
  spec.hw = simgpu::HardwareSpec::H800();
  spec.preset = serving::SystemPreset::LiquidServe();
  spec.model = serving::LlmConfig::Llama2_7B();
  spec.kv_pool_blocks = pool_blocks;
  spec.block_tokens = 16;
  spec.max_batch = 16;
  spec.role = role;
  spec.dollars_per_hour = role == ReplicaRole::kPrefill ? 3.0 : 2.0;
  return spec;
}

struct Scenario {
  std::vector<ReplicaRole> roles;
  std::size_t pool_blocks = 256;
  SloConfig slo;
  RetryPolicy retry;
  DisaggConfig disagg;
  std::vector<serving::TimedRequest> trace;
  std::vector<KillEvent> kills;
};

Scenario RandomScenario(std::uint64_t seed) {
  Rng rng(seed);
  Scenario s;
  const std::size_t prefills = 1 + rng.Below(2);  // 1..2
  const std::size_t decodes = 1 + rng.Below(3);   // 1..3
  for (std::size_t i = 0; i < prefills; ++i) {
    s.roles.push_back(ReplicaRole::kPrefill);
  }
  for (std::size_t i = 0; i < decodes; ++i) {
    s.roles.push_back(ReplicaRole::kDecode);
  }
  if (rng.NextDouble() < 0.3) s.roles.push_back(ReplicaRole::kUnified);
  s.pool_blocks = 128 + static_cast<std::size_t>(rng.Below(3)) * 128;

  // A third of the links are glacial (forcing unified fallback), the rest
  // NVLink-to-Ethernet class; budgets and caps vary.
  const double roll = rng.NextDouble();
  s.disagg.interconnect.bandwidth_gb_per_s =
      roll < 0.33 ? rng.Uniform(0.001, 0.05) : rng.Uniform(25.0, 900.0);
  s.disagg.interconnect.prefill_overlap = rng.Uniform(0.0, 0.9);
  s.disagg.interconnect.max_inflight_per_link = 1 + rng.Below(8);
  s.disagg.max_migration_seconds = rng.Uniform(0.05, 1.5);

  if (rng.NextDouble() < 0.5) {
    s.slo.ttft_budget = rng.Uniform(0.5, 3.0);
    s.slo.reject_above = rng.Uniform(1.0, 2.0);
  }
  if (rng.NextDouble() < 0.5) {
    s.retry.max_attempts = 1;  // one strike: a second loss exhausts
  }
  if (rng.NextDouble() < 0.5) {
    s.retry.base_backoff_seconds = rng.Uniform(0.05, 0.5);
  }

  serving::TraceConfig trace;
  trace.arrival_rate_per_s = rng.Uniform(15.0, 90.0);
  trace.count = 50 + static_cast<std::size_t>(rng.Below(60));
  trace.prompt_min = 256;
  trace.prompt_max = 1024 + static_cast<std::size_t>(rng.Below(1536));
  trace.output_min = 32;
  trace.output_max = 160;
  trace.sessions = 8;
  s.trace = serving::GenerateTrace(trace, seed ^ 0xD15A66ull);

  const double span =
      s.trace.empty() ? 1.0 : s.trace.back().arrival_seconds + 1.0;
  const std::size_t kills = 2 + rng.Below(3);  // 2..4 abrupt failures
  for (std::size_t k = 0; k < kills; ++k) {
    KillEvent kill;
    kill.time = rng.Uniform(0.05, span * 1.2);
    kill.replica = rng.Below(s.roles.size());
    s.kills.push_back(kill);
  }
  return s;
}

TEST(DisaggChaosTest, ConservationHoldsAcrossRandomDisaggChaos) {
  std::size_t scenarios_with_migrations = 0;
  std::size_t scenarios_with_fallbacks = 0;
  std::size_t scenarios_with_losses = 0;
  std::size_t total_target_deaths = 0;
  std::size_t total_exhausted = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const Scenario s = RandomScenario(seed);
    ClusterSimulator sim(RoutePolicy::kLeastOutstanding, {}, s.slo, s.retry,
                         s.disagg);
    for (const ReplicaRole role : s.roles) {
      sim.AddReplica(ChaosReplica(role, s.pool_blocks));
    }
    for (const KillEvent& kill : s.kills) sim.ScheduleKill(kill);
    const FleetStats stats = sim.Run(s.trace);

    EXPECT_EQ(stats.submitted, s.trace.size()) << "seed " << seed;
    EXPECT_EQ(stats.completed + stats.dropped + stats.rejected_requests +
                  stats.lost_requests,
              stats.submitted + stats.retried_requests)
        << "seed " << seed << ": completed=" << stats.completed
        << " dropped=" << stats.dropped
        << " rejected=" << stats.rejected_requests
        << " lost=" << stats.lost_requests
        << " submitted=" << stats.submitted
        << " retried=" << stats.retried_requests
        << " exhausted=" << stats.retries_exhausted
        << " migrated=" << stats.disagg.migrated_requests;
    // Every loss is either retried or gave up on-budget; nothing is left
    // mid-migration or waiting out a backoff after Run returns.
    EXPECT_EQ(stats.lost_requests,
              stats.retried_requests + stats.retries_exhausted)
        << "seed " << seed;
    EXPECT_EQ(stats.disagg.in_migration, 0u) << "seed " << seed;
    // Handoffs partition into migrations, local fallbacks, and those lost
    // with their prefill replica... but never vanish silently: everything
    // submitted is accounted terminal by the conservation check above.
    if (stats.killed_replicas == 0) {
      EXPECT_DOUBLE_EQ(stats.wasted_tokens, 0.0) << "seed " << seed;
    }
    EXPECT_GE(stats.wasted_tokens, 0.0) << "seed " << seed;
    // Cost accounting: priced replicas make a priced fleet.
    EXPECT_GT(stats.cost_dollars, 0.0) << "seed " << seed;
    EXPECT_GT(stats.prefill_pool_dollars, 0.0) << "seed " << seed;

    if (stats.disagg.migrated_requests > 0) ++scenarios_with_migrations;
    if (stats.disagg.local_decode_fallbacks > 0) ++scenarios_with_fallbacks;
    if (stats.lost_requests > 0) ++scenarios_with_losses;
    total_target_deaths += stats.disagg.target_deaths;
    total_exhausted += stats.retries_exhausted;
  }
  // The generator is tuned so each regime actually occurs; if these drop to
  // zero the test lost its teeth.
  EXPECT_GT(scenarios_with_migrations, 20u);
  EXPECT_GT(scenarios_with_fallbacks, 10u);
  EXPECT_GT(scenarios_with_losses, 10u);
  EXPECT_GT(total_target_deaths, 0u);
  EXPECT_GT(total_exhausted, 0u);
  std::printf(
      "disagg chaos: %zu/60 migrated, %zu/60 fell back, %zu/60 lost work, "
      "%zu target deaths, %zu retries exhausted\n",
      scenarios_with_migrations, scenarios_with_fallbacks,
      scenarios_with_losses, total_target_deaths, total_exhausted);
}

TEST(DisaggChaosTest, DecodeKillKeepsMigratingToSurvivors) {
  // 2P:3D with one decode replica killed mid-trace: the surviving decode
  // replicas keep receiving KV migrations, and nothing is lost for good.
  serving::TraceConfig config;
  config.arrival_rate_per_s = 90.0;
  config.count = 150;
  config.prompt_min = 256;
  config.prompt_max = 2048;
  config.output_min = 32;
  config.output_max = 128;
  config.sessions = 16;
  const auto trace = serving::GenerateTrace(config, 7);

  DisaggConfig disagg;
  disagg.interconnect.bandwidth_gb_per_s = 200.0;
  disagg.max_migration_seconds = 0.5;
  ClusterSimulator sim(RoutePolicy::kLeastOutstanding, {}, {}, {}, disagg);
  for (int i = 0; i < 2; ++i) {
    sim.AddReplica(ChaosReplica(ReplicaRole::kPrefill, 2048));
  }
  for (int i = 0; i < 3; ++i) {
    sim.AddReplica(ChaosReplica(ReplicaRole::kDecode, 2048));
  }
  sim.ScheduleKill({trace[trace.size() / 2].arrival_seconds, 3});
  const FleetStats stats = sim.Run(trace);

  EXPECT_EQ(stats.killed_replicas, 1u);
  EXPECT_TRUE(stats.replicas[3].killed);
  EXPECT_GT(stats.disagg.migrated_requests, 0u);
  EXPECT_EQ(stats.completed + stats.dropped + stats.rejected_requests +
                stats.lost_requests,
            stats.submitted + stats.retried_requests);
  EXPECT_EQ(stats.lost_requests,
            stats.retried_requests + stats.retries_exhausted);
  EXPECT_EQ(stats.disagg.in_migration, 0u);
}

TEST(DisaggChaosTest, DisaggDeterminismSameSeedSameStats) {
  const auto run = [] {
    const Scenario s = RandomScenario(17);
    ClusterSimulator sim(RoutePolicy::kLeastOutstanding, {}, s.slo, s.retry,
                         s.disagg);
    for (const ReplicaRole role : s.roles) {
      sim.AddReplica(ChaosReplica(role, s.pool_blocks));
    }
    for (const KillEvent& kill : s.kills) sim.ScheduleKill(kill);
    return sim.Run(s.trace);
  };
  const FleetStats a = run();
  const FleetStats b = run();
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.lost_requests, b.lost_requests);
  EXPECT_EQ(a.retried_requests, b.retried_requests);
  EXPECT_EQ(a.retries_exhausted, b.retries_exhausted);
  EXPECT_EQ(a.disagg.migrated_requests, b.disagg.migrated_requests);
  EXPECT_EQ(a.disagg.local_decode_fallbacks,
            b.disagg.local_decode_fallbacks);
  EXPECT_DOUBLE_EQ(a.disagg.migrated_kv_bytes, b.disagg.migrated_kv_bytes);
  EXPECT_DOUBLE_EQ(a.wasted_tokens, b.wasted_tokens);
  EXPECT_DOUBLE_EQ(a.ttft.p99, b.ttft.p99);
  EXPECT_DOUBLE_EQ(a.tpot.p99, b.tpot.p99);
  EXPECT_DOUBLE_EQ(a.cost_dollars, b.cost_dollars);
}

}  // namespace
}  // namespace liquid::cluster
