#include "cluster/cluster_sim.hpp"

#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "serving/workload.hpp"

namespace liquid::cluster {
namespace {

using serving::TenantConfig;
using serving::TimedRequest;
using serving::TraceConfig;

ReplicaSpec SmallReplica(std::size_t pool_blocks = 256) {
  ReplicaSpec spec;
  spec.hw = simgpu::HardwareSpec::H800();
  spec.preset = serving::SystemPreset::LiquidServe();
  spec.model = serving::LlmConfig::Llama2_7B();
  spec.kv_pool_blocks = pool_blocks;
  spec.block_tokens = 16;
  spec.max_batch = 32;
  return spec;
}

std::vector<TimedRequest> SmallTrace(std::size_t count, std::uint64_t seed,
                                     double rate = 40.0) {
  TraceConfig config;
  config.arrival_rate_per_s = rate;
  config.count = count;
  config.prompt_min = 32;
  config.prompt_max = 256;
  config.output_min = 8;
  config.output_max = 48;
  return serving::GenerateTrace(config, seed);
}

TEST(ClusterSimTest, RunsTraceToCompletion) {
  ClusterSimulator sim(RoutePolicy::kLeastOutstanding);
  for (int i = 0; i < 3; ++i) sim.AddReplica(SmallReplica());
  const FleetStats stats = sim.Run(SmallTrace(60, /*seed=*/1));
  EXPECT_EQ(stats.submitted, 60u);
  EXPECT_EQ(stats.completed + stats.dropped, stats.submitted);
  EXPECT_GT(stats.completed, 0u);
  EXPECT_GT(stats.throughput_tokens_per_s, 0);
  EXPECT_GT(stats.ttft.p50, 0);
  EXPECT_GE(stats.ttft.p99, stats.ttft.p50);
  EXPECT_GE(stats.e2e.p99, stats.e2e.p95);
  EXPECT_EQ(stats.replicas.size(), 3u);
}

TEST(ClusterSimTest, DeterministicAcrossRuns) {
  FleetStats a, b;
  for (FleetStats* out : {&a, &b}) {
    ClusterSimulator sim(RoutePolicy::kLeastKvLoad);
    for (int i = 0; i < 4; ++i) sim.AddReplica(SmallReplica());
    *out = sim.Run(SmallTrace(80, /*seed=*/7));
  }
  EXPECT_EQ(a.submitted, b.submitted);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.preemptions, b.preemptions);
  EXPECT_DOUBLE_EQ(a.span_seconds, b.span_seconds);
  EXPECT_DOUBLE_EQ(a.generated_tokens, b.generated_tokens);
  EXPECT_DOUBLE_EQ(a.ttft.p50, b.ttft.p50);
  EXPECT_DOUBLE_EQ(a.ttft.p99, b.ttft.p99);
  EXPECT_DOUBLE_EQ(a.tpot.p99, b.tpot.p99);
  EXPECT_DOUBLE_EQ(a.e2e.p99, b.e2e.p99);
  ASSERT_EQ(a.replicas.size(), b.replicas.size());
  for (std::size_t i = 0; i < a.replicas.size(); ++i) {
    EXPECT_EQ(a.replicas[i].submitted, b.replicas[i].submitted);
    EXPECT_EQ(a.replicas[i].stats.completed, b.replicas[i].stats.completed);
  }
}

TEST(ClusterSimTest, ConservationUnderPreemptionPressure) {
  // Tiny KV pools so long prompts force preemptions and some drops.
  ClusterSimulator sim(RoutePolicy::kRoundRobin);
  for (int i = 0; i < 2; ++i) sim.AddReplica(SmallReplica(/*pool_blocks=*/48));
  TraceConfig config;
  config.arrival_rate_per_s = 50.0;
  config.count = 80;
  config.prompt_min = 64;
  config.prompt_max = 1024;  // some prompts exceed a 48-block (768-token) pool
  config.output_min = 8;
  config.output_max = 64;
  const FleetStats stats = sim.Run(serving::GenerateTrace(config, 3));
  EXPECT_EQ(stats.submitted, 80u);
  EXPECT_EQ(stats.completed + stats.dropped, stats.submitted);
  EXPECT_GT(stats.dropped, 0u);  // scenario is sized to overflow the pool
}

TEST(ClusterSimTest, ConservationAcrossManualScaleDown) {
  ClusterSimulator sim(RoutePolicy::kLeastOutstanding);
  for (int i = 0; i < 3; ++i) sim.AddReplica(SmallReplica());
  const std::vector<TimedRequest> trace = SmallTrace(60, /*seed=*/11);
  // Feed the first half, yank a replica mid-flight, then finish the episode.
  const std::size_t half = trace.size() / 2;
  for (std::size_t i = 0; i < half; ++i) {
    sim.AdvanceTo(trace[i].arrival_seconds);
    sim.SubmitAndRoute(trace[i]);
  }
  ASSERT_TRUE(sim.RemoveReplica(1));
  EXPECT_EQ(sim.ActiveReplicas(), 2u);
  const FleetStats stats = sim.Run(std::vector<TimedRequest>(
      trace.begin() + static_cast<std::ptrdiff_t>(half), trace.end()));
  EXPECT_EQ(stats.submitted, 60u);
  EXPECT_EQ(stats.completed + stats.dropped, stats.submitted);
  EXPECT_EQ(stats.replicas_final, 2u);
  EXPECT_FALSE(stats.replicas[1].active);
}

TEST(ClusterSimTest, RemoveLastReplicaRefused) {
  ClusterSimulator sim(RoutePolicy::kRoundRobin);
  const std::size_t id = sim.AddReplica(SmallReplica());
  EXPECT_FALSE(sim.RemoveReplica(id));
  EXPECT_EQ(sim.ActiveReplicas(), 1u);
}

TEST(ClusterSimTest, AutoscaleAddsReplicasUnderBurst) {
  AutoscaleConfig autoscale;
  autoscale.enabled = true;
  AutoscalePool pool;
  pool.spec = SmallReplica();
  pool.high = 4.0;
  pool.low = -1.0;  // never scale down in this test
  pool.max_replicas = 6;
  autoscale.pools = {pool};
  autoscale.cooldown_seconds = 0.01;
  ClusterSimulator sim(RoutePolicy::kLeastOutstanding, autoscale);
  sim.AddReplica(SmallReplica());
  // A hard burst: everything arrives almost at once.
  const FleetStats stats = sim.Run(SmallTrace(120, /*seed=*/5, /*rate=*/500.0));
  EXPECT_GT(stats.scale_ups, 0u);
  EXPECT_GT(stats.replicas_final, 1u);
  EXPECT_EQ(stats.completed + stats.dropped, stats.submitted);
}

TEST(ClusterSimTest, AutoscaleScalesDownWhenIdle) {
  AutoscaleConfig autoscale;
  autoscale.enabled = true;
  AutoscalePool pool;
  pool.spec = SmallReplica();
  pool.high = 1e9;  // never scale up
  pool.low = 0.5;
  pool.min_replicas = 1;
  autoscale.pools = {pool};
  autoscale.cooldown_seconds = 0.0;
  ClusterSimulator sim(RoutePolicy::kLeastOutstanding, autoscale);
  for (int i = 0; i < 4; ++i) sim.AddReplica(SmallReplica());
  // A slow trickle keeps mean queue depth near zero.
  const FleetStats stats = sim.Run(SmallTrace(30, /*seed=*/9, /*rate=*/0.5));
  EXPECT_GT(stats.scale_downs, 0u);
  EXPECT_LT(stats.replicas_final, 4u);
  EXPECT_GE(stats.replicas_final, 1u);
  EXPECT_EQ(stats.completed + stats.dropped, stats.submitted);
}

TEST(ClusterSimTest, HeterogeneousReplicasBothServe) {
  ClusterSimulator sim(RoutePolicy::kLeastOutstanding);
  ReplicaSpec h800 = SmallReplica();
  ReplicaSpec a100 = SmallReplica();
  a100.hw = simgpu::HardwareSpec::A100();
  a100.preset = serving::SystemPreset::QServe();
  sim.AddReplica(h800);
  sim.AddReplica(a100);
  const FleetStats stats = sim.Run(SmallTrace(60, /*seed=*/13, /*rate=*/20.0));
  EXPECT_EQ(stats.completed + stats.dropped, stats.submitted);
  ASSERT_EQ(stats.replicas.size(), 2u);
  EXPECT_GT(stats.replicas[0].stats.completed, 0u);
  EXPECT_GT(stats.replicas[1].stats.completed, 0u);
  EXPECT_NE(stats.replicas[0].label, stats.replicas[1].label);
}

TEST(ClusterSimTest, MultiTenantTraceIsSortedAndSessionStable) {
  std::vector<TenantConfig> tenants(2);
  tenants[0].tenant = 1;
  tenants[0].trace.count = 40;
  tenants[0].sessions = 4;
  tenants[1].tenant = 2;
  tenants[1].trace.count = 40;
  tenants[1].trace.arrival_rate_per_s = 10.0;
  tenants[1].sessions = 4;
  const std::vector<TimedRequest> trace =
      serving::GenerateMultiTenantTrace(tenants, 21);
  ASSERT_EQ(trace.size(), 80u);
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_LE(trace[i - 1].arrival_seconds, trace[i].arrival_seconds);
  }
  for (const TimedRequest& r : trace) {
    EXPECT_TRUE(r.tenant == 1 || r.tenant == 2);
    // Session keys embed the tenant, so affinity never mixes tenants.
    EXPECT_EQ(r.session >> 32, r.tenant);
  }
  // Determinism: same seed reproduces the identical trace.
  const std::vector<TimedRequest> again =
      serving::GenerateMultiTenantTrace(tenants, 21);
  ASSERT_EQ(again.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(trace[i].id, again[i].id);
    EXPECT_DOUBLE_EQ(trace[i].arrival_seconds, again[i].arrival_seconds);
    EXPECT_EQ(trace[i].session, again[i].session);
  }
}

TEST(ClusterSimTest, AffinityKeepsSessionsTogetherEndToEnd) {
  std::vector<TenantConfig> tenants(1);
  tenants[0].tenant = 1;
  tenants[0].trace.count = 60;
  tenants[0].trace.arrival_rate_per_s = 30.0;
  tenants[0].trace.prompt_min = 32;
  tenants[0].trace.prompt_max = 128;
  tenants[0].trace.output_min = 8;
  tenants[0].trace.output_max = 32;
  tenants[0].sessions = 6;
  const std::vector<TimedRequest> trace =
      serving::GenerateMultiTenantTrace(tenants, 31);

  ClusterSimulator sim(RoutePolicy::kSessionAffinity);
  for (int i = 0; i < 3; ++i) sim.AddReplica(SmallReplica());
  std::unordered_map<std::uint64_t, std::size_t> placement;
  for (const TimedRequest& r : trace) {
    sim.AdvanceTo(r.arrival_seconds);
    const auto dest = sim.SubmitAndRoute(r);
    ASSERT_TRUE(dest.has_value());
    const auto [it, inserted] = placement.emplace(r.session, *dest);
    if (!inserted) {
      EXPECT_EQ(it->second, *dest) << "session " << r.session;
    }
  }
}

// The simulated engine retires small requests in milliseconds, so chaos
// scenarios need real work per request to keep replicas busy: long prompts,
// long outputs, and a scheduler batch small enough that queues form.
ReplicaSpec HeavyReplica() {
  ReplicaSpec spec = SmallReplica(/*pool_blocks=*/512);
  spec.max_batch = 16;
  return spec;
}

std::vector<TimedRequest> HeavyTrace(std::size_t count, std::uint64_t seed,
                                     double rate) {
  TraceConfig config;
  config.arrival_rate_per_s = rate;
  config.count = count;
  config.prompt_min = 256;
  config.prompt_max = 2048;
  config.output_min = 64;
  config.output_max = 256;
  return serving::GenerateTrace(config, seed);
}

TEST(ClusterSimTest, KillReplicaLosesInFlightAndRetries) {
  ClusterSimulator sim(RoutePolicy::kLeastOutstanding);
  for (int i = 0; i < 3; ++i) sim.AddReplica(HeavyReplica());
  const std::vector<TimedRequest> trace =
      HeavyTrace(120, /*seed=*/19, /*rate=*/100.0);
  sim.ScheduleKill({trace[trace.size() / 2].arrival_seconds, 0});
  const FleetStats stats = sim.Run(trace);
  EXPECT_EQ(stats.killed_replicas, 1u);
  EXPECT_GT(stats.lost_requests, 0u);
  EXPECT_EQ(stats.lost_requests, stats.retried_requests);
  EXPECT_GE(stats.max_retry_attempts, 1u);  // retries carry their attempt count
  EXPECT_GT(stats.wasted_tokens, 0.0);
  EXPECT_EQ(stats.completed + stats.dropped + stats.rejected_requests +
                stats.lost_requests,
            stats.submitted + stats.retried_requests);
  EXPECT_TRUE(stats.replicas[0].killed);
  EXPECT_EQ(stats.replicas_final, 2u);
}

TEST(ClusterSimTest, KillInvalidOrDeadReplicaRefused) {
  ClusterSimulator sim(RoutePolicy::kRoundRobin);
  const std::size_t id = sim.AddReplica(SmallReplica());
  sim.AddReplica(SmallReplica());
  EXPECT_FALSE(sim.KillReplica(99, 0.0));
  EXPECT_TRUE(sim.KillReplica(id, 0.0));
  EXPECT_FALSE(sim.KillReplica(id, 0.0));  // already dead
  EXPECT_EQ(sim.ActiveReplicas(), 1u);
}

TEST(ClusterSimTest, KillingLastReplicaAllowedUnlikeRemove) {
  // Failures don't ask permission: the last replica can die, after which
  // arrivals (and the kill's own retries) drop.
  ClusterSimulator sim(RoutePolicy::kLeastOutstanding);
  const std::size_t id = sim.AddReplica(SmallReplica());
  EXPECT_FALSE(sim.RemoveReplica(id));
  EXPECT_TRUE(sim.KillReplica(id, 0.0));
  EXPECT_EQ(sim.ActiveReplicas(), 0u);
  TimedRequest req;
  req.id = 1;
  req.prompt_tokens = 64;
  req.max_new_tokens = 8;
  EXPECT_FALSE(sim.SubmitAndRoute(req).has_value());
}

TEST(ClusterSimTest, SloAdmissionControlShedsOverload) {
  // A single small replica against a hard burst: with a tight TTFT budget the
  // router sheds most of the backlog instead of queueing it.
  SloConfig slo;
  slo.ttft_budget = 0.5;
  ClusterSimulator sim(RoutePolicy::kLeastOutstanding, AutoscaleConfig{}, slo);
  sim.AddReplica(HeavyReplica());
  const FleetStats stats =
      sim.Run(HeavyTrace(120, /*seed=*/29, /*rate=*/150.0));
  EXPECT_GT(stats.rejected_requests, 0u);
  EXPECT_EQ(stats.completed + stats.dropped + stats.rejected_requests,
            stats.submitted);
  // Everything the fleet did accept finished reasonably close to the budget
  // (the predictor is an optimistic lower bound, not an oracle).
  EXPECT_LT(stats.completed, stats.submitted);
}

TEST(ClusterSimTest, TailTtftAutoscaleAddsReplicasUnderBurst) {
  AutoscaleConfig autoscale;
  autoscale.enabled = true;
  AutoscalePool pool;
  pool.spec = HeavyReplica();
  pool.signal = AutoscaleSignal::kTailTtft;
  pool.high = 0.2;
  pool.low = -1.0;  // never scale down in this test
  pool.window_seconds = 30.0;
  pool.min_window_samples = 2;
  pool.max_replicas = 6;
  autoscale.pools = {pool};
  autoscale.cooldown_seconds = 0.01;
  ClusterSimulator sim(RoutePolicy::kLeastOutstanding, autoscale);
  sim.AddReplica(HeavyReplica());
  // Sustained overload: TTFTs climb as the queue builds, completions keep
  // flowing into the window so the signal can observe the pain.
  const FleetStats stats = sim.Run(HeavyTrace(120, /*seed=*/5, /*rate=*/80.0));
  EXPECT_GT(stats.scale_ups, 0u);
  EXPECT_GT(stats.replicas_final, 1u);
  EXPECT_EQ(stats.completed + stats.dropped, stats.submitted);
}

}  // namespace
}  // namespace liquid::cluster
