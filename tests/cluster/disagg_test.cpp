// Disaggregated prefill/decode serving: role-aware routing, KV migration
// end-to-end through the cluster simulator, graceful fallback to unified
// serving (dead pools, unusable interconnect), retry budget/backoff, and the
// extended conservation invariant.

#include <gtest/gtest.h>

#include "cluster/cluster_sim.hpp"
#include "serving/workload.hpp"

namespace liquid::cluster {
namespace {

ReplicaSpec DisaggReplica(ReplicaRole role, std::size_t pool_blocks = 512) {
  ReplicaSpec spec;
  spec.hw = simgpu::HardwareSpec::H800();
  spec.preset = serving::SystemPreset::LiquidServe();
  spec.model = serving::LlmConfig::Llama2_7B();
  spec.kv_pool_blocks = pool_blocks;
  spec.block_tokens = 16;
  spec.max_batch = 16;
  spec.role = role;
  return spec;
}

std::vector<serving::TimedRequest> LongPromptTrace(std::size_t count,
                                                   std::uint64_t seed,
                                                   double rate = 30.0) {
  serving::TraceConfig config;
  config.arrival_rate_per_s = rate;
  config.count = count;
  config.prompt_min = 512;
  config.prompt_max = 2048;
  config.output_min = 32;
  config.output_max = 128;
  config.sessions = 8;
  return serving::GenerateTrace(config, seed);
}

void ExpectConservation(const FleetStats& s) {
  EXPECT_EQ(s.completed + s.dropped + s.rejected_requests + s.lost_requests,
            s.submitted + s.retried_requests)
      << "completed=" << s.completed << " dropped=" << s.dropped
      << " rejected=" << s.rejected_requests << " lost=" << s.lost_requests
      << " submitted=" << s.submitted << " retried=" << s.retried_requests;
  EXPECT_EQ(s.lost_requests, s.retried_requests + s.retries_exhausted);
  EXPECT_EQ(s.disagg.in_migration, 0u);  // nothing left on the wire
}

TEST(DisaggTest, PromptsPrefillThenMigrateAndComplete) {
  ClusterSimulator sim(RoutePolicy::kLeastOutstanding);
  sim.AddReplica(DisaggReplica(ReplicaRole::kPrefill));
  sim.AddReplica(DisaggReplica(ReplicaRole::kPrefill));
  sim.AddReplica(DisaggReplica(ReplicaRole::kDecode));
  sim.AddReplica(DisaggReplica(ReplicaRole::kDecode));
  EXPECT_TRUE(sim.router().role_aware());

  const auto trace = LongPromptTrace(40, 11);
  const FleetStats s = sim.Run(trace);
  ExpectConservation(s);
  EXPECT_EQ(s.submitted, 40u);
  EXPECT_EQ(s.completed, 40u);
  EXPECT_EQ(s.disagg.prefill_replicas, 2u);
  EXPECT_EQ(s.disagg.decode_replicas, 2u);
  // Every prompt prefilled on the prefill pool and migrated across.
  EXPECT_EQ(s.disagg.prefill_handoffs, 40u);
  EXPECT_EQ(s.disagg.migrated_requests, 40u);
  EXPECT_GT(s.disagg.migrated_kv_bytes, 0.0);
  EXPECT_GT(s.disagg.migration_seconds.p50, 0.0);
  // Prefill replicas never complete a multi-token request; decode replicas
  // never prefill-handoff.
  EXPECT_EQ(s.replicas[0].stats.prefill_handoffs +
                s.replicas[1].stats.prefill_handoffs,
            40u);
  EXPECT_EQ(s.replicas[0].stats.completed + s.replicas[1].stats.completed,
            0u);
  EXPECT_EQ(s.replicas[2].stats.completed + s.replicas[3].stats.completed,
            40u);
  EXPECT_EQ(s.replicas[2].stats.prefill_handoffs, 0u);
  EXPECT_EQ(s.replicas[3].stats.prefill_handoffs, 0u);
}

TEST(DisaggTest, UnusableInterconnectFallsBackToUnifiedServing) {
  DisaggConfig disagg;
  disagg.interconnect.bandwidth_gb_per_s = 0;  // bandwidth → 0
  ClusterSimulator sim(RoutePolicy::kLeastOutstanding, {}, {}, {}, disagg);
  sim.AddReplica(DisaggReplica(ReplicaRole::kPrefill));
  sim.AddReplica(DisaggReplica(ReplicaRole::kDecode));
  // Roles are configured, but with no way to move KV the router must treat
  // the fleet as unified.
  EXPECT_FALSE(sim.router().role_aware());

  const auto trace = LongPromptTrace(30, 5);
  const FleetStats s = sim.Run(trace);
  ExpectConservation(s);
  EXPECT_EQ(s.completed, 30u);
  EXPECT_EQ(s.disagg.migrated_requests, 0u);
  EXPECT_EQ(s.disagg.prefill_handoffs, 0u);
  // Both replicas served prompts end-to-end.
  EXPECT_GT(s.replicas[0].stats.completed, 0u);
  EXPECT_GT(s.replicas[1].stats.completed, 0u);
}

TEST(DisaggTest, MigrationBudgetBustDecodesLocally) {
  DisaggConfig disagg;
  disagg.interconnect.bandwidth_gb_per_s = 0.05;  // ~glacial link
  disagg.interconnect.prefill_overlap = 0;
  disagg.max_migration_seconds = 0.01;  // nothing fits this stall budget
  ClusterSimulator sim(RoutePolicy::kLeastOutstanding, {}, {}, {}, disagg);
  sim.AddReplica(DisaggReplica(ReplicaRole::kPrefill));
  sim.AddReplica(DisaggReplica(ReplicaRole::kDecode));

  const auto trace = LongPromptTrace(25, 7, /*rate=*/10.0);
  const FleetStats s = sim.Run(trace);
  ExpectConservation(s);
  EXPECT_EQ(s.completed, 25u);
  // Every handoff bailed to local decode: unified-per-request degradation.
  EXPECT_EQ(s.disagg.prefill_handoffs, 25u);
  EXPECT_EQ(s.disagg.migrated_requests, 0u);
  EXPECT_EQ(s.disagg.local_decode_fallbacks, 25u);
  // The prefill replica did all the decoding too.
  EXPECT_EQ(s.replicas[0].stats.completed, 25u);
  EXPECT_EQ(s.replicas[1].stats.completed, 0u);
}

TEST(DisaggTest, DeadDecodePoolDecodesLocally) {
  DisaggConfig disagg;
  disagg.interconnect.bandwidth_gb_per_s = 400.0;
  ClusterSimulator sim(RoutePolicy::kLeastOutstanding, {}, {}, {}, disagg);
  sim.AddReplica(DisaggReplica(ReplicaRole::kPrefill));
  sim.AddReplica(DisaggReplica(ReplicaRole::kDecode));
  // The decode pool dies before any arrival.
  sim.ScheduleKill({0.0, 1});

  const auto trace = LongPromptTrace(20, 3, /*rate=*/10.0);
  const FleetStats s = sim.Run(trace);
  ExpectConservation(s);
  EXPECT_EQ(s.killed_replicas, 1u);
  EXPECT_EQ(s.completed, 20u);
  EXPECT_EQ(s.disagg.migrated_requests, 0u);
  EXPECT_EQ(s.disagg.local_decode_fallbacks, 20u);
  EXPECT_EQ(s.replicas[0].stats.completed, 20u);
}

TEST(DisaggTest, TargetDeathMidTransferReentersRetryPath) {
  DisaggConfig disagg;
  // Slow enough that transfers are visibly in flight, with a budget loose
  // enough to keep migrating anyway.
  disagg.interconnect.bandwidth_gb_per_s = 2.0;
  disagg.interconnect.prefill_overlap = 0;
  disagg.interconnect.max_inflight_per_link = 64;
  disagg.max_migration_seconds = 10.0;
  ClusterSimulator sim(RoutePolicy::kLeastOutstanding, {}, {}, {}, disagg);
  sim.AddReplica(DisaggReplica(ReplicaRole::kPrefill, 2048));
  sim.AddReplica(DisaggReplica(ReplicaRole::kDecode, 2048));

  const auto trace = LongPromptTrace(30, 13, /*rate=*/25.0);
  // Kill the decode replica mid-run: transfers headed there are lost.
  sim.ScheduleKill({trace[trace.size() / 2].arrival_seconds, 1});
  const FleetStats s = sim.Run(trace);
  ExpectConservation(s);
  EXPECT_EQ(s.killed_replicas, 1u);
  EXPECT_GT(s.disagg.target_deaths, 0u);
  EXPECT_GT(s.lost_requests, 0u);
  // Retries land back on the prefill replica, which decodes locally now
  // that the decode pool is gone — nothing is stranded.
  EXPECT_EQ(s.completed, s.submitted);
}

TEST(DisaggTest, GracefulScaleDownLosesNothingMidMigration) {
  // Aggressive queue-depth scale-down shrinks the decode pool while
  // transfers are in flight; graceful removal must re-plan inbound
  // migrations (or decode locally at the source), never spend them as losses
  // or retries.
  AutoscaleConfig autoscale;
  autoscale.enabled = true;
  AutoscalePool decode_pool;
  decode_pool.role = ReplicaRole::kDecode;
  decode_pool.spec = DisaggReplica(ReplicaRole::kDecode, 2048);
  decode_pool.signal = AutoscaleSignal::kQueueDepth;
  decode_pool.high = 1e9;  // never scale up
  decode_pool.low = 2.0;   // shed replicas eagerly
  decode_pool.min_replicas = 1;
  autoscale.pools = {decode_pool};
  autoscale.cooldown_seconds = 0.1;
  DisaggConfig disagg;
  disagg.interconnect.bandwidth_gb_per_s = 2.0;  // transfers visibly fly
  disagg.interconnect.prefill_overlap = 0;
  disagg.interconnect.max_inflight_per_link = 64;
  disagg.max_migration_seconds = 10.0;
  ClusterSimulator sim(RoutePolicy::kLeastOutstanding, autoscale, {}, {},
                       disagg);
  sim.AddReplica(DisaggReplica(ReplicaRole::kPrefill, 2048));
  sim.AddReplica(DisaggReplica(ReplicaRole::kDecode, 2048));
  sim.AddReplica(DisaggReplica(ReplicaRole::kDecode, 2048));
  sim.AddReplica(DisaggReplica(ReplicaRole::kDecode, 2048));

  const auto trace = LongPromptTrace(40, 29, /*rate=*/12.0);
  const FleetStats s = sim.Run(trace);
  ExpectConservation(s);
  EXPECT_GT(s.scale_downs, 0u);
  EXPECT_EQ(s.killed_replicas, 0u);
  EXPECT_EQ(s.lost_requests, 0u);       // graceful means graceful
  EXPECT_EQ(s.retries_exhausted, 0u);
  EXPECT_EQ(s.disagg.target_deaths, 0u);
  EXPECT_EQ(s.completed, s.submitted);
}

TEST(DisaggTest, RetryBudgetExhaustsInsteadOfStorming) {
  RetryPolicy retry;
  retry.max_attempts = 1;
  ClusterSimulator sim(RoutePolicy::kLeastOutstanding, {}, {}, retry, {});
  sim.AddReplica(DisaggReplica(ReplicaRole::kUnified, 256));
  sim.AddReplica(DisaggReplica(ReplicaRole::kUnified, 256));

  serving::TraceConfig config;
  config.arrival_rate_per_s = 60.0;
  config.count = 60;
  config.prompt_min = 256;
  config.prompt_max = 1024;
  config.output_min = 64;
  config.output_max = 128;
  const auto trace = serving::GenerateTrace(config, 21);
  // Two kills in quick succession: requests retried off the first corpse
  // can die again on the second — their budget is then spent.
  const double mid = trace[trace.size() / 2].arrival_seconds;
  sim.ScheduleKill({mid, 0});
  sim.ScheduleKill({mid + 0.2, 1});
  const FleetStats s = sim.Run(trace);
  ExpectConservation(s);
  EXPECT_EQ(s.killed_replicas, 2u);
  EXPECT_GT(s.retries_exhausted, 0u);
  EXPECT_LE(s.max_retry_attempts, 1u);
}

TEST(DisaggTest, BackoffDelaysRetriesButLosesNothing) {
  RetryPolicy retry;
  retry.base_backoff_seconds = 0.25;
  ClusterSimulator sim(RoutePolicy::kLeastOutstanding, {}, {}, retry, {});
  for (int i = 0; i < 3; ++i) {
    sim.AddReplica(DisaggReplica(ReplicaRole::kUnified, 512));
  }
  serving::TraceConfig config;
  config.arrival_rate_per_s = 50.0;
  config.count = 80;
  config.prompt_min = 256;
  config.prompt_max = 1024;
  config.output_min = 64;
  config.output_max = 128;
  const auto trace = serving::GenerateTrace(config, 31);
  sim.ScheduleKill({trace[trace.size() / 2].arrival_seconds, 1});
  const FleetStats s = sim.Run(trace);
  ExpectConservation(s);
  EXPECT_GT(s.lost_requests, 0u);
  EXPECT_EQ(s.retries_exhausted, 0u);  // unlimited budget, only delayed
  EXPECT_EQ(s.completed, s.submitted);
}

TEST(DisaggTest, RoleAwareRoutingUnitChecks) {
  Router router(RoutePolicy::kLeastOutstanding);
  router.set_role_aware(true);
  std::vector<ReplicaView> views(4);
  views[0].role = ReplicaRole::kPrefill;
  views[0].outstanding = 5;
  views[1].role = ReplicaRole::kPrefill;
  views[1].outstanding = 2;
  views[2].role = ReplicaRole::kDecode;
  views[2].outstanding = 0;
  views[3].role = ReplicaRole::kUnified;
  views[3].outstanding = 0;
  serving::TimedRequest request;
  request.session = 9;

  // Prompts go to the least-loaded prefill replica — never the idle decode
  // or unified one while a prefill replica lives.
  EXPECT_EQ(router.Route(request, views), std::optional<std::size_t>(1));

  // Prefill pool dead: unified takes over; decode is still protected.
  views[0].alive = views[1].alive = false;
  EXPECT_EQ(router.Route(request, views), std::optional<std::size_t>(3));

  // Only decode replicas left: last resort, they serve prompts.
  views[3].alive = false;
  EXPECT_EQ(router.Route(request, views), std::optional<std::size_t>(2));
}

TEST(DisaggTest, RouteDecodePrefersAffinityThenFreeKv) {
  Router router(RoutePolicy::kLeastOutstanding);
  router.set_role_aware(true);
  std::vector<ReplicaView> views(3);
  views[0].role = ReplicaRole::kPrefill;
  views[0].free_kv_blocks = 1000;
  views[1].role = ReplicaRole::kDecode;
  views[1].free_kv_blocks = 50;
  views[2].role = ReplicaRole::kDecode;
  views[2].free_kv_blocks = 200;

  // First placement: most free KV among decode replicas (never prefill).
  EXPECT_EQ(router.RouteDecode(77, views, 10), std::optional<std::size_t>(2));
  // Same session sticks to its decode home even when the other has more
  // room now...
  views[1].free_kv_blocks = 500;
  EXPECT_EQ(router.RouteDecode(77, views, 10), std::optional<std::size_t>(2));
  // ...until the home cannot hold the continuation.
  EXPECT_EQ(router.RouteDecode(77, views, 300),
            std::optional<std::size_t>(1));
  // No decode-capable replica alive → caller decodes locally.
  views[1].alive = views[2].alive = false;
  EXPECT_EQ(router.RouteDecode(77, views, 10), std::nullopt);
}

}  // namespace
}  // namespace liquid::cluster
