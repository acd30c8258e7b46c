// fleet_steady / fleet_chaos_sweep: ClusterSimulator::Run episodes.
//
// fleet_steady replays one long short-prompt Poisson trace (the
// bench_sim_throughput mix) through 6 unified replicas under
// least-outstanding routing with no faults: a fleet that lives long enough
// for every replica's decode-price memo to be warm for most of the run.
//
// fleet_chaos_sweep runs many short independent episodes, each from its own
// derived seed on a fresh 2-prefill / 4-decode fleet (fresh engines, empty
// memos) with prefix-aware routing over shared prefixes, role-typed
// autoscale pools on a tick, two scheduled kills, a degradation and a retry
// budget with backoff.  Arrivals exceed capacity, so each kill starts a
// retry storm.  SLO admission control is left off on purpose: with it, the
// router's per-arrival TTFT prediction walks every waiting queue and
// dominates the episode (~90% of host time), hiding the layers this
// workload is meant to load.

#include <algorithm>
#include <cstdio>
#include <map>
#include <vector>

#include "cluster/cluster_sim.hpp"
#include "obs/prof/wall_profiler.hpp"
#include "util/wall_timer.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using liquid::cluster::AutoscaleConfig;
using liquid::cluster::AutoscalePool;
using liquid::cluster::AutoscaleSignal;
using liquid::cluster::ClusterSimulator;
using liquid::cluster::DegradeEvent;
using liquid::cluster::DisaggConfig;
using liquid::cluster::FleetStats;
using liquid::cluster::KillEvent;
using liquid::cluster::ReplicaRole;
using liquid::cluster::ReplicaSpec;
using liquid::cluster::RetryPolicy;
using liquid::cluster::RoutePolicy;
using liquid::serving::TimedRequest;

constexpr std::size_t kSteadyRequests = 40'000;
/// Episodes the traced replay and the cluster digest cover.
constexpr std::size_t kDigestEpisodes = 12;
constexpr std::size_t kChaosRequests = 1'000;

ReplicaSpec Replica(ReplicaRole role) {
  ReplicaSpec spec;
  spec.hw = liquid::simgpu::HardwareSpec::H800();
  spec.preset = liquid::serving::SystemPreset::LiquidServe();
  spec.model = liquid::serving::LlmConfig::Llama2_7B();
  spec.kv_pool_blocks = 4096;
  spec.block_tokens = 16;
  spec.max_batch = 16;
  spec.role = role;
  if (role == ReplicaRole::kPrefill) spec.options.prefill_chunk_tokens = 2048;
  spec.dollars_per_hour = role == ReplicaRole::kPrefill ? 2.8 : 2.2;
  return spec;
}

std::uint64_t Mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Everything one chaos episode needs besides the fleet itself.
struct ChaosEpisode {
  std::vector<TimedRequest> trace;
  std::vector<KillEvent> kills;
  DegradeEvent degrade;
};

ChaosEpisode MakeChaosEpisode(std::uint64_t seed, std::size_t episode) {
  liquid::serving::TraceConfig config;
  config.arrival_rate_per_s = 150.0;
  config.count = kChaosRequests;
  config.prompt_min = 256;
  config.prompt_max = 2048;
  config.output_min = 32;
  config.output_max = 256;
  config.sessions = 64;
  config.shared_prefix_fraction = 0.5;
  config.prefix_groups = 4;
  config.prefix_block_tokens = 16;
  ChaosEpisode e;
  e.trace = liquid::serving::GenerateTrace(config, Mix(seed * 1000 + episode));
  const double span = e.trace.back().arrival_seconds;
  // A prefill replica dies a third of the way in and a decode replica at two
  // thirds; a second decode replica runs 3x slow from a fifth of the way.
  e.kills = {{span / 3.0, 0}, {2.0 * span / 3.0, 3}};
  e.degrade = {span / 5.0, 4, 3.0};
  return e;
}

FleetStats RunChaos(const ChaosEpisode& e) {
  AutoscaleConfig autoscale;
  autoscale.enabled = true;
  autoscale.cooldown_seconds = 1.0;
  autoscale.tick_seconds = 0.5;
  autoscale.cost_aware = true;
  AutoscalePool prefill;
  prefill.role = ReplicaRole::kPrefill;
  prefill.spec = Replica(ReplicaRole::kPrefill);
  prefill.signal = AutoscaleSignal::kQueueDepth;
  prefill.high = 12.0;
  prefill.low = 0.5;
  prefill.min_replicas = 1;
  prefill.max_replicas = 3;
  AutoscalePool decode;
  decode.role = ReplicaRole::kDecode;
  decode.spec = Replica(ReplicaRole::kDecode);
  decode.signal = AutoscaleSignal::kFreeKv;
  decode.high = 0.85;
  decode.low = 0.05;
  decode.min_replicas = 1;
  decode.max_replicas = 6;
  autoscale.pools = {prefill, decode};

  RetryPolicy retry;
  retry.max_attempts = 3;
  retry.base_backoff_seconds = 0.05;
  DisaggConfig disagg;
  disagg.interconnect.bandwidth_gb_per_s = 400.0;
  disagg.max_migration_seconds = 0.25;

  ClusterSimulator sim(RoutePolicy::kPrefixAware, autoscale, {}, retry,
                       disagg);
  for (int i = 0; i < 2; ++i) sim.AddReplica(Replica(ReplicaRole::kPrefill));
  for (int i = 0; i < 4; ++i) sim.AddReplica(Replica(ReplicaRole::kDecode));
  for (const KillEvent& kill : e.kills) sim.ScheduleKill(kill);
  sim.ScheduleDegrade(e.degrade);
  liquid::obs::WallProfileScope span("bench/op");
  return sim.Run(e.trace);
}

FleetStats RunSteady(const std::vector<TimedRequest>& trace) {
  ClusterSimulator sim(RoutePolicy::kLeastOutstanding);
  for (int i = 0; i < 6; ++i) sim.AddReplica(Replica(ReplicaRole::kUnified));
  liquid::obs::WallProfileScope span("bench/op");
  return sim.Run(trace);
}

/// The deterministic outcome of one episode: a speed-only change to the
/// simulator must leave every field identical.
struct Digest {
  std::size_t submitted = 0, completed = 0, dropped = 0, rejected = 0;
  std::size_t lost = 0, retried = 0, exhausted = 0, killed = 0;
  std::size_t migrated = 0, scale_events = 0, in_migration = 0;
  std::uint64_t engine_iterations = 0, fleet_events = 0;
  double sim_seconds = 0, ttft_p99 = 0, tpot_p99 = 0;

  static Digest Of(const FleetStats& s) {
    Digest d;
    d.submitted = s.submitted;
    d.completed = s.completed;
    d.dropped = s.dropped;
    d.rejected = s.rejected_requests;
    d.lost = s.lost_requests;
    d.retried = s.retried_requests;
    d.exhausted = s.retries_exhausted;
    d.killed = s.killed_replicas;
    d.migrated = s.disagg.migrated_requests;
    d.scale_events = s.scale_events.size();
    d.in_migration = s.disagg.in_migration;
    d.engine_iterations = s.sim_throughput.engine_iterations;
    d.fleet_events = s.sim_throughput.fleet_events;
    d.sim_seconds = s.sim_throughput.sim_seconds;
    d.ttft_p99 = s.ttft.p99;
    d.tpot_p99 = s.tpot.p99;
    return d;
  }
  bool operator==(const Digest&) const = default;

  /// completed + dropped + rejected + lost == submitted + retried, and no
  /// request is left on the wire.
  [[nodiscard]] bool Conserved() const {
    return completed + dropped + rejected + lost == submitted + retried &&
           in_migration == 0 && submitted > 0;
  }
  /// Requests that reached a terminal state (each submitted request ends in
  /// exactly one of these).
  [[nodiscard]] double Terminal() const {
    return static_cast<double>(completed + dropped + rejected + exhausted);
  }
};

class FleetWorkload final : public Workload {
 public:
  FleetWorkload(bool chaos, std::uint64_t seed) : chaos_(chaos), seed_(seed) {}

  OpResult Setup() override {
    if (!chaos_) steady_ = SteadyTrace(seed_);
    return Op(0);
  }

  void PreTimingChecks(Report& /*report*/) override {}

  [[nodiscard]] std::size_t InputId(std::size_t i) const override {
    return chaos_ ? i : 0;
  }

  OpResult Op(std::size_t i) override {
    const std::size_t id = InputId(i);
    FleetStats stats;
    liquid::WallTimer timer;
    if (chaos_) {
      // Episode generation is input preparation, outside the timed call.
      const ChaosEpisode episode = MakeChaosEpisode(seed_, id);
      timer.Restart();
      stats = RunChaos(episode);
    } else {
      stats = RunSteady(steady_);
    }
    OpResult r;
    r.seconds = timer.Seconds();
    const Digest d = Digest::Of(stats);
    const auto [it, first] = references_.try_emplace(id, d);
    r.ok = d.Conserved() && d == it->second;
    r.work = d.Terminal();
    r.events = static_cast<double>(d.engine_iterations + d.fleet_events);
    r.sim_seconds = d.sim_seconds;
    return r;
  }

  [[nodiscard]] std::size_t TracedOps() const override {
    return chaos_ ? kDigestEpisodes : 1;
  }
  [[nodiscard]] std::size_t ProbeM() const override { return 4; }

  void DigestMetrics(Report& report) const override {
    // Over inputs 1..TracedOps(): the same set for every run of a seed,
    // however many operations the timed loop fitted in.
    Digest sum;
    for (std::size_t i = 1; i <= TracedOps(); ++i) {
      const auto it = references_.find(InputId(i));
      if (it == references_.end()) continue;
      const Digest& d = it->second;
      sum.submitted += d.submitted;
      sum.completed += d.completed;
      sum.dropped += d.dropped;
      sum.rejected += d.rejected;
      sum.retried += d.retried;
      sum.killed += d.killed;
      sum.migrated += d.migrated;
      sum.scale_events += d.scale_events;
      sum.engine_iterations += d.engine_iterations;
      sum.fleet_events += d.fleet_events;
      sum.sim_seconds += d.sim_seconds;
      sum.ttft_p99 = std::max(sum.ttft_p99, d.ttft_p99);
      sum.tpot_p99 = std::max(sum.tpot_p99, d.tpot_p99);
    }
    const auto count = [](std::size_t v) { return static_cast<double>(v); };
    report.Set("cluster.digest_episodes", count(TracedOps()));
    report.Set("cluster.retried", count(sum.retried));
    report.Set("cluster.migrated", count(sum.migrated));
    report.Set("cluster.killed", count(sum.killed));
    report.Set("cluster.scale_events", count(sum.scale_events));
    report.Set("cluster.dropped", count(sum.dropped));
    report.Set("cluster.rejected", count(sum.rejected));
    report.Set("cluster.sim_seconds", sum.sim_seconds);
    report.Set("cluster.completed", count(sum.completed));
    report.Set("cluster.engine_iterations",
               static_cast<double>(sum.engine_iterations));
    report.Set("cluster.fleet_events", static_cast<double>(sum.fleet_events));
    report.Set("cluster.ttft_p99_sim_ms", sum.ttft_p99 * 1e3);
    report.Set("cluster.tpot_p99_sim_ms", sum.tpot_p99 * 1e3);
    report.Set("cluster.fleet_events_per_request",
               sum.submitted > 0 ? static_cast<double>(sum.fleet_events) /
                                       static_cast<double>(sum.submitted)
                                 : 0);
  }

  [[nodiscard]] bool IsFleet() const override { return true; }

 private:
  bool chaos_;
  std::uint64_t seed_;
  std::vector<TimedRequest> steady_;
  /// First outcome of each input; every later run of it must match.
  std::map<std::size_t, Digest> references_;
};

}  // namespace

std::vector<TimedRequest> SteadyTrace(std::uint64_t seed) {
  liquid::serving::TraceConfig config;
  config.arrival_rate_per_s = 120.0;
  config.count = kSteadyRequests;
  config.prompt_min = 128;
  config.prompt_max = 1024;
  config.output_min = 16;
  config.output_max = 64;
  config.sessions = 256;
  return liquid::serving::GenerateTrace(config, seed);
}

std::unique_ptr<Workload> MakeFleetWorkload(bool chaos, std::uint64_t seed) {
  return std::make_unique<FleetWorkload>(chaos, seed);
}

}  // namespace perfbench
