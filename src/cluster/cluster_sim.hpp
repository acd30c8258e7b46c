#pragma once
// Multi-replica cluster simulator: the fleet layer above the single-engine
// serving loop.  N replicas — each a full Scheduler+ServingEngine over its
// own paged-KV pool, optionally heterogeneous (A100 next to the paper's
// target GPU, different presets/models) — advance on a shared simulated
// clock while a Router places Poisson-trace arrivals.  Replicas can be added
// or removed mid-run (an autoscaling hook does both automatically: role-typed
// pools with per-role signals, a cost-aware $/1M-token shrink objective, and
// a periodic event-pump tick that keeps evaluating through the post-arrival
// drain); removing a replica drains its unfinished requests and re-routes
// them.  Replicas can also be KILLED —
// abrupt failure, no drain: in-flight work is lost and re-submitted from
// scratch (under a RetryPolicy budget with exponential backoff), and SLO
// admission control at the router sheds requests whose predicted TTFT busts
// the budget.
//
// Replicas can be role-specialized (ReplicaSpec::role): prompts route to the
// prefill pool, run to their first token, then the DisaggCoordinator
// migrates the exported KV to a decode replica over a priced interconnect
// link — decode replicas keep decoding while transfers fly, and any handoff
// whose stall busts the migration budget (or finds no live decode target)
// decodes locally on its prefill replica, degrading gracefully to unified
// serving.  Conservation generalizes to
//   completed + dropped + rejected + lost == submitted + retried  (+ the
//   retry budget identity lost == retried + retries_exhausted)
// across every scale/kill/shed/migration event, with zero requests left in
// migration at the end of a run.  Per-request timings from every replica
// pool into FleetStats.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cluster/disagg/coordinator.hpp"
#include "cluster/fleet_stats.hpp"
#include "cluster/router.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_recorder.hpp"
#include "serving/engine.hpp"
#include "serving/scheduler.hpp"
#include "serving/workload.hpp"
#include "util/sliding_window.hpp"

namespace liquid::cluster {

/// Everything needed to stand up one replica.
struct ReplicaSpec {
  simgpu::HardwareSpec hw;
  serving::SystemPreset preset;
  serving::LlmConfig model;
  serving::EngineOptions options = {};
  std::size_t kv_pool_blocks = 4096;
  std::size_t block_tokens = 16;
  std::size_t max_batch = 64;
  /// Disaggregated-serving specialization (kUnified = monolithic).
  ReplicaRole role = ReplicaRole::kUnified;
  /// What an hour of this replica costs; 0 disables cost accounting for it.
  double dollars_per_hour = 0;

  [[nodiscard]] std::string Label() const { return hw.name + "/" + preset.name; }
};

/// What the autoscaler keys on.  Thresholds are signal-relative: a queue
/// depth, a latency in seconds, or a used-KV fraction in [0, 1].
enum class AutoscaleSignal {
  kQueueDepth,  ///< mean outstanding requests per unit of effective capacity
                ///  (a replica degraded by factor k counts as 1/k capacity,
                ///  so brown-outs raise the signal instead of masking it)
  kTailTtft,    ///< p99 TTFT over a sliding window of completions
  kFreeKv,      ///< KV pressure: used fraction of the pool's paged-KV blocks
  kTailTpot,    ///< p99 TPOT over a sliding window (decode-pool pain signal)
};

/// One role-typed autoscaling pool: the replicas it governs (by role), the
/// spec a scale-up clones, the signal it watches, and its size bounds.  A
/// disaggregated fleet runs one pool per role so a decode-bound burst grows
/// the decode pool instead of cloning whatever spec was added first.
struct AutoscalePool {
  ReplicaRole role = ReplicaRole::kUnified;
  ReplicaSpec spec;  ///< what a scale-up of this pool adds
  AutoscaleSignal signal = AutoscaleSignal::kQueueDepth;
  /// Signal thresholds.  Suggested defaults per signal: kQueueDepth 8 / 0.5;
  /// kTailTtft and kTailTpot in seconds; kFreeKv used fraction, e.g.
  /// 0.85 / 0.25.
  double high = 8.0;
  double low = 0.5;
  /// A pool below min grows regardless of its signal; the scale-down victim
  /// scan additionally never retires the last active replica of a
  /// specialized role (min 0 lets a pool idle away entirely once another
  /// pool covers its role).
  std::size_t min_replicas = 1;
  std::size_t max_replicas = 16;
  // Windowed-signal (kTailTtft / kTailTpot) knobs: the signal abstains until
  // the pool's window holds enough samples.
  double window_seconds = 10.0;
  std::size_t min_window_samples = 8;
};

/// Autoscaler: role-typed pools, each with its own signal and bounds.  When a
/// pool's signal crosses its high threshold, a replica cloned from the pool's
/// spec joins it; below the low threshold the pool's least-loaded replica is
/// drained and removed.  A fleet-wide autoscaler over a unified fleet is one
/// kUnified pool.  One cooldown paces every pool, and scale-down additionally
/// requires the fleet to have observed at least one completion or handoff
/// (an empty queue on a cold fleet is absence of data, not idleness).  With
/// no pools, `enabled` scales nothing.
struct AutoscaleConfig {
  bool enabled = false;
  double cooldown_seconds = 2.0;  ///< minimum time between scale events
  std::vector<AutoscalePool> pools;

  /// Event-pump evaluation period.  0 evaluates only when a request arrives
  /// (and is therefore blind to the post-burst drain tail).  > 0 arms a
  /// periodic tick in the event pump: the autoscaler also runs between
  /// arrivals and through the drain to quiescence, so an idle fleet scales
  /// back to its minimum instead of burning $/hour across the tail.  The
  /// tick disarms once the fleet is idle and a cooldown-satisfied evaluation
  /// fires no event (windowed signals abstain on an empty window;
  /// kQueueDepth keeps shrinking to the minimum first), and re-arms on new
  /// work.
  double tick_seconds = 0;

  /// Cost-aware objective: when several pools signal scale-down in the same
  /// evaluation, retire capacity from the most expensive pool first — the
  /// biggest cut to predicted $/1M tokens per event.  Scale-ups stay
  /// SLO-driven.
  bool cost_aware = false;
  /// Optional scale-up budget cap: a growth event (other than min-replica
  /// enforcement) is vetoed when the predicted post-scale $/1M tokens —
  /// fleet $/hour over the recent token rate — exceeds this.  0 disables.
  double max_dollars_per_m_tokens = 0;
  /// Window for the recent-token-rate estimate behind the cost predictions,
  /// and for the fleet-wide TTFT/TPOT metrics gauges.
  double cost_window_seconds = 10.0;
  /// Prompt size used to probe PredictTtft-based admission feasibility
  /// before a scale-down: the removal is vetoed when no surviving
  /// prompt-eligible replica could admit such a prompt within the TTFT SLO
  /// (only enforced when the router has an SLO budget).
  std::size_t slo_probe_prompt_tokens = 512;
  /// Downscale stabilization (k8s-HPA style): a shrink commits only after
  /// the signal has read below `low` CONTINUOUSLY for this long (every
  /// evaluation in the window read low), so a momentarily empty queue
  /// between Poisson gaps doesn't retire capacity the next burst instant
  /// needs back.  Time-based on purpose — an eval count would collapse to
  /// nothing at burst arrival rates.  0 = immediate shrink.
  double shrink_stable_seconds = 0;
};

/// A scheduled abrupt failure for ClusterSimulator::Run: at `time`, replica
/// `replica` dies without draining.
struct KillEvent {
  double time = 0;
  std::size_t replica = 0;
};

/// A scheduled partial degradation: at `time`, the replica's compute slows
/// down by `slowdown_factor` (it keeps serving — nothing is lost — but every
/// prefill/chunk/decode charge runs that much slower, and PredictTtft quotes
/// the degraded speed so admission control and TTFT-scoring see it).
struct DegradeEvent {
  double time = 0;
  std::size_t replica = 0;
  double slowdown_factor = 1.0;
};

class ClusterSimulator {
 public:
  explicit ClusterSimulator(RoutePolicy policy = RoutePolicy::kLeastOutstanding,
                            AutoscaleConfig autoscale = {}, SloConfig slo = {},
                            RetryPolicy retry = {}, DisaggConfig disagg = {});
  /// Adds a replica (usable mid-run: its clock joins the fleet clock).
  /// Returns the replica id, which is stable for the simulator's lifetime.
  /// Adding a prefill- or decode-role replica arms the router's role-aware
  /// stage (when the interconnect is usable).
  std::size_t AddReplica(const ReplicaSpec& spec);

  /// Drains the replica's unfinished requests, re-routes them to the
  /// remaining replicas, and deactivates it.  Its completed-request stats
  /// are retained.  Returns false for an unknown/already-removed id or when
  /// it is the last active replica.
  bool RemoveReplica(std::size_t id);

  /// Abrupt failure at time `now`: the replica dies WITHOUT draining.  All
  /// in-flight work is lost (tokens already generated are wasted) and each
  /// lost request is re-submitted from scratch through the router — which may
  /// reject or drop it like any arrival, back off per the RetryPolicy, or be
  /// abandoned once the retry budget is spent.  Unlike RemoveReplica, killing
  /// the last alive replica is allowed (failures don't ask permission); its
  /// lost requests then drop.  Returns false for an unknown/already-dead id.
  bool KillReplica(std::size_t id, double now);

  /// Queues a kill for Run() to fire when the shared clock reaches it.
  void ScheduleKill(const KillEvent& kill) { kill_schedule_.push_back(kill); }

  /// Partial degradation (chaos): the replica slows down by `slowdown_factor`
  /// rather than dying — in-flight work survives, it just finishes late.
  /// Factors compose with any earlier degradation by replacement (the event
  /// carries the absolute factor, 1.0 restores full speed).  Returns false
  /// for an unknown or inactive id.
  bool DegradeReplica(std::size_t id, double slowdown_factor);

  /// Queues a degradation for Run() to fire on the shared clock.
  void ScheduleDegrade(const DegradeEvent& degrade) {
    degrade_schedule_.push_back(degrade);
  }

  /// Advances every active replica to `deadline` on the shared clock,
  /// harvests new completions into the TTFT window, and schedules KV
  /// migrations for freshly finished prefills.
  void AdvanceTo(double deadline);

  /// Routes one request at its arrival time.  Returns the chosen replica id;
  /// nullopt when no replica is alive (fleet drop) or the SLO admission
  /// control shed it (rejected).
  std::optional<std::size_t> SubmitAndRoute(
      const serving::TimedRequest& request);

  /// Full episode: sorts the trace by arrival, interleaves advancing the
  /// shared clock, scheduled kills, migration landings, backoff retries and
  /// autoscaling with routing, then runs the fleet to quiescence (no work,
  /// no in-flight migrations, no pending retries) and aggregates FleetStats.
  FleetStats Run(const std::vector<serving::TimedRequest>& trace);

  /// Attaches fleet telemetry (either pointer may be null to skip that
  /// half).  The trace recorder receives every lifecycle event — router
  /// decisions with the scorer term breakdown, admissions, prefill/decode
  /// spans, migrations, kills, scale events — on the shared simulated clock;
  /// the metrics registry is sampled at instants the simulation already
  /// visits (arrivals, the autoscale tick, end of run), so attaching it
  /// never perturbs simulated behavior.  Both must outlive the simulator.
  /// Call before Run(); replicas added later (scale-ups) are wired
  /// automatically.
  void AttachTelemetry(obs::TraceRecorder* trace,
                       obs::MetricsRegistry* metrics);

  [[nodiscard]] std::size_t ActiveReplicas() const;
  [[nodiscard]] std::size_t TotalOutstanding() const;
  /// Requests whose KV is currently on the wire between pools.
  [[nodiscard]] std::size_t InMigration() const {
    return coordinator_.InFlight();
  }
  [[nodiscard]] const Router& router() const { return router_; }
  [[nodiscard]] const DisaggCoordinator& coordinator() const {
    return coordinator_;
  }

 private:
  /// Sentinel pool index: the replica belongs to no autoscale pool (no
  /// configured pool's role matches its spec), so no pool grows or shrinks
  /// it.
  static constexpr std::size_t kNoPool = static_cast<std::size_t>(-1);

  struct Replica {
    std::size_t id = 0;
    ReplicaSpec spec;
    std::unique_ptr<serving::ServingEngine> engine;
    std::unique_ptr<serving::ContinuousBatchScheduler> scheduler;
    bool active = true;
    bool killed = false;
    std::size_t pool = kNoPool;  ///< owning AutoscalePool index
    double added_at = 0;    ///< fleet clock when the replica joined
    double retired_at = -1; ///< scale-down instant; < 0 = never retired
    std::size_t submitted = 0;
    std::size_t harvested = 0;  ///< completions already pulled into the window
    std::size_t drops_harvested = 0;    ///< scheduler drops already observed
    std::size_t handoffs_harvested = 0; ///< prefill handoffs already planned
  };

  /// Per-pool windowed-signal state (parallel to AutoscaleConfig::pools).
  struct PoolRuntime {
    SlidingWindowStats ttft_window;
    SlidingWindowStats tpot_window;
    /// When the current unbroken run of below-low readings began
    /// (downscale stabilization); < 0 = not currently reading low.
    double low_since = -1;
  };

  /// One pool's signal reading at an evaluation instant.
  struct PoolSignal {
    std::size_t active = 0;  ///< active replicas the pool currently governs
    double value = 0;        ///< the raw signal reading
    bool up = false;         ///< reading above the pool's high threshold
    bool down = false;       ///< reading below the pool's low threshold
    /// The pool has ever been routed work (lifetime submissions > 0) —
    /// shrink evidence: a pool that never served anything shows an empty
    /// queue because the run just started, not because it is
    /// overprovisioned.
    bool work_seen = false;
  };

  /// A kill/migration-loss re-submission waiting out its backoff.
  struct PendingRetry {
    double due = 0;
    serving::TimedRequest request;
  };
  /// Heap order for pending_retries_: the earliest due, ties toward the
  /// lowest request id, surfaces first.
  static bool ReleasesAfter(const PendingRetry& a, const PendingRetry& b) {
    return a.due != b.due ? a.due > b.due : a.request.id > b.request.id;
  }

  /// Snapshots every replica for a routing decision.  `signature` (when
  /// given) lets the TTFT estimate price the prefix-cache discount at each
  /// replica; the views also expose each pool's PrefixIndex for the
  /// router's overlap term.  Returns a reference to a member scratch buffer
  /// (routing runs once per fleet event — a heap allocation per decision was
  /// the hot path's last per-event allocation); valid until the next call.
  [[nodiscard]] const std::vector<ReplicaView>& Views(
      std::size_t prompt_tokens,
      const serving::PrefixSignature* signature = nullptr) const;
  /// Shared routing path for arrivals and kill-retries: counts rejects/drops,
  /// tracks in-flight metadata, and submits to the chosen scheduler (flagged
  /// prefill-only when it lands on a prefill-role replica).
  std::optional<std::size_t> RouteOne(const serving::TimedRequest& request);
  /// One request lost with its host (kill) or transfer (target death):
  /// spends a retry attempt — scheduling the re-route after backoff — or
  /// abandons the request when the budget is gone.
  void RetryLost(serving::TimedRequest retry, double now);
  void HarvestCompletions();
  /// Plans migrations for freshly harvested prefill handoffs.
  void HarvestHandoffs();
  void PlanHandoff(Replica& src, const serving::PrefillHandoff& handoff);
  /// Delivers a continuation + KV to `dst`'s scheduler; on import OOM the
  /// request is reset to original form and recomputes there (wasting its
  /// first token).
  void DeliverContinuation(Replica& dst, serving::Request continuation,
                           const serving::KvExport& kv, double ready);
  /// Lands every due migration: AcceptMigrated on a live target, the retry
  /// path when the target died mid-transfer.
  void LandMigrationsThrough(double deadline);
  /// Due time of the earliest pending retry; infinity when none wait.
  [[nodiscard]] double NextRetryDue() const;
  /// Routes every pending retry due by `deadline`, earliest first.
  void ReleaseRetriesThrough(double deadline);
  /// Per-pool signals, at most one scale event per call (the shared cooldown
  /// paces the loop), SLO-driven growth outranking cost-driven shrink.
  void MaybeAutoscale(double now);
  [[nodiscard]] PoolSignal EvalPool(std::size_t pool, double now);
  /// First configured pool whose role matches, else kNoPool.
  [[nodiscard]] std::size_t PoolFor(ReplicaRole role) const;
  /// Least-outstanding active replica of `pool` that is safe to retire:
  /// never the last active replica of a specialized role, and replicas with
  /// KV imports in flight are passed over while a quieter victim exists
  /// (retiring them would force the coordinator to re-plan transfers
  /// RemoveReplica can otherwise leave alone).
  [[nodiscard]] std::size_t PickScaleDownVictim(std::size_t pool) const;
  [[nodiscard]] bool LastActiveOfRole(const Replica& replica) const;
  void CommitScaleUp(std::size_t pool, const ReplicaSpec& spec, double now,
                     double signal_value);
  bool CommitScaleDown(std::size_t pool, double now, double signal_value);
  /// Fleet $/1M tokens were `delta_dollars_per_hour` added to the burn rate,
  /// over the recent windowed token rate; 0 when there is no recent
  /// completion evidence (no basis to veto).
  [[nodiscard]] double PredictedDollarsPerMTok(double now,
                                               double delta_dollars_per_hour);
  /// Any queued/running work, in-flight migration, or pending retry.
  [[nodiscard]] bool FleetBusy() const;
  /// The shared clock: furthest-advanced active replica (0 when none).
  [[nodiscard]] double FleetNow() const;
  /// Re-arms the periodic autoscale tick when new work enters an idle fleet.
  void ArmAutoscaleTick();
  /// Fires kills, migration landings and backoff retries in time order up
  /// to `deadline`, advancing the fleet clock to each event.
  void ProcessEventsThrough(double deadline);
  /// Post-arrival phase of Run(): repeat (run replicas to completion, land
  /// events) until no work, migrations or retries remain anywhere.
  void DrainToQuiescence();

  /// Names the replica's Perfetto process lane and wires its scheduler's
  /// lifecycle hooks (no-op when no recorder is attached).
  void WireReplicaTelemetry(Replica& replica);
  /// Registers the fleet metric series (schema fixed before first sample).
  void RegisterMetrics();
  /// Snapshots every registered series into one time-series row at `now`.
  void SampleMetrics(double now);

  /// Handles into the attached MetricsRegistry.  Role-indexed arrays run
  /// kUnified, kPrefill, kDecode.
  struct MetricIds {
    std::size_t replicas[3] = {};
    std::size_t queue_depth[3] = {};
    std::size_t kv_used[3] = {};
    std::size_t ttft_p99 = 0;
    std::size_t tpot_p99 = 0;
    std::size_t tokens_per_s = 0;
    std::size_t inflight_migrations = 0;
    std::size_t pending_retries = 0;
    std::size_t dollars_per_hour = 0;
    std::size_t completed = 0;
    std::size_t rejected = 0;
    std::size_t lost = 0;
    std::size_t retried = 0;
    std::size_t migrated = 0;
    std::size_t local_fallbacks = 0;
  };

  Router router_;
  AutoscaleConfig autoscale_;
  RetryPolicy retry_;
  DisaggCoordinator coordinator_;
  std::vector<Replica> replicas_;
  /// Block-pipeline prices shared by every replica's engine, scale-ups
  /// included, so each distinct GEMM block is simulated once per fleet.
  std::shared_ptr<simgpu::BlockPipelineCache> block_cache_ =
      std::make_shared<simgpu::BlockPipelineCache>();
  /// Counters accumulated during the run.
  FleetStats tally_;
  double last_scale_event_ = -1e300;
  /// Pending, consumed by Run.
  std::vector<KillEvent> kill_schedule_;
  /// Pending, consumed by Run.
  std::vector<DegradeEvent> degrade_schedule_;
  /// Backoff retries, a binary heap under ReleasesAfter: the front is the
  /// next release, so a re-route storm costs O(log n) per retry.
  std::vector<PendingRetry> pending_retries_;
  /// Original routed request by id, so a kill can re-submit the original
  /// (session/tenant intact) rather than the scheduler's mutated view.
  /// Lookup/erase only — never iterated, so its unordered order never
  /// reaches stats or traces.
  std::unordered_map<std::uint64_t, serving::TimedRequest> inflight_;
  /// Requests that completed a KV migration (for the interference-free
  /// decode-TPOT percentile split).  Membership tests only — never iterated.
  std::unordered_set<std::uint64_t> migrated_ids_;
  /// Visible stalls, sample pool.
  std::vector<double> migration_seconds_;
  /// Passive fleet-wide TTFT and TPOT windows behind the metrics gauges;
  /// read by nothing that steers the simulation.
  SlidingWindowStats ttft_window_;
  SlidingWindowStats tpot_window_;
  /// Per-pool signal windows, parallel to autoscale_.pools.
  std::vector<PoolRuntime> pool_runtime_;
  /// Recent generated-token samples (finish, tokens) behind the cost-aware
  /// $/1M-token predictions.
  SlidingWindowStats tokens_window_;
  /// Periodic autoscale tick state (armed only when tick_seconds > 0).
  bool tick_armed_ = false;
  double next_autoscale_tick_ = 0;
  /// The fleet has produced at least one completion or prefill handoff.
  /// Scale-down requires this evidence: a cold fleet with an empty queue is
  /// unprovisioned, not overprovisioned.
  bool work_observed_ = false;
  /// A stabilizing shrink is waiting out its window; keeps the periodic
  /// tick armed through an otherwise idle fleet so the shrink can land.
  bool shrink_pending_ = false;
  /// Fleet-level event count for the SimThroughput meter: routing decisions,
  /// migration landings, kills, degrades, autoscale ticks.  Deterministic
  /// under a fixed seed (counts simulated work, not wall time).
  std::uint64_t fleet_events_ = 0;
  /// Views() scratch: one routing snapshot, rebuilt per decision in place.
  mutable std::vector<ReplicaView> views_scratch_;
  // Telemetry (null = detached; every hook is one branch when detached).
  obs::TraceRecorder* trace_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  MetricIds metric_ids_;
  /// Owned by *metrics_.
  obs::Histogram* ttft_hist_ = nullptr;
  /// Owned by *metrics_.
  obs::Histogram* tpot_hist_ = nullptr;
};

}  // namespace liquid::cluster
