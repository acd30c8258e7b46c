#include "cluster/cluster_sim.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "obs/prof/wall_profiler.hpp"
#include "util/wall_timer.hpp"

namespace liquid::cluster {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

ClusterSimulator::ClusterSimulator(RoutePolicy policy,
                                   AutoscaleConfig autoscale, SloConfig slo,
                                   RetryPolicy retry, DisaggConfig disagg)
    : router_(policy, slo),
      autoscale_(autoscale),
      retry_(retry),
      coordinator_(disagg),
      ttft_window_(autoscale.cost_window_seconds),
      tpot_window_(autoscale.cost_window_seconds),
      tokens_window_(autoscale.cost_window_seconds) {
  pool_runtime_.reserve(autoscale_.pools.size());
  for (const AutoscalePool& pool : autoscale_.pools) {
    pool_runtime_.push_back({SlidingWindowStats(pool.window_seconds),
                             SlidingWindowStats(pool.window_seconds)});
  }
  tick_armed_ = autoscale_.enabled && autoscale_.tick_seconds > 0;
  next_autoscale_tick_ = autoscale_.tick_seconds;
}

std::size_t ClusterSimulator::PoolFor(ReplicaRole role) const {
  for (std::size_t i = 0; i < autoscale_.pools.size(); ++i) {
    if (autoscale_.pools[i].role == role) return i;
  }
  return kNoPool;
}

std::size_t ClusterSimulator::AddReplica(const ReplicaSpec& spec) {
  Replica r;
  r.id = replicas_.size();
  r.spec = spec;
  r.pool = PoolFor(spec.role);
  r.engine = std::make_unique<serving::ServingEngine>(
      spec.hw, spec.preset, spec.model, spec.options, block_cache_);
  r.scheduler = std::make_unique<serving::ContinuousBatchScheduler>(
      *r.engine, spec.kv_pool_blocks, spec.block_tokens, spec.max_batch);
  // A specialized replica arms role-aware routing — but only when the
  // interconnect can actually move KV; with an unusable link the fleet
  // serves unified no matter what the specs say (graceful degradation).
  if (spec.role != ReplicaRole::kUnified && coordinator_.model().Usable()) {
    router_.set_role_aware(true);
  }
  replicas_.push_back(std::move(r));
  WireReplicaTelemetry(replicas_.back());
  return replicas_.back().id;
}

namespace {

/// Role index for the role-striped metric series (order pinned by MetricIds).
std::size_t RoleIndex(ReplicaRole role) {
  switch (role) {
    case ReplicaRole::kUnified: return 0;
    case ReplicaRole::kPrefill: return 1;
    case ReplicaRole::kDecode: return 2;
  }
  return 0;
}

}  // namespace

void ClusterSimulator::WireReplicaTelemetry(Replica& replica) {
  if (trace_ == nullptr) return;
  replica.scheduler->SetTrace(trace_, replica.id);
  const std::int32_t pid = obs::ReplicaPid(replica.id);
  std::string name = "replica " + std::to_string(replica.id) + " " +
                     replica.spec.Label();
  if (replica.spec.role != ReplicaRole::kUnified) {
    name += std::string(" [") + ToString(replica.spec.role) + "]";
  }
  trace_->DeclareProcess(pid, std::move(name), pid);
  trace_->DeclareThread(pid, obs::kTidEngine, "engine");
  trace_->DeclareThread(pid, obs::kTidLifecycle, "lifecycle");
}

void ClusterSimulator::AttachTelemetry(obs::TraceRecorder* trace,
                                       obs::MetricsRegistry* metrics) {
  trace_ = trace;
  coordinator_.SetTrace(trace);
  if (trace_ != nullptr) {
    trace_->DeclareProcess(obs::kFleetPid, "fleet", 0);
    trace_->DeclareThread(obs::kFleetPid, obs::kTidRouter, "router");
    trace_->DeclareThread(obs::kFleetPid, obs::kTidAutoscaler, "autoscaler");
    trace_->DeclareThread(obs::kFleetPid, obs::kTidInterconnect,
                          "interconnect");
    trace_->DeclareThread(obs::kFleetPid, obs::kTidChaos, "chaos");
    for (Replica& r : replicas_) WireReplicaTelemetry(r);
  } else {
    for (Replica& r : replicas_) r.scheduler->SetTrace(nullptr, r.id);
  }
  metrics_ = metrics;
  if (metrics_ != nullptr) RegisterMetrics();
}

void ClusterSimulator::RegisterMetrics() {
  using Kind = obs::MetricsRegistry::Kind;
  static constexpr const char* kRoles[3] = {"unified", "prefill", "decode"};
  for (std::size_t i = 0; i < 3; ++i) {
    const std::string role = kRoles[i];
    metric_ids_.replicas[i] =
        metrics_->Register("replicas_" + role, Kind::kGauge);
    metric_ids_.queue_depth[i] =
        metrics_->Register("queue_depth_" + role, Kind::kGauge);
    metric_ids_.kv_used[i] =
        metrics_->Register("kv_used_fraction_" + role, Kind::kGauge);
  }
  metric_ids_.ttft_p99 = metrics_->Register("ttft_p99_window", Kind::kGauge);
  metric_ids_.tpot_p99 = metrics_->Register("tpot_p99_window", Kind::kGauge);
  metric_ids_.tokens_per_s =
      metrics_->Register("tokens_per_s_window", Kind::kGauge);
  metric_ids_.inflight_migrations =
      metrics_->Register("inflight_migrations", Kind::kGauge);
  metric_ids_.pending_retries =
      metrics_->Register("pending_retries", Kind::kGauge);
  metric_ids_.dollars_per_hour =
      metrics_->Register("dollars_per_hour", Kind::kGauge);
  metric_ids_.completed = metrics_->Register("completed", Kind::kCounter);
  metric_ids_.rejected = metrics_->Register("rejected", Kind::kCounter);
  metric_ids_.lost = metrics_->Register("lost", Kind::kCounter);
  metric_ids_.retried = metrics_->Register("retried", Kind::kCounter);
  metric_ids_.migrated = metrics_->Register("migrated", Kind::kCounter);
  metric_ids_.local_fallbacks =
      metrics_->Register("local_decode_fallbacks", Kind::kCounter);
  ttft_hist_ =
      &metrics_->RegisterHistogram("ttft_seconds", obs::LatencyBuckets());
  tpot_hist_ =
      &metrics_->RegisterHistogram("tpot_seconds", obs::LatencyBuckets());
}

void ClusterSimulator::SampleMetrics(double now) {
  if (metrics_ == nullptr) return;
  double replicas[3] = {}, depth[3] = {}, free_kv[3] = {}, total_kv[3] = {};
  double completed = 0, burn = 0;
  for (const Replica& r : replicas_) {
    completed += static_cast<double>(r.scheduler->stats().completed);
    if (!r.active) continue;
    const std::size_t role = RoleIndex(r.spec.role);
    replicas[role] += 1;
    depth[role] += static_cast<double>(r.scheduler->outstanding());
    free_kv[role] += static_cast<double>(r.scheduler->pool().free_blocks());
    total_kv[role] += static_cast<double>(r.scheduler->pool().total_blocks());
    burn += r.spec.dollars_per_hour;
  }
  for (std::size_t i = 0; i < 3; ++i) {
    metrics_->Set(metric_ids_.replicas[i], replicas[i]);
    metrics_->Set(metric_ids_.queue_depth[i], depth[i]);
    metrics_->Set(metric_ids_.kv_used[i],
                  total_kv[i] > 0 ? 1.0 - free_kv[i] / total_kv[i] : 0.0);
  }
  metrics_->Set(metric_ids_.ttft_p99,
                ttft_window_.Count(now) > 0 ? ttft_window_.Percentile(now, 99)
                                            : 0.0);
  metrics_->Set(metric_ids_.tpot_p99,
                tpot_window_.Count(now) > 0 ? tpot_window_.Percentile(now, 99)
                                            : 0.0);
  const double window = tokens_window_.window_seconds();
  const double tokens = tokens_window_.Mean(now) *
                        static_cast<double>(tokens_window_.Count(now));
  metrics_->Set(metric_ids_.tokens_per_s, window > 0 ? tokens / window : 0.0);
  metrics_->Set(metric_ids_.inflight_migrations,
                static_cast<double>(coordinator_.InFlight()));
  metrics_->Set(metric_ids_.pending_retries,
                static_cast<double>(pending_retries_.size()));
  metrics_->Set(metric_ids_.dollars_per_hour, burn);
  metrics_->Set(metric_ids_.completed, completed);
  metrics_->Set(metric_ids_.rejected,
                static_cast<double>(tally_.rejected_requests));
  metrics_->Set(metric_ids_.lost, static_cast<double>(tally_.lost_requests));
  metrics_->Set(metric_ids_.retried,
                static_cast<double>(tally_.retried_requests));
  metrics_->Set(metric_ids_.migrated,
                static_cast<double>(tally_.disagg.migrated_requests));
  metrics_->Set(metric_ids_.local_fallbacks,
                static_cast<double>(tally_.disagg.local_decode_fallbacks));
  metrics_->Sample(now);
}

bool ClusterSimulator::RemoveReplica(std::size_t id) {
  if (id >= replicas_.size() || !replicas_[id].active) return false;
  if (ActiveReplicas() <= 1) return false;  // never strand in-flight work
  Replica& victim = replicas_[id];
  victim.active = false;
  router_.ForgetReplica(id);
  const double now = victim.scheduler->Now();
  victim.retired_at = now;  // graceful retirement stops the billing meter
  // Unfinished work (with carried TTFT/progress state) moves to the least
  // loaded ROLE-COMPATIBLE survivor (a decode replica must not inherit
  // prefill work, nor a prefill replica decode work, while a better home is
  // alive); its scheduler clock is already on the shared clock.
  std::vector<serving::Request> orphans = victim.scheduler->Drain();
  for (const serving::Request& req : orphans) {
    const ReplicaRole wanted =
        req.prefill_only ? ReplicaRole::kPrefill : ReplicaRole::kDecode;
    std::size_t best = replicas_.size();
    bool best_compatible = false;
    for (const Replica& r : replicas_) {
      if (!r.active) continue;
      const bool compatible = !router_.role_aware() ||
                              r.spec.role == ReplicaRole::kUnified ||
                              r.spec.role == wanted;
      if (best == replicas_.size() || (compatible && !best_compatible) ||
          (compatible == best_compatible &&
           r.scheduler->outstanding() <
               replicas_[best].scheduler->outstanding())) {
        best = r.id;
        best_compatible = compatible;
      }
    }
    serving::Request moved = req;
    // Drain zeroed the credit (it was against the victim's pool); re-score
    // it against the new home's resident prefixes.
    moved.cached_prefix_blocks =
        replicas_[best]
            .scheduler->pool()
            .prefix_index()
            .SharedPrefixBlocks(moved.prefix.hashes);
    replicas_[best].scheduler->Submit(moved);
    ++replicas_[best].submitted;
    ++tally_.rerouted;
  }
  // Graceful removal loses nothing: in-flight migrations headed here are
  // re-planned onto a live decode home (or decode locally at the source)
  // instead of landing on a corpse and burning the retry budget.
  for (const DisaggCoordinator::Migration& m :
       coordinator_.TakeInboundFor(id)) {
    std::uint64_t session = 0;
    const auto meta = inflight_.find(m.continuation.id);
    if (meta != inflight_.end()) session = meta->second.session;
    const std::optional<std::size_t> dst =
        router_.RouteDecode(session, Views(0), m.kv.blocks + 1,
                            m.kv.prefix_hashes);
    if (dst && replicas_[*dst].active) {
      coordinator_.Reroute(m, *dst, std::max(now, m.start));
      ++tally_.rerouted;
      continue;
    }
    // No reroute target: the migrate stage ends here either way (local
    // delivery on the source or genuine loss).
    if (trace_ != nullptr) {
      trace_->AsyncEnd(obs::TraceEventType::kStageMigrate, now,
                       m.continuation.id);
    }
    Replica& src = replicas_[m.src];
    if (src.active) {
      DeliverContinuation(src, m.continuation, m.kv, std::max(now, m.start));
      ++tally_.disagg.local_decode_fallbacks;
      ++tally_.rerouted;
      continue;
    }
    // Source gone too: the transfer has nowhere to land — genuine loss.
    ++tally_.lost_requests;
    tally_.wasted_tokens += static_cast<double>(m.continuation.progress);
    serving::TimedRequest retry;
    if (meta != inflight_.end()) {
      retry = meta->second;
    } else {
      retry.id = m.continuation.id;
      retry.arrival_seconds = m.continuation.arrival;
      retry.prompt_tokens = m.continuation.prompt_tokens - m.continuation.progress;
      retry.max_new_tokens = m.continuation.max_new_tokens + m.continuation.progress;
    }
    RetryLost(retry, now);
  }
  return true;
}

bool ClusterSimulator::KillReplica(std::size_t id, double now) {
  if (id >= replicas_.size() || !replicas_[id].active) return false;
  LIQUID_PROF_SCOPE("sim/events/kill");
  ++fleet_events_;
  Replica& victim = replicas_[id];
  // Catch the victim up to the fleet clock first so work it would have
  // finished before the failure counts as completed, not lost — and so
  // prefills it already handed off migrate normally (their KV is staged on
  // the wire, not in the dying pool).
  victim.scheduler->StepUntil(now);
  HarvestCompletions();
  HarvestHandoffs();
  victim.active = false;
  victim.killed = true;
  router_.ForgetReplica(id);
  ++tally_.killed_replicas;

  const serving::ContinuousBatchScheduler::ForfeitedWork forfeit =
      victim.scheduler->Forfeit();
  tally_.lost_requests += forfeit.requests.size();
  tally_.wasted_tokens += forfeit.wasted_tokens;
  if (trace_ != nullptr) {
    trace_->Instant(obs::TraceEventType::kKill, now, obs::kFleetPid,
                    obs::kTidChaos, id, static_cast<double>(id),
                    static_cast<double>(forfeit.requests.size()));
  }

  // Re-route storm: every lost request is re-submitted from scratch.  The
  // original TimedRequest (session/tenant intact) is replayed with its
  // original arrival time, so a retry's TTFT charges the failed attempt;
  // attempt counts the failures it survived.  The RetryPolicy meters the
  // storm: backoff delays the re-route, the budget caps it.
  for (const serving::Request& lost : forfeit.requests) {
    serving::TimedRequest retry;
    const auto meta = inflight_.find(lost.id);
    if (meta != inflight_.end()) {
      retry = meta->second;
    } else {
      retry.id = lost.id;
      retry.arrival_seconds = lost.arrival;
      retry.prompt_tokens = lost.prompt_tokens;
      retry.max_new_tokens = lost.max_new_tokens;
    }
    RetryLost(retry, now);
  }
  return true;
}

bool ClusterSimulator::DegradeReplica(std::size_t id, double slowdown_factor) {
  if (id >= replicas_.size() || !replicas_[id].active) return false;
  LIQUID_PROF_SCOPE("sim/events/degrade");
  ++fleet_events_;
  Replica& victim = replicas_[id];
  const bool was_degraded = victim.scheduler->slowdown() > 1.0;
  victim.scheduler->SetSlowdown(slowdown_factor);
  if (trace_ != nullptr) {
    trace_->Instant(obs::TraceEventType::kDegrade, FleetNow(), obs::kFleetPid,
                    obs::kTidChaos, id, static_cast<double>(id),
                    victim.scheduler->slowdown());
  }
  // Count replicas that ever degraded, not events (a second brown-out on
  // the same replica is still one degraded replica).
  if (!was_degraded && victim.scheduler->slowdown() > 1.0) {
    ++tally_.degraded_replicas;
  }
  return true;
}

void ClusterSimulator::RetryLost(serving::TimedRequest retry, double now) {
  ++retry.attempt;
  if (retry_.max_attempts > 0 && retry.attempt > retry_.max_attempts) {
    if (trace_ != nullptr) {
      trace_->Instant(obs::TraceEventType::kRetriesExhausted, now,
                      obs::kFleetPid, obs::kTidChaos, retry.id,
                      static_cast<double>(retry.attempt));
    }
    ++tally_.retries_exhausted;
    inflight_.erase(retry.id);
    return;
  }
  tally_.max_retry_attempts =
      std::max(tally_.max_retry_attempts, retry.attempt);
  ++tally_.retried_requests;
  if (retry_.base_backoff_seconds > 0) {
    const std::uint32_t exponent = std::min(retry.attempt - 1, 20u);
    const double delay = retry_.base_backoff_seconds *
                         static_cast<double>(std::uint64_t{1} << exponent);
    if (trace_ != nullptr) {
      trace_->Instant(obs::TraceEventType::kRetryScheduled, now,
                      obs::kFleetPid, obs::kTidChaos, retry.id,
                      static_cast<double>(retry.attempt), now + delay);
    }
    pending_retries_.push_back({now + delay, std::move(retry)});
    std::push_heap(pending_retries_.begin(), pending_retries_.end(),
                   ReleasesAfter);
    ArmAutoscaleTick();  // the release is future work the tick must outlive
  } else {
    RouteOne(retry);
  }
}

void ClusterSimulator::AdvanceTo(double deadline) {
  LIQUID_PROF_SCOPE("sim/advance");
  for (Replica& r : replicas_) {
    if (r.active) r.scheduler->StepUntil(deadline);
  }
  HarvestCompletions();
  HarvestHandoffs();
}

void ClusterSimulator::HarvestCompletions() {
  LIQUID_PROF_SCOPE("sim/harvest");
  for (Replica& r : replicas_) {
    const std::vector<serving::RequestTiming>& done =
        r.scheduler->completions();
    for (; r.harvested < done.size(); ++r.harvested) {
      const serving::RequestTiming& t = done[r.harvested];
      work_observed_ = true;
      ttft_window_.Add(t.finish, t.Ttft());
      tokens_window_.Add(t.finish, static_cast<double>(t.generated));
      if (t.generated > 1) tpot_window_.Add(t.finish, t.Tpot());
      if (metrics_ != nullptr) {
        ttft_hist_->Add(t.Ttft());
        if (t.generated > 1) tpot_hist_->Add(t.Tpot());
      }
      if (r.pool != kNoPool) {
        // Role-typed pools watch their own streams: the TTFT window feeds
        // prefill-style signals, the TPOT window decode-style ones.
        PoolRuntime& runtime = pool_runtime_[r.pool];
        runtime.ttft_window.Add(t.finish, t.Ttft());
        if (t.generated > 1) runtime.tpot_window.Add(t.finish, t.Tpot());
      }
      inflight_.erase(t.id);
    }
    const std::vector<serving::SeqId>& dropped = r.scheduler->dropped_ids();
    for (; r.drops_harvested < dropped.size(); ++r.drops_harvested) {
      inflight_.erase(dropped[r.drops_harvested]);
    }
  }
}

void ClusterSimulator::HarvestHandoffs() {
  for (Replica& r : replicas_) {
    const std::vector<serving::PrefillHandoff>& handoffs =
        r.scheduler->handoffs();
    for (; r.handoffs_harvested < handoffs.size(); ++r.handoffs_harvested) {
      work_observed_ = true;
      PlanHandoff(r, handoffs[r.handoffs_harvested]);
    }
  }
}

void ClusterSimulator::PlanHandoff(Replica& src,
                                   const serving::PrefillHandoff& handoff) {
  LIQUID_PROF_SCOPE("disagg/plan_handoff");
  // A prefill-pool request never completes on its pool; its TTFT is decided
  // right here, when the first token leaves the prefill replica.  Feed the
  // pool's signal window from the handoff so kTailTtft sees prefill pain.
  if (src.pool != kNoPool) {
    pool_runtime_[src.pool].ttft_window.Add(
        handoff.ready, handoff.ready - handoff.request.arrival);
  }
  std::uint64_t session = 0;
  const auto meta = inflight_.find(handoff.request.id);
  if (meta != inflight_.end()) session = meta->second.session;

  std::optional<std::size_t> dst;
  if (coordinator_.model().Usable()) {
    // Decode placement sees the migrating KV's real identity: the hashes
    // ride the export, so a prefix-aware preset scores shared resident
    // blocks at each candidate, not just session stickiness.
    dst = router_.RouteDecode(session, Views(0), handoff.kv.blocks + 1,
                              handoff.kv.prefix_hashes);
  }
  if (dst && *dst == src.id) {
    // The best decode home is this very replica (it can happen when a
    // unified replica hosts a handed-off prefill): plain local delivery,
    // nothing crosses the interconnect.
    DeliverContinuation(src, handoff.request, handoff.kv, handoff.ready);
    return;
  }
  if (dst) {
    const double bytes = KvMigrationModel::KvBytes(
        src.spec.model, src.spec.preset.kv_bits, handoff.kv.tokens);
    if (coordinator_.Begin(handoff, src.id, *dst, bytes)) return;
  }
  // No live decode-capable target, unusable interconnect, or a stall over
  // the migration budget: decode locally on the prefill replica — this
  // request is served unified.
  if (trace_ != nullptr) {
    trace_->Instant(obs::TraceEventType::kLocalFallback, handoff.ready,
                    obs::kFleetPid, obs::kTidInterconnect, handoff.request.id,
                    static_cast<double>(src.id));
  }
  ++tally_.disagg.local_decode_fallbacks;
  DeliverContinuation(src, handoff.request, handoff.kv, handoff.ready);
}

void ClusterSimulator::LandMigrationsThrough(double deadline) {
  LIQUID_PROF_SCOPE("sim/events/migration_land");
  for (const DisaggCoordinator::Migration& m :
       coordinator_.TakeArrivalsThrough(deadline)) {
    ++fleet_events_;
    Replica& dst = replicas_[m.dst];
    if (!dst.active) {
      // The target died mid-transfer: the continuation is lost exactly like
      // in-flight work on a killed replica, and re-enters the same retry
      // path (its generated-so-far token is wasted work).
      if (trace_ != nullptr) {
        trace_->Instant(obs::TraceEventType::kTargetDeath, m.arrive,
                        obs::kFleetPid, obs::kTidInterconnect,
                        m.continuation.id, static_cast<double>(m.dst));
        trace_->AsyncEnd(obs::TraceEventType::kStageMigrate, m.arrive,
                         m.continuation.id);
      }
      ++tally_.disagg.target_deaths;
      ++tally_.lost_requests;
      tally_.wasted_tokens += static_cast<double>(m.continuation.progress);
      serving::TimedRequest retry;
      const auto meta = inflight_.find(m.continuation.id);
      if (meta != inflight_.end()) {
        retry = meta->second;
      } else {
        retry.id = m.continuation.id;
        retry.arrival_seconds = m.continuation.arrival;
        retry.prompt_tokens =
            m.continuation.prompt_tokens - m.continuation.progress;
        retry.max_new_tokens =
            m.continuation.max_new_tokens + m.continuation.progress;
      }
      RetryLost(retry, m.arrive);
      continue;
    }
    ++dst.submitted;
    ++tally_.disagg.migrated_requests;
    tally_.disagg.migrated_kv_bytes += m.bytes;
    migration_seconds_.push_back(m.arrive - m.start);
    migrated_ids_.insert(m.continuation.id);
    if (trace_ != nullptr) {
      trace_->Instant(obs::TraceEventType::kMigrationLand, m.arrive,
                      obs::kFleetPid, obs::kTidInterconnect, m.continuation.id,
                      static_cast<double>(m.src), static_cast<double>(m.dst),
                      m.arrive - m.start);
      trace_->AsyncEnd(obs::TraceEventType::kStageMigrate, m.arrive,
                       m.continuation.id);
      trace_->Flow(obs::TracePhase::kFlowStep, m.arrive,
                   obs::ReplicaPid(m.dst), obs::kTidEngine, m.continuation.id);
    }
    DeliverContinuation(dst, m.continuation, m.kv, m.arrive);
  }
}

void ClusterSimulator::DeliverContinuation(Replica& dst,
                                           serving::Request continuation,
                                           const serving::KvExport& kv,
                                           double ready) {
  continuation.ready = ready;
  if (dst.scheduler->AcceptMigrated(continuation, kv)) return;
  // The pool cannot hold the imported KV right now: reset to the original
  // request and recompute the prefill on `dst` — the already-generated first
  // token is wasted work.
  if (trace_ != nullptr) {
    trace_->Instant(obs::TraceEventType::kImportOom, ready, obs::kFleetPid,
                    obs::kTidInterconnect, continuation.id,
                    static_cast<double>(dst.id));
  }
  ++tally_.disagg.import_ooms;
  tally_.wasted_tokens += static_cast<double>(continuation.progress);
  serving::Request fresh;
  fresh.id = continuation.id;
  fresh.prompt_tokens = continuation.prompt_tokens - continuation.progress;
  fresh.max_new_tokens = continuation.max_new_tokens + continuation.progress;
  fresh.arrival = continuation.arrival;
  fresh.ready = ready;
  fresh.prefix = continuation.prefix;
  fresh.cached_prefix_blocks =
      dst.scheduler->pool().prefix_index().SharedPrefixBlocks(
          fresh.prefix.hashes);
  dst.scheduler->Submit(fresh);
}

double ClusterSimulator::NextRetryDue() const {
  return pending_retries_.empty() ? kInf : pending_retries_.front().due;
}

void ClusterSimulator::ReleaseRetriesThrough(double deadline) {
  LIQUID_PROF_SCOPE("sim/events/retry_release");
  while (!pending_retries_.empty() &&
         pending_retries_.front().due <= deadline) {
    std::pop_heap(pending_retries_.begin(), pending_retries_.end(),
                  ReleasesAfter);
    const PendingRetry retry = std::move(pending_retries_.back());
    pending_retries_.pop_back();
    RouteOne(retry.request);
  }
}

const std::vector<ReplicaView>& ClusterSimulator::Views(
    std::size_t prompt_tokens,
    const serving::PrefixSignature* signature) const {
  LIQUID_PROF_SCOPE("router/views");
  // PredictTtft walks each replica's waiting queue; only pay for it when
  // admission control actually reads the estimate.
  const bool want_estimate = router_.slo().ttft_budget > 0;
  std::vector<ReplicaView>& views = views_scratch_;
  views.assign(replicas_.size(), ReplicaView{});
  for (const Replica& r : replicas_) {
    ReplicaView& v = views[r.id];
    v.alive = r.active;
    v.role = r.spec.role;
    v.outstanding = r.scheduler->outstanding();
    v.free_kv_blocks = r.scheduler->pool().free_blocks();
    v.total_kv_blocks = r.scheduler->pool().total_blocks();
    v.prefix_index = &r.scheduler->pool().prefix_index();
    if (r.active && want_estimate) {
      // Convert overlap to tokens with the SIGNATURE's block size (it need
      // not match this pool's granularity).
      const std::size_t cached_tokens =
          signature == nullptr
              ? 0
              : v.prefix_index->SharedPrefixBlocks(signature->hashes) *
                    static_cast<std::size_t>(signature->block_tokens);
      v.est_ttft_seconds =
          r.scheduler->PredictTtft(prompt_tokens, cached_tokens);
    }
  }
  return views;
}

std::optional<std::size_t> ClusterSimulator::RouteOne(
    const serving::TimedRequest& request) {
  LIQUID_PROF_SCOPE("router/route_one");
  ++fleet_events_;
  // Routing happens "now" on the fleet clock; a backoff retry's original
  // arrival may be far in the past, so the trace timestamps the decision,
  // not the arrival field it replays.
  const double t_route =
      trace_ == nullptr ? 0 : std::max(request.arrival_seconds, FleetNow());
  if (trace_ != nullptr) {
    trace_->Instant(obs::TraceEventType::kArrival, t_route, obs::kFleetPid,
                    obs::kTidRouter, request.id,
                    static_cast<double>(request.prompt_tokens),
                    static_cast<double>(request.max_new_tokens),
                    static_cast<double>(request.attempt));
  }
  RouteExplain explain;
  const RouteDecision decision =
      router_.Decide(request, Views(request.prompt_tokens, &request.prefix),
                     trace_ == nullptr ? nullptr : &explain);
  switch (decision.outcome) {
    case RouteOutcome::kNoReplica:
      if (trace_ != nullptr) {
        trace_->Instant(obs::TraceEventType::kNoReplica, t_route,
                        obs::kFleetPid, obs::kTidRouter, request.id);
      }
      ++tally_.dropped;  // no alive replica; folded into FleetStats.dropped
      inflight_.erase(request.id);
      return std::nullopt;
    case RouteOutcome::kRejected:
      if (trace_ != nullptr) {
        trace_->Instant(obs::TraceEventType::kReject, t_route, obs::kFleetPid,
                        obs::kTidRouter, request.id, decision.predicted_ttft);
      }
      ++tally_.rejected_requests;
      inflight_.erase(request.id);
      return std::nullopt;
    case RouteOutcome::kRouted:
      break;
  }
  const std::size_t dest = *decision.replica;
  if (trace_ != nullptr) {
    // The scorer term breakdown rides the route event's variable tail:
    // weighted contributions keyed by term name (ToString(ScoreTerm) returns
    // static literals, which is what TraceArg requires).
    obs::TraceArg terms[16];
    std::size_t nterms = 0;
    for (const TermContribution& term : explain.terms) {
      if (nterms == std::size(terms)) break;
      terms[nterms++] = {ToString(term.term), term.weight * term.value};
    }
    trace_->InstantWithArgs(obs::TraceEventType::kRoute, t_route,
                            obs::kFleetPid, obs::kTidRouter, request.id,
                            static_cast<double>(dest), decision.predicted_ttft,
                            explain.score,
                            std::span<const obs::TraceArg>(terms, nterms));
  }
  serving::Request req;
  req.id = request.id;
  req.prompt_tokens = request.prompt_tokens;
  req.max_new_tokens = request.max_new_tokens;
  req.arrival = request.arrival_seconds;
  req.prefix = request.prefix;
  // Prefix-cache credit: however the destination was chosen, whatever
  // leading signature blocks its pool already holds skip their prefill
  // compute there (locality pays even under prefix-blind presets — the
  // prefix_aware preset just steers toward it).
  req.cached_prefix_blocks =
      replicas_[dest].scheduler->pool().prefix_index().SharedPrefixBlocks(
          request.prefix.hashes);
  // A prompt landing on a prefill-specialized replica runs to its first
  // token only; the DisaggCoordinator moves its KV to a decode replica.
  if (router_.role_aware() &&
      replicas_[dest].spec.role == ReplicaRole::kPrefill) {
    req.prefill_only = true;
  }
  replicas_[dest].scheduler->Submit(req);
  ++replicas_[dest].submitted;
  inflight_[request.id] = request;
  ArmAutoscaleTick();  // new work: the periodic evaluation matters again
  return dest;
}

std::optional<std::size_t> ClusterSimulator::SubmitAndRoute(
    const serving::TimedRequest& request) {
  ++tally_.submitted;
  return RouteOne(request);
}

std::size_t ClusterSimulator::ActiveReplicas() const {
  std::size_t n = 0;
  for (const Replica& r : replicas_) n += r.active ? 1 : 0;
  return n;
}

std::size_t ClusterSimulator::TotalOutstanding() const {
  std::size_t n = 0;
  for (const Replica& r : replicas_) {
    if (r.active) n += r.scheduler->outstanding();
  }
  return n;
}

ClusterSimulator::PoolSignal ClusterSimulator::EvalPool(std::size_t pool,
                                                        double now) {
  const AutoscalePool& config = autoscale_.pools[pool];
  PoolSignal s;
  double capacity = 0;
  std::size_t outstanding = 0, free_kv = 0, total_kv = 0;
  for (const Replica& r : replicas_) {
    if (!r.active || r.pool != pool) continue;
    ++s.active;
    capacity += 1.0 / r.scheduler->slowdown();
    outstanding += r.scheduler->outstanding();
    free_kv += r.scheduler->pool().free_blocks();
    total_kv += r.scheduler->pool().total_blocks();
    // Lifetime evidence, not an instantaneous sample: fast pools (prefill)
    // drain between evaluations, so "outstanding right now" would miss
    // work they demonstrably served.
    s.work_seen |= r.submitted > 0;
  }
  PoolRuntime& runtime = pool_runtime_[pool];
  switch (config.signal) {
    case AutoscaleSignal::kQueueDepth:
      s.value = capacity > 0
                    ? static_cast<double>(outstanding) / capacity
                    : 0;
      break;
    case AutoscaleSignal::kFreeKv:
      s.value = total_kv > 0
                    ? 1.0 - static_cast<double>(free_kv) /
                                static_cast<double>(total_kv)
                    : 0;
      break;
    case AutoscaleSignal::kTailTtft:
      if (runtime.ttft_window.Count(now) < config.min_window_samples) {
        return s;  // abstain: neither up nor down
      }
      s.value = runtime.ttft_window.Percentile(now, 99);
      break;
    case AutoscaleSignal::kTailTpot:
      if (runtime.tpot_window.Count(now) < config.min_window_samples) {
        return s;  // abstain
      }
      s.value = runtime.tpot_window.Percentile(now, 99);
      break;
  }
  s.up = s.value > config.high;
  s.down = s.value < config.low;
  return s;
}

void ClusterSimulator::MaybeAutoscale(double now) {
  if (!autoscale_.enabled) return;
  LIQUID_PROF_SCOPE("sim/autoscale");
  // The cooldown gate returns ABOVE the shrink_pending_ reset on purpose: a
  // shrink waiting out its stabilization window stays pending (keeping the
  // tick armed) through the cooldown.  Every evaluation that actually runs
  // starts from false, so a pool whose windowed signal abstains (under-filled
  // window) cannot leave a stale pending flag wedging the tick loop.
  if (now - last_scale_event_ < autoscale_.cooldown_seconds) return;
  shrink_pending_ = false;
  // At most one scale event per evaluation (the shared cooldown paces the
  // loop).  Growth outranks shrink within an evaluation: the most
  // overloaded pool grows first, and with cost_aware the most expensive
  // shrink-eligible pool shrinks first — the biggest cut to predicted
  // $/1M tokens per event.  A hot pool whose growth cannot land (already
  // at max_replicas, or vetoed by the cost cap) does NOT block another
  // pool's stabilized shrink: consolidating idle capacity is the objective
  // precisely when the budget refuses more of it.
  struct ShrinkCandidate {
    std::size_t pool;
    double rate;
    double value;
  };
  std::size_t up_pool = kNoPool;
  double up_severity = 0, up_value = 0;
  bool up_forced = false;
  std::vector<ShrinkCandidate> shrinkable;
  for (std::size_t i = 0; i < autoscale_.pools.size(); ++i) {
    const AutoscalePool& pool = autoscale_.pools[i];
    const PoolSignal s = EvalPool(i, now);
    const bool must_grow = s.active < pool.min_replicas;
    if ((s.up || must_grow) && s.active < pool.max_replicas) {
      // Min-replica enforcement beats any signal reading; among hot pools
      // the one furthest over its threshold wins (ties toward the first).
      const double severity =
          must_grow ? kInf : (pool.high > 0 ? s.value / pool.high : s.value);
      if (up_pool == kNoPool || (must_grow && !up_forced) ||
          (must_grow == up_forced && severity > up_severity)) {
        up_pool = i;
        up_severity = severity;
        up_value = s.value;
        up_forced = must_grow;
      }
    }
    // Shrink needs evidence of idleness, not absence of data: the fleet
    // has completed work, THIS pool has served some, and the signal has
    // read low continuously for shrink_stable_seconds — a momentarily
    // empty queue between Poisson gaps is not overprovisioning.
    PoolRuntime& runtime = pool_runtime_[i];
    if (!s.down) {
      runtime.low_since = -1;
    } else if (runtime.low_since < 0) {
      runtime.low_since = now;
    }
    if (s.down && work_observed_ && s.work_seen &&
        s.active > pool.min_replicas) {
      if (now - runtime.low_since >= autoscale_.shrink_stable_seconds) {
        shrinkable.push_back({i, pool.spec.dollars_per_hour, s.value});
      } else {
        shrink_pending_ = true;  // keeps the tick armed while idle
      }
    }
  }

  if (up_pool != kNoPool) {
    const AutoscalePool& pool = autoscale_.pools[up_pool];
    const bool affordable =
        up_forced || autoscale_.max_dollars_per_m_tokens <= 0 ||
        PredictedDollarsPerMTok(now, pool.spec.dollars_per_hour) <=
            autoscale_.max_dollars_per_m_tokens;
    if (affordable) {
      CommitScaleUp(up_pool, pool.spec, now, up_value);
      return;
    }
  }
  // With cost_aware the most expensive pool shrinks first (the biggest cut
  // to $/1M tok per event); otherwise config order.  A pool whose only
  // remaining replicas the victim scan protects (last of a role, SLO
  // infeasibility) falls through to the next candidate instead of wedging
  // the whole shrink path.
  if (autoscale_.cost_aware) {
    std::stable_sort(shrinkable.begin(), shrinkable.end(),
                     [](const ShrinkCandidate& a, const ShrinkCandidate& b) {
                       return a.rate > b.rate;
                     });
  }
  for (const ShrinkCandidate& candidate : shrinkable) {
    if (CommitScaleDown(candidate.pool, now, candidate.value)) {
      // The shrunken pool must re-earn its stabilization window.
      pool_runtime_[candidate.pool].low_since = -1;
      return;
    }
  }
}

void ClusterSimulator::CommitScaleUp(std::size_t pool, const ReplicaSpec& spec,
                                     double now, double signal_value) {
  const std::size_t id = AddReplica(spec);
  replicas_[id].pool = pool;
  replicas_[id].added_at = now;
  replicas_[id].scheduler->StepUntil(now);  // join the shared clock
  ++tally_.scale_ups;
  tally_.scale_events.push_back({now, true, spec.role, id, signal_value});
  last_scale_event_ = now;
  if (trace_ != nullptr) {
    trace_->Instant(obs::TraceEventType::kScaleUp, now, obs::kFleetPid,
                    obs::kTidAutoscaler, id, static_cast<double>(id),
                    static_cast<double>(pool), signal_value);
  }
}

bool ClusterSimulator::CommitScaleDown(std::size_t pool, double now,
                                       double signal_value) {
  const std::size_t victim = PickScaleDownVictim(pool);
  if (victim >= replicas_.size()) return false;
  // PredictTtft-based feasibility: never shrink into an SLO breach (only
  // enforced when the router actually has a TTFT budget to keep).
  if (router_.slo().ttft_budget > 0 &&
      !router_.ScaleDownSafe(Views(autoscale_.slo_probe_prompt_tokens),
                             victim)) {
    return false;
  }
  const ReplicaRole role = replicas_[victim].spec.role;
  if (!RemoveReplica(victim)) return false;
  ++tally_.scale_downs;
  tally_.scale_events.push_back({now, false, role, victim, signal_value});
  last_scale_event_ = now;
  if (trace_ != nullptr) {
    trace_->Instant(obs::TraceEventType::kScaleDown, now, obs::kFleetPid,
                    obs::kTidAutoscaler, victim, static_cast<double>(victim),
                    static_cast<double>(pool), signal_value);
  }
  return true;
}

std::size_t ClusterSimulator::PickScaleDownVictim(std::size_t pool) const {
  std::size_t best = replicas_.size();
  bool best_inbound = false;
  for (const Replica& r : replicas_) {
    if (!r.active || r.pool != pool) continue;
    // Never retire the last active replica of a specialized role: routing
    // would wedge into unified fallback (prompts with no prefill home, or
    // migrations with no decode target) until something scales back up.
    if (LastActiveOfRole(r)) continue;
    // Prefer victims with no KV imports on the wire; retiring one forces
    // the coordinator to re-plan transfers mid-flight.
    const bool inbound = coordinator_.InboundCount(r.id) > 0;
    if (best == replicas_.size() || (!inbound && best_inbound) ||
        (inbound == best_inbound &&
         r.scheduler->outstanding() <
             replicas_[best].scheduler->outstanding())) {
      best = r.id;
      best_inbound = inbound;
    }
  }
  return best;
}

bool ClusterSimulator::LastActiveOfRole(const Replica& replica) const {
  if (replica.spec.role == ReplicaRole::kUnified) return false;
  for (const Replica& other : replicas_) {
    if (other.id != replica.id && other.active &&
        other.spec.role == replica.spec.role) {
      return false;
    }
  }
  return true;
}

double ClusterSimulator::PredictedDollarsPerMTok(double now,
                                                 double delta_dollars_per_hour) {
  double rate_per_hour = delta_dollars_per_hour;
  for (const Replica& r : replicas_) {
    if (r.active) rate_per_hour += r.spec.dollars_per_hour;
  }
  const double window = tokens_window_.window_seconds();
  const double tokens =
      tokens_window_.Mean(now) * static_cast<double>(tokens_window_.Count(now));
  const double tokens_per_s = window > 0 ? tokens / window : 0;
  if (tokens_per_s <= 0) return 0;  // no recent evidence: nothing to veto on
  return (rate_per_hour / 3600.0) / tokens_per_s * 1e6;
}

bool ClusterSimulator::FleetBusy() const {
  if (coordinator_.InFlight() > 0 || !pending_retries_.empty()) return true;
  for (const Replica& r : replicas_) {
    if (r.active && r.scheduler->HasWork()) return true;
  }
  return false;
}

double ClusterSimulator::FleetNow() const {
  double now = 0;
  for (const Replica& r : replicas_) {
    if (r.active) now = std::max(now, r.scheduler->Now());
  }
  return now;
}

void ClusterSimulator::ArmAutoscaleTick() {
  if (!autoscale_.enabled || autoscale_.tick_seconds <= 0 || tick_armed_) {
    return;
  }
  tick_armed_ = true;
  next_autoscale_tick_ = FleetNow() + autoscale_.tick_seconds;
}

void ClusterSimulator::ProcessEventsThrough(double deadline) {
  LIQUID_PROF_SCOPE("sim/events");
  // Fire kills, degradations, migration landings and backoff retries in
  // time order up to the deadline.  The schedules are small; a scan per
  // event keeps insertion order-insensitive.
  for (;;) {
    double t_kill = kInf;
    std::size_t kill_idx = kill_schedule_.size();
    for (std::size_t i = 0; i < kill_schedule_.size(); ++i) {
      if (kill_schedule_[i].time > deadline) continue;
      if (kill_schedule_[i].time < t_kill) {
        t_kill = kill_schedule_[i].time;
        kill_idx = i;
      }
    }
    double t_degrade = kInf;
    std::size_t degrade_idx = degrade_schedule_.size();
    for (std::size_t i = 0; i < degrade_schedule_.size(); ++i) {
      if (degrade_schedule_[i].time > deadline) continue;
      if (degrade_schedule_[i].time < t_degrade) {
        t_degrade = degrade_schedule_[i].time;
        degrade_idx = i;
      }
    }
    double t_mig = coordinator_.NextArrival().value_or(kInf);
    if (t_mig > deadline) t_mig = kInf;
    double t_retry = NextRetryDue();
    if (t_retry > deadline) t_retry = kInf;
    // The periodic autoscale tick rides the same calendar, so the
    // autoscaler keeps evaluating between arrivals AND through the
    // post-arrival drain (ProcessEventsThrough(kInf) before quiescence) —
    // the drain tail scales down instead of burning $/hour.
    double t_tick = kInf;
    if (tick_armed_ && next_autoscale_tick_ <= deadline) {
      t_tick = next_autoscale_tick_;
    }
    const double t = std::min({t_kill, t_degrade, t_mig, t_retry, t_tick});
    if (t == kInf) return;
    AdvanceTo(t);
    // Harvesting during AdvanceTo can commit fresh transfers whose arrival
    // is at or before t; land everything due — and release due retries —
    // BEFORE a same-instant kill, so a delivery that physically preceded
    // the failure is never misclassified as a target death.
    LandMigrationsThrough(t);
    ReleaseRetriesThrough(t);
    if (t == t_tick) {
      LIQUID_PROF_SCOPE("sim/events/tick");
      ++fleet_events_;
      next_autoscale_tick_ += autoscale_.tick_seconds;
      if (trace_ != nullptr) {
        trace_->Instant(obs::TraceEventType::kAutoscaleTick, t, obs::kFleetPid,
                        obs::kTidAutoscaler, 0);
      }
      const std::size_t before = tally_.scale_ups + tally_.scale_downs;
      MaybeAutoscale(t);
      SampleMetrics(t);  // the metrics series rides the existing tick
      // Disarm once the fleet is idle and a cooldown-satisfied evaluation
      // fired nothing with no shrink waiting out its stabilization window:
      // every pool is at its floor or its signal abstains.  New work
      // re-arms the tick (ArmAutoscaleTick).
      if (tally_.scale_ups + tally_.scale_downs == before && !FleetBusy() &&
          !shrink_pending_ &&
          t - last_scale_event_ >= autoscale_.cooldown_seconds) {
        tick_armed_ = false;
      }
      continue;
    }
    // A same-instant degrade fires before a kill: slowing a replica that is
    // about to die is a no-op either way, but the order is pinned for
    // determinism.
    if (t == t_degrade) {
      const DegradeEvent degrade = degrade_schedule_[degrade_idx];
      degrade_schedule_.erase(degrade_schedule_.begin() +
                              static_cast<std::ptrdiff_t>(degrade_idx));
      DegradeReplica(degrade.replica, degrade.slowdown_factor);
      continue;
    }
    if (t == t_kill) {
      const KillEvent kill = kill_schedule_[kill_idx];
      kill_schedule_.erase(kill_schedule_.begin() +
                           static_cast<std::ptrdiff_t>(kill_idx));
      KillReplica(kill.replica, kill.time);
    }
  }
}

void ClusterSimulator::DrainToQuiescence() {
  LIQUID_PROF_SCOPE("sim/drain");
  // Arrivals are done, but completion is no longer local to one replica: a
  // prefill finishing here spawns a migration landing there.  Iterate until
  // no replica has work and nothing is on the wire or waiting out a backoff.
  for (;;) {
    bool progressed = false;
    for (Replica& r : replicas_) {
      if (r.active && r.scheduler->HasWork()) {
        r.scheduler->RunToCompletion();
        progressed = true;
      }
    }
    HarvestCompletions();
    HarvestHandoffs();
    for (;;) {
      const double t_mig = coordinator_.NextArrival().value_or(kInf);
      const double t_retry = NextRetryDue();
      if (t_mig == kInf && t_retry == kInf) break;
      progressed = true;
      if (t_mig <= t_retry) {
        LandMigrationsThrough(t_mig);
      } else {
        ReleaseRetriesThrough(t_retry);
      }
    }
    if (!progressed) {
      bool residual = false;
      for (const Replica& r : replicas_) {
        residual |= r.active && r.scheduler->HasWork();
      }
      if (!residual) return;
    }
  }
}

FleetStats ClusterSimulator::Run(
    const std::vector<serving::TimedRequest>& trace) {
  LIQUID_PROF_SCOPE("sim/run");
  const WallTimer run_timer;
  const auto arrival_order = [](const serving::TimedRequest& a,
                                const serving::TimedRequest& b) {
    return a.arrival_seconds != b.arrival_seconds
               ? a.arrival_seconds < b.arrival_seconds
               : a.id < b.id;
  };
  // Workload generators already emit arrival order, and copying a
  // million-request trace (each with a prefix-hash vector) just to sort a
  // sorted sequence was a measurable slice of Run() — the comparator is a
  // strict weak order over unique (arrival, id) pairs, so an is_sorted trace
  // would come out of the sort element-for-element unchanged.
  std::vector<serving::TimedRequest> sorted;
  const std::vector<serving::TimedRequest>* requests = &trace;
  if (!std::is_sorted(trace.begin(), trace.end(), arrival_order)) {
    sorted = trace;
    std::sort(sorted.begin(), sorted.end(), arrival_order);
    requests = &sorted;
  }

  for (const serving::TimedRequest& request : *requests) {
    ProcessEventsThrough(request.arrival_seconds);
    AdvanceTo(request.arrival_seconds);
    MaybeAutoscale(request.arrival_seconds);
    SubmitAndRoute(request);
    SampleMetrics(request.arrival_seconds);
  }
  // Kills scheduled past the last arrival still fire (the fleet keeps
  // working off its backlog, so there is work to lose), as do migrations
  // and backoff retries already on the calendar.
  ProcessEventsThrough(kInf);
  DrainToQuiescence();
  SampleMetrics(FleetNow());

  FleetStats stats = tally_;
  stats.replicas_final = ActiveReplicas();
  stats.disagg.in_migration = coordinator_.InFlight();
  stats.disagg.migration_seconds = SummarizePercentiles(migration_seconds_);
  std::vector<serving::RequestTiming> timings;
  std::vector<double> migrated_tpot;
  for (const Replica& r : replicas_) {
    ReplicaReport report;
    report.id = r.id;
    report.label = r.spec.Label();
    report.role = r.spec.role;
    report.active = r.active;
    report.killed = r.killed;
    report.stats = r.scheduler->stats();
    report.submitted = r.submitted;
    report.dollars_per_hour = r.spec.dollars_per_hour;
    report.added_at = r.added_at;
    report.retired_at = r.retired_at;
    stats.replicas.push_back(report);
    stats.disagg.prefill_handoffs += report.stats.prefill_handoffs;
    if (r.active) {
      stats.disagg.prefill_replicas +=
          r.spec.role == ReplicaRole::kPrefill ? 1 : 0;
      stats.disagg.decode_replicas +=
          r.spec.role == ReplicaRole::kDecode ? 1 : 0;
    }
    const std::vector<serving::RequestTiming>& done =
        r.scheduler->completions();
    timings.insert(timings.end(), done.begin(), done.end());
    for (const serving::RequestTiming& t : done) {
      if (t.generated > 1 && migrated_ids_.contains(t.id)) {
        migrated_tpot.push_back(t.Tpot());
      }
    }
  }
  stats.disagg.migrated_tpot = SummarizePercentiles(migrated_tpot);
  const std::size_t routing_drops = stats.dropped;  // kept by Finalize rescan
  FinalizeFleetStats(timings, stats);
  stats.dropped += routing_drops;

  // Simulator-throughput meter: how much simulated work this Run() did per
  // wall second.  The event/iteration counts and sim span are deterministic;
  // only the wall_* fields vary run to run.
  SimThroughput& st = stats.sim_throughput;
  st.fleet_events = fleet_events_;
  st.engine_iterations = 0;
  for (const ReplicaReport& r : stats.replicas) {
    st.engine_iterations += r.stats.iterations;
  }
  st.events_processed = st.engine_iterations + st.fleet_events;
  st.sim_seconds = FleetNow();
  st.wall_seconds = run_timer.Seconds();
  if (st.wall_seconds > 0) {
    st.events_per_sec =
        static_cast<double>(st.events_processed) / st.wall_seconds;
    st.sim_seconds_per_wall_second = st.sim_seconds / st.wall_seconds;
  }
  if (st.sim_seconds > 0) {
    st.wall_seconds_per_sim_hour = st.wall_seconds / (st.sim_seconds / 3600.0);
  }
  return stats;
}

}  // namespace liquid::cluster
