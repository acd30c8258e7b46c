#pragma once
// Fleet-level serving metrics: the per-request timings every replica records
// are pooled here into the percentiles operators put SLOs on — p50/p95/p99
// TTFT, TPOT, and end-to-end latency — plus per-replica utilization and the
// conservation counters (submitted == completed + dropped) the cluster tests
// assert on.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cluster/router.hpp"
#include "serving/scheduler.hpp"
#include "serving/workload.hpp"

namespace liquid::cluster {

/// A three-point percentile summary of one latency metric, in seconds.
struct PercentileTriple {
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
};

/// Pools samples into the three-point summary (shared by the fleet latency
/// report and the disagg migration/TPOT splits).
[[nodiscard]] PercentileTriple SummarizePercentiles(
    std::span<const double> values);

/// One replica's contribution, captured when the run finishes (replicas that
/// were scaled down mid-run keep their entry, marked inactive).
struct ReplicaReport {
  std::size_t id = 0;
  std::string label;        ///< e.g. "H800/LiquidServe"
  ReplicaRole role = ReplicaRole::kUnified;
  bool active = true;       ///< false if scaled down before the run ended
  bool killed = false;      ///< true if it died abruptly (no drain)
  serving::SchedulerStats stats;
  std::size_t submitted = 0;  ///< requests routed here (incl. re-routes)
  /// busy_seconds over the replica's own billed window (== the fleet span
  /// for replicas that served start to finish).
  double utilization = 0;
  double dollars_per_hour = 0;
  /// Billing window, on the fleet clock.  A replica is billed from when it
  /// joined until it was gracefully retired (scale-down stops the meter);
  /// `retired_at < 0` bills to the end of the span — replicas present from
  /// the start, still-active scale-ups, and KILLED replicas (capacity
  /// reserved is capacity paid for, even after a failure).
  double added_at = 0;
  double retired_at = -1;
  double billed_seconds = 0;  ///< what cost_dollars actually billed
  double cost_dollars = 0;    ///< dollars_per_hour * billed_seconds
};

/// One autoscaler decision, in fleet-clock order — the scale-event sequence
/// determinism goldens pin.
struct ScaleEvent {
  double time = 0;
  bool up = false;          ///< true = replica added, false = retired
  ReplicaRole role = ReplicaRole::kUnified;  ///< role of the moved spec
  std::size_t replica = 0;  ///< replica id added or retired
  double signal_value = 0;  ///< the signal reading that tripped the decision
};

/// Disaggregated-serving outcome counters (all zero for unified fleets).
struct DisaggStats {
  std::size_t prefill_replicas = 0;  ///< pool sizes at the end of the run
  std::size_t decode_replicas = 0;
  std::size_t prefill_handoffs = 0;  ///< prompts that completed prefill-only
  std::size_t migrated_requests = 0;
  double migrated_kv_bytes = 0;
  /// Handoffs decoded locally on their prefill replica: interconnect
  /// unusable, stall over budget, or no decode-capable replica alive —
  /// per-request fallback to unified serving.
  std::size_t local_decode_fallbacks = 0;
  /// Migration landed but the decode pool could not hold the KV; the
  /// request recomputed its prefill on the target instead.
  std::size_t import_ooms = 0;
  /// Migration target died mid-transfer; the request re-entered the retry
  /// path (counted in lost/retried like any kill loss).
  std::size_t target_deaths = 0;
  /// In-flight migrations when the run ended — 0 after Run() (the
  /// conservation invariant extends to in-migration requests).
  std::size_t in_migration = 0;
  PercentileTriple migration_seconds;  ///< visible post-prefill stall
  /// TPOT of migrated requests: their decode steps ran on a pool no prefill
  /// ever interrupts (the interference-free tail disaggregation buys).
  PercentileTriple migrated_tpot;
};

/// Wall-clock cost of running the simulation itself — the meter the future
/// concurrent runtime must beat.  The first four fields are deterministic
/// under a fixed seed (they count simulated work); the wall_* / *_per_*
/// fields are host wall-clock measurements and vary run to run.
struct SimThroughput {
  /// engine_iterations + fleet_events: the simulator's unit of work.
  std::uint64_t events_processed = 0;
  /// Scheduler iterations summed over every replica (batch steps).
  std::uint64_t engine_iterations = 0;
  /// Fleet-level events: routing decisions (arrivals + retries), migration
  /// landings, kills, degrades, autoscale ticks.
  std::uint64_t fleet_events = 0;
  double sim_seconds = 0;   ///< simulated span covered by the run
  double wall_seconds = 0;  ///< host wall-clock spent inside Run()
  double events_per_sec = 0;
  double sim_seconds_per_wall_second = 0;
  double wall_seconds_per_sim_hour = 0;
};

struct FleetStats {
  std::size_t submitted = 0;  ///< unique trace requests entering the cluster
  std::size_t completed = 0;
  std::size_t dropped = 0;
  std::size_t preemptions = 0;
  std::size_t rerouted = 0;   ///< requests moved off a scaled-down replica
  std::size_t scale_ups = 0;
  std::size_t scale_downs = 0;
  std::size_t replicas_final = 0;  ///< active replicas at end of run

  // Fault / SLO counters.  Conservation across every chaos scenario:
  //   completed + dropped + rejected + lost == submitted + retried
  // (each lost in-flight request spawns exactly one retry, which then lands
  // in one of the left-hand buckets — or is lost again, re-entering both
  // sides symmetrically).
  std::size_t killed_replicas = 0;
  std::size_t lost_requests = 0;     ///< in flight on a replica when it died
  std::size_t retried_requests = 0;  ///< re-submissions spawned by losses
  std::size_t rejected_requests = 0; ///< shed by SLO admission control (429)
  /// Losses abandoned because the RetryPolicy budget ran out; with a budget,
  /// lost == retried + retries_exhausted (without one, lost == retried).
  std::size_t retries_exhausted = 0;
  /// Highest TimedRequest::attempt any retry reached — 2+ means some request
  /// survived multiple kills before landing in a terminal bucket.
  std::uint32_t max_retry_attempts = 0;
  double wasted_tokens = 0;  ///< tokens generated then lost with a replica
  /// Replicas that suffered partial degradation (DegradeReplica slowdown)
  /// at some point in the run — they kept serving, just slower.
  std::size_t degraded_replicas = 0;

  // Prefix-cache locality (the fleet-wide index).  A hit is an admission
  // whose leading signature blocks were already resident on its replica;
  // the saved tokens are prompt tokens whose prefill compute was skipped.
  std::size_t prefix_hits = 0;
  double prefill_tokens_saved = 0;
  double prefix_hit_ratio = 0;  ///< prefix_hits / submitted

  double span_seconds = 0;  ///< first arrival to last completion
  double generated_tokens = 0;
  double throughput_tokens_per_s = 0;

  // Cost accounting (zero when no ReplicaSpec prices an hour).  Each replica
  // is billed for its ReplicaReport billing window: joined → gracefully
  // retired, where never-retired (and killed) replicas bill to the end of
  // the span — capacity reserved is capacity paid for, even after a kill,
  // but a scale-down stops the meter (the drain tail is no longer billed at
  // peak-fleet rates).
  double cost_dollars = 0;
  double prefill_pool_dollars = 0;  ///< prefill-role replicas only
  double decode_pool_dollars = 0;   ///< decode + unified replicas
  double dollars_per_m_tokens = 0;  ///< cost / (generated tokens / 1e6)

  PercentileTriple ttft;
  PercentileTriple tpot;
  PercentileTriple e2e;

  /// Host-side cost of the run (filled by ClusterSimulator::Run; all zero
  /// for hand-built stats).
  SimThroughput sim_throughput;

  DisaggStats disagg;
  /// Every autoscaler decision, in fleet-clock order.
  std::vector<ScaleEvent> scale_events;
  std::vector<ReplicaReport> replicas;
};

/// Pools per-request timings into fleet percentiles and fills the derived
/// fields (span, throughput, per-replica utilization) of `stats`.
void FinalizeFleetStats(const std::vector<serving::RequestTiming>& timings,
                        FleetStats& stats);

/// Renders the fleet summary (and per-replica table) to stdout.
void PrintFleetStats(const FleetStats& stats);

/// The same report as one JSON object (percentiles, counters, disagg stats,
/// scale events, per-replica reports) — the machine-readable artifact the CI
/// benches archive instead of scraping tables.  Deterministic byte-for-byte
/// for a fixed FleetStats.
[[nodiscard]] std::string FleetStatsToJson(const FleetStats& stats);
/// Writes FleetStatsToJson to `path` (trailing newline); false on I/O error.
bool WriteFleetStatsJson(const FleetStats& stats, const std::string& path);

}  // namespace liquid::cluster
