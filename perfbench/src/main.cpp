// The repository benchmark: one closed-loop workload per invocation.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//   perfbench --list-metrics          # the metric catalog as JSON
//
// --trace 0 prints every end-to-end metric; --trace 1 additionally replays
// the workload with the wall profiler on and runs the per-layer probes, and
// prints every per-layer metric instead.  The last stdout line is the result
// object {"correct", "attempted", "failed", "metrics"}; the exit status is 0
// only when every output check passed.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "host.hpp"
#include "obs/prof/wall_profiler.hpp"
#include "report.hpp"
#include "util/wall_timer.hpp"
#include "workload.hpp"

namespace perfbench {

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed) {
  if (name == "gemm_decode") return MakeGemmWorkload(4, seed);
  if (name == "gemm_prefill") return MakeGemmWorkload(256, seed);
  if (name == "fleet_steady") return MakeFleetWorkload(false, seed);
  if (name == "fleet_chaos_sweep") return MakeFleetWorkload(true, seed);
  return nullptr;
}

namespace {

constexpr int kSetupReps = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool list = false;
};

bool Parse(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--list-metrics") {
      args->list = true;
    } else if (a == "--workload" && has_value) {
      args->workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      args->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      args->seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      args->trace = std::strcmp(argv[++i], "0") != 0;
    } else {
      return false;
    }
  }
  return args->list || (!args->workload.empty() && args->seconds > 0);
}

/// Per-operation samples of one timed loop.
struct Loop {
  std::vector<double> op_s;
  std::vector<double> work;
  std::vector<std::size_t> ids;
  double total_work = 0, events = 0, sim_seconds = 0;

  void Add(std::size_t id, const OpResult& r) {
    op_s.push_back(r.seconds);
    work.push_back(r.work);
    ids.push_back(id);
    total_work += r.work;
    events += r.events;
    sim_seconds += r.sim_seconds;
  }
  [[nodiscard]] double Seconds() const {
    double s = 0;
    for (const double t : op_s) s += t;
    return s;
  }
  /// Each operation's own work per second.  Their median, like op_ms_p50,
  /// holds still when bursts of outside load on a shared host slow a
  /// fraction of the operations, which a run's mean rate does not.
  [[nodiscard]] std::vector<double> Rates() const {
    std::vector<double> rates;
    for (std::size_t j = 0; j < op_s.size(); ++j) {
      rates.push_back(work[j] / op_s[j]);
    }
    return rates;
  }
  [[nodiscard]] std::vector<double> Ms() const {
    std::vector<double> ms;
    for (const double t : op_s) ms.push_back(t * 1e3);
    return ms;
  }
};

/// Runs operation i and records it; an exception is a failed operation.
OpResult CheckedOp(Workload& w, std::size_t i, Report& report) {
  OpResult r;
  try {
    r = w.Op(i);
  } catch (const std::exception& e) {
    report.Fail("operation " + std::to_string(i) + " threw: " + e.what());
    r.ok = false;
  }
  report.CountOp(r.ok);
  return r;
}

/// Closed loop: operation i starts when operation i-1 has returned and been
/// checked; runs operations 1, 2, ... for `seconds` and at least `min_ops`.
Loop TimedLoop(Workload& w, Report& report, double seconds,
               std::size_t min_ops) {
  Loop loop;
  liquid::WallTimer wall;
  for (std::size_t i = 1;
       wall.Seconds() < seconds || loop.op_s.size() < min_ops; ++i) {
    loop.Add(w.InputId(i), CheckedOp(w, i, report));
  }
  return loop;
}

/// The per-layer run: workload-level figures of the untraced loop, a traced
/// replay for the layer attribution, and the layer probes.
void TracedRun(Workload& workload, const Loop& loop, const HostInfo& host,
               std::uint64_t seed, Report& report) {
  const Tail tail = TailOf(loop.Ms());
  const double loop_s = loop.Seconds();
  report.Set("bench.op_ms_tail", tail.value);
  report.Set("bench.op_tail_pct", tail.percentile);
  report.Set("bench.op_samples", static_cast<double>(tail.samples));
  const bool fleet = workload.IsFleet();
  report.Set("bench.gmac_per_s", fleet ? 0 : loop.total_work / loop_s);
  report.Set("bench.sim_req_per_s", fleet ? loop.total_work / loop_s : 0);
  report.Set("bench.wall_s_per_sim_hour",
             loop.sim_seconds > 0 ? loop_s / loop.sim_seconds * 3600 : 0);
  report.Set("cluster.events_per_s", loop.events / loop_s);
  report.Set("host.cores", host.cores);
  report.Set("host.omp_threads", host.omp_threads);
  report.Set("host.l3_mib", host.l3_mib);
  report.Set("host.isa_bits", host.IsaBits());

  // Traced replay of operations 1..TracedOps().  Overhead compares, input
  // by input, the median traced time with the median untraced time of the
  // loop above (weighted by traced repetitions).
  std::map<std::size_t, std::vector<double>> untraced, traced;
  for (std::size_t j = 0; j < loop.ids.size(); ++j) {
    untraced[loop.ids[j]].push_back(loop.op_s[j]);
  }
  auto& prof = liquid::obs::WallProfiler::Instance();
  prof.Reset();
  liquid::obs::WallProfiler::Enable();
  double traced_s = 0;
  const std::size_t traced_ops = workload.TracedOps();
  for (std::size_t i = 1; i <= traced_ops; ++i) {
    const OpResult r = CheckedOp(workload, i, report);
    if (!r.ok) {
      report.Fail("traced replay diverged on operation " + std::to_string(i));
    }
    traced[workload.InputId(i)].push_back(r.seconds);
    traced_s += r.seconds;
  }
  liquid::obs::WallProfiler::Disable();
  double traced_med = 0, untraced_med = 0;
  for (const auto& [id, samples] : traced) {
    const double n = static_cast<double>(samples.size());
    traced_med += n * Median(samples);
    untraced_med += n * Median(untraced[id]);
  }
  TraceAttribution(traced_s, report);
  prof.Reset();
  report.Set("obs.trace_overhead_frac", traced_med / untraced_med - 1.0);
  report.Set("obs.traced_ops", static_cast<double>(traced_ops));
  workload.DigestMetrics(report);
  if (!fleet) {
    // No fleet in this workload: its cluster digest is empty.
    for (const MetricSpec& m : Catalog()) {
      if (std::string_view(m.name).starts_with("cluster.") &&
          !report.Has(m.name)) {
        report.Set(m.name, 0);
      }
    }
  }
  LayerProbes(seed, report);
  CoreProbe(workload.ProbeM(), seed, report);
}

int Run(const Args& args) {
  auto workload = MakeWorkload(args.workload, args.seed);
  if (!workload) {
    std::fprintf(stderr,
                 "unknown workload '%s' (gemm_decode | gemm_prefill | "
                 "fleet_steady | fleet_chaos_sweep)\n",
                 args.workload.c_str());
    return 2;
  }
  const HostInfo host = ProbeHost();
  std::printf("host %s\n", host.Json().c_str());
  std::printf("workload %s seed %llu seconds %g trace %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::fflush(stdout);

  Report report;
  // Set-up: rebuild and run the cold first operation kSetupReps times.
  std::vector<double> setup_s, first_op_ms;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    liquid::WallTimer t;
    const OpResult first = workload->Setup();
    setup_s.push_back(t.Seconds());
    first_op_ms.push_back(first.seconds * 1e3);
    report.CountOp(first.ok);
  }
  report.Set("setup_s", Median(setup_s));
  report.Set("bench.first_op_ms", Median(first_op_ms));
  std::printf("setup: %.3f / %.3f / %.3f s (first op %.3f ms median)\n",
              setup_s[0], setup_s[1], setup_s[2], Median(first_op_ms));

  liquid::WallTimer check_timer;
  workload->PreTimingChecks(report);
  std::printf("pre-timing checks: %.3f s\n", check_timer.Seconds());

  // Operation 0 ran in every set-up; the loop starts at operation 1 and
  // covers every operation the traced replay repeats.
  const Loop loop = TimedLoop(*workload, report, args.seconds,
                              std::max<std::size_t>(3, workload->TracedOps()));
  const std::vector<double> ms = loop.Ms();
  report.Set("op_ms_p50", Median(ms));
  report.Set("work_per_s", Median(loop.Rates()));
  const Tail tail = TailOf(ms);
  std::printf("timed: %zu ops in %.3f s, min %.4f ms, p50 %.4f ms, "
              "tail p%g %.4f ms (%zu samples)\n",
              ms.size(), loop.Seconds(),
              *std::min_element(ms.begin(), ms.end()), Median(ms),
              tail.percentile, tail.value, tail.samples);

  if (args.trace) TracedRun(*workload, loop, host, args.seed, report);

  report.Set("peak_rss_mb", PeakRssMb());
  const MetricKind kind =
      args.trace ? MetricKind::kPerLayer : MetricKind::kEndToEnd;
  std::printf("%s", report.Table(kind).c_str());
  const std::string json = report.ToJson(kind);
  for (const std::string& e : report.errors()) {
    std::printf("CHECK FAILED: %s\n", e.c_str());
  }
  std::printf("%s\n", json.c_str());
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::Parse(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 | --list-metrics\n");
    return 2;
  }
  if (args.list) {
    std::printf("%s\n", perfbench::CatalogJson().c_str());
    return 0;
  }
  try {
    return perfbench::Run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark aborted: %s\n", e.what());
    return 1;
  }
}
