#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {
namespace {

constexpr MetricKind E = MetricKind::kEndToEnd;
constexpr MetricKind L = MetricKind::kPerLayer;

// The metric -> layer -> workload mapping these serve is in README.md.
constexpr MetricSpec kCatalog[] = {
    // ------------------------------------------------------ end to end ---
    {"setup_s", "s", E, false,
     "median of 3 set-ups: weight quantization + first (cold) call, or trace "
     "generation + fleet construction + first episode"},
    {"peak_rss_mb", "MB", E, false, "peak resident set size of the run"},
    {"op_ms_p50", "ms", E, false,
     "median operation latency: one layer's four projection GEMMs (gemm_*) "
     "or one ClusterSimulator::Run episode (fleet_*)"},
    {"work_per_s", "work/s", E, true,
     "GMAC per host second (gemm_*) or simulated requests reaching a "
     "terminal state per host second (fleet_*); median over the timed "
     "operations of each one's rate"},
    // ------------------------------------------------ workload, traced run ---
    {"bench.op_ms_tail", "ms", L, false,
     "operation latency at bench.op_tail_pct (untraced loop of the traced "
     "run)"},
    {"bench.op_tail_pct", "pct", L, false,
     "highest percentile with >= 10 samples beyond it"},
    {"bench.op_samples", "count", L, true, "timed operations in that loop"},
    {"bench.first_op_ms", "ms", L, false,
     "the cold first operation, also inside setup_s"},
    {"bench.gmac_per_s", "GMAC/s", L, true,
     "gemm_* GMAC over the whole timed loop / its time (0 on fleet_*)"},
    {"bench.sim_req_per_s", "1/s", L, true,
     "fleet_* terminal requests over the whole timed loop / its time (0 on "
     "gemm_*)"},
    {"bench.wall_s_per_sim_hour", "s/sim_h", L, false,
     "fleet_* host seconds per simulated hour (0 on gemm_*)"},
    // ------------------------------------------------------------- host ---
    {"host.cores", "count", L, true, "hardware threads"},
    {"host.omp_threads", "count", L, true, "OpenMP threads the GEMMs use"},
    {"host.l3_mib", "MiB", L, true, "L3 size from CPUID leaf 4"},
    {"host.isa_bits", "count", L, true,
     "bitmask: 1 AVX2, 2 AVX-VNNI, 4 AVX512-VNNI, 8 AMX-INT8"},
    // ------------------------------------------------------------- core ---
    {"core.probe_m", "count", L, true,
     "GEMM M the core probe ran at (the workload's M; 4 on fleet_*)"},
    {"core.int8_peak_gmac_per_s", "GMAC/s", L, true,
     "measured int8 dot-product peak of this host, all OpenMP threads"},
    {"core.gemm_gmac_per_s", "GMAC/s", L, true,
     "LiquidGemm over the four projections at core.probe_m"},
    {"core.int8_peak_frac", "frac", L, true,
     "core.gemm_gmac_per_s / core.int8_peak_gmac_per_s"},
    {"core.dequant_gelem_per_s", "Gelem/s", L, true,
     "GemmW4A8Liquid at M=1: weight elements dequantized per second"},
    {"core.int8_dot_gmac_per_s", "GMAC/s", L, true,
     "GemmW8A8 at core.probe_m (W4A8 ceiling without dequant)"},
    {"core.dequant_share", "frac", L, false,
     "1 - t(GemmW8A8) / t(GemmW4A8Liquid) at core.probe_m"},
    {"core.act_quant_ms", "ms", L, false,
     "QuantizeActivationsPerToken for the four projections"},
    {"core.macs_per_call", "count", L, true,
     "gemmstats MACs of one four-projection call"},
    {"core.bytes_per_call", "B", L, false,
     "gemmstats bytes of one call, computed from tensor sizes"},
    {"core.ops_per_byte", "op/B", L, true, "2 * MACs / computed bytes"},
    {"core.qkv_ms", "ms", L, false, "LiquidGemm, fused QKV projection"},
    {"core.o_ms", "ms", L, false, "LiquidGemm, output projection"},
    {"core.gate_up_ms", "ms", L, false, "LiquidGemm, fused gate+up"},
    {"core.down_ms", "ms", L, false, "LiquidGemm, down projection"},
    // ----------------------------------------------------------- simgpu ---
    {"simgpu.seq_eval_us", "us", L, false,
     "SimulateGemmSequence over LayerGemms(b), mean over b = 1..16"},
    // ---------------------------------------------------------- serving ---
    {"serving.decode_price_cold_us", "us", L, false,
     "DecodeStepSeconds on a fresh engine (memo miss)"},
    {"serving.decode_price_warm_us", "us", L, false,
     "DecodeStepSeconds on a repeated key (memo hit)"},
    {"serving.step_us_p50", "us", L, false,
     "ContinuousBatchScheduler::Step, single-replica replay"},
    {"serving.step_us_tail", "us", L, false,
     "Step at serving.step_tail_pct"},
    {"serving.step_tail_pct", "pct", L, false,
     "highest percentile with >= 10 steps beyond it"},
    {"serving.steps", "count", L, false, "Step calls in the replay"},
    {"serving.batch_mean", "count", L, true, "mean running sequences per step"},
    {"serving.preemptions", "count", L, false, "recompute preemptions"},
    {"serving.prefix_hit_ratio", "frac", L, true,
     "admissions with a cached-prefix credit / completed"},
    // ---------------------------------------------------------- cluster ---
    {"cluster.decide_us_p50", "us", L, false,
     "Router::Decide over six benchmark-built views"},
    {"cluster.events_per_s", "1/s", L, true,
     "engine iterations + fleet events per host second (0 on gemm_*)"},
    {"cluster.fleet_events_per_request", "count", L, false,
     "fleet events / submitted requests"},
    {"cluster.digest_episodes", "count", L, true,
     "episodes the digest and counts below sum over"},
    {"cluster.retried", "count", L, false, "re-submissions after losses"},
    {"cluster.migrated", "count", L, false, "KV migrations prefill -> decode"},
    {"cluster.killed", "count", L, false, "replicas killed"},
    {"cluster.scale_events", "count", L, false, "autoscaler events"},
    {"cluster.dropped", "count", L, false, "fleet drops"},
    {"cluster.rejected", "count", L, false, "SLO admission rejections"},
    {"cluster.sim_seconds", "sim_s", L, false, "digest: simulated span"},
    {"cluster.completed", "count", L, true, "digest: completed requests"},
    {"cluster.engine_iterations", "count", L, false,
     "digest: scheduler iterations"},
    {"cluster.fleet_events", "count", L, false, "digest: fleet events"},
    {"cluster.ttft_p99_sim_ms", "sim_ms", L, false,
     "digest: max over episodes of p99 TTFT"},
    {"cluster.tpot_p99_sim_ms", "sim_ms", L, false,
     "digest: max over episodes of p99 TPOT"},
    // ------------------------------------------------------ obs (traced) ---
    {"trace.engine_step_frac", "frac", L, false,
     "self time of engine/step, /admit, /retire, /prefill_chunk"},
    {"trace.engine_step_decode_frac", "frac", L, false,
     "self time of engine/step/decode (decode pricing)"},
    {"trace.router_frac", "frac", L, false, "self time of router/*"},
    {"trace.sim_events_frac", "frac", L, false, "self time of sim/events*"},
    {"trace.disagg_frac", "frac", L, false, "self time of disagg/*"},
    {"trace.sim_harvest_frac", "frac", L, false, "self time of sim/harvest"},
    {"trace.sim_other_frac", "frac", L, false,
     "self time of sim/run, sim/advance, sim/drain, sim/autoscale"},
    {"trace.gemm_qkv_frac", "frac", L, false, "bench/gemm/qkv span"},
    {"trace.gemm_o_frac", "frac", L, false, "bench/gemm/o span"},
    {"trace.gemm_gate_up_frac", "frac", L, false, "bench/gemm/gate_up span"},
    {"trace.gemm_down_frac", "frac", L, false, "bench/gemm/down span"},
    {"trace.bench_frac", "frac", L, false,
     "self time of the benchmark's own bench/op span"},
    {"obs.trace_overhead_frac", "frac", L, false,
     "traced wall / untraced wall - 1 over the same operations"},
    {"obs.traced_ops", "count", L, true, "operations in the traced replay"},
};

bool AllOf(std::string_view s, std::string_view extra) {
  return std::all_of(s.begin(), s.end(), [extra](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || extra.find(c) != std::string_view::npos;
  });
}

std::string Quote(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::span<const MetricSpec> Catalog() { return kCatalog; }

bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const char c = name.front();
  const bool alnum = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                     (c >= '0' && c <= '9');
  return alnum && AllOf(name, "_.-");
}

bool ValidUnit(std::string_view unit) {
  return !unit.empty() && unit.size() <= 16 && AllOf(unit, "_/%.-");
}

std::string CatalogJson() {
  std::string out = "{";
  for (const MetricKind kind : {MetricKind::kEndToEnd, MetricKind::kPerLayer}) {
    out += kind == MetricKind::kEndToEnd ? "\"end_to_end\": [" : ", \"per_layer\": [";
    bool first = true;
    for (const MetricSpec& m : kCatalog) {
      if (m.kind != kind) continue;
      out += first ? "" : ", ";
      first = false;
      out += "{\"name\": " + Quote(m.name) + ", \"unit\": " + Quote(m.unit) +
             ", \"better\": " + Quote(m.higher_is_better ? "higher" : "lower") +
             ", \"what\": " + Quote(m.what) + "}";
    }
    out += "]";
  }
  return out + "}";
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Tail TailOf(std::vector<double> values, std::size_t min_beyond) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  tail.value = values.back();
  // Highest first; the first ladder step leaving min_beyond samples above
  // its nearest rank wins.
  for (const double p : {99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    // The epsilon keeps 99.9% of 10000 at rank 9990 despite rounding.
    const auto rank =
        static_cast<std::size_t>(std::ceil(p / 100.0 * n - 1e-9));
    if (rank >= 1 && values.size() - rank >= min_beyond) {
      tail.percentile = p;
      tail.value = values[rank - 1];
      return tail;
    }
  }
  return tail;
}

void Report::Fail(const std::string& why) { errors_.push_back(why); }

std::string Report::ToJson(MetricKind kind) {
  std::string metrics;
  for (const MetricSpec& m : kCatalog) {
    if (m.kind != kind) continue;
    const auto it = values_.find(m.name);
    if (it == values_.end()) {
      Fail(std::string("metric missing from the run: ") + m.name);
      continue;
    }
    metrics += metrics.empty() ? "" : ", ";
    metrics += Quote(m.name) + ": {\"value\": " + Number(it->second) +
               ", \"unit\": " + Quote(m.unit) + "}";
  }
  return "{\"correct\": " + std::string(correct() ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted_) +
         ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {" +
         metrics + "}}";
}

std::string Report::Table(MetricKind kind) const {
  std::string out;
  for (const MetricSpec& m : kCatalog) {
    if (m.kind != kind) continue;
    const auto it = values_.find(m.name);
    char line[160];
    std::snprintf(line, sizeof line, "  %-34s %16.6g %s\n", m.name,
                  it == values_.end() ? NAN : it->second, m.unit);
    out += line;
  }
  return out;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
