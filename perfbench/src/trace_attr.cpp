// Layer attribution of the traced replay from the wall profiler's CSV.
//
// Profiler paths join scope names with '/', and the names contain '/'
// themselves, so a row's own scope is recovered as the longest known scope
// name the path ends with.  Scopes not listed here (the router's per-term
// scopes) are charged to their nearest listed ancestor.

#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <string_view>

#include "obs/prof/wall_profiler.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

struct ScopeGroup {
  const char* scope;
  const char* metric;
};

constexpr ScopeGroup kGroups[] = {
    {"engine/step", "trace.engine_step_frac"},
    {"engine/step/admit", "trace.engine_step_frac"},
    {"engine/step/retire", "trace.engine_step_frac"},
    {"engine/step/prefill_chunk", "trace.engine_step_frac"},
    {"engine/step/decode", "trace.engine_step_decode_frac"},
    {"router/decide", "trace.router_frac"},
    {"router/route_one", "trace.router_frac"},
    {"router/score", "trace.router_frac"},
    {"router/views", "trace.router_frac"},
    {"sim/events", "trace.sim_events_frac"},
    {"sim/events/degrade", "trace.sim_events_frac"},
    {"sim/events/kill", "trace.sim_events_frac"},
    {"sim/events/migration_land", "trace.sim_events_frac"},
    {"sim/events/retry_release", "trace.sim_events_frac"},
    {"sim/events/tick", "trace.sim_events_frac"},
    {"disagg/begin", "trace.disagg_frac"},
    {"disagg/plan_handoff", "trace.disagg_frac"},
    {"sim/harvest", "trace.sim_harvest_frac"},
    {"sim/run", "trace.sim_other_frac"},
    {"sim/advance", "trace.sim_other_frac"},
    {"sim/drain", "trace.sim_other_frac"},
    {"sim/autoscale", "trace.sim_other_frac"},
    {"bench/gemm/qkv", "trace.gemm_qkv_frac"},
    {"bench/gemm/o", "trace.gemm_o_frac"},
    {"bench/gemm/gate_up", "trace.gemm_gate_up_frac"},
    {"bench/gemm/down", "trace.gemm_down_frac"},
    {"bench/op", "trace.bench_frac"},
};

bool EndsWithScope(std::string_view path, std::string_view scope) {
  if (path.size() < scope.size()) return false;
  if (path.substr(path.size() - scope.size()) != scope) return false;
  return path.size() == scope.size() ||
         path[path.size() - scope.size() - 1] == '/';
}

/// The metric a profiler path's self time belongs to; nullptr if none.
const char* MetricFor(std::string_view path) {
  while (!path.empty()) {
    const ScopeGroup* best = nullptr;
    for (const ScopeGroup& g : kGroups) {
      const std::string_view scope = g.scope;
      if (EndsWithScope(path, scope) &&
          (best == nullptr || scope.size() > std::string_view(best->scope).size())) {
        best = &g;
      }
    }
    if (best != nullptr) return best->metric;
    const std::size_t slash = path.rfind('/');
    if (slash == std::string_view::npos) return nullptr;
    path = path.substr(0, slash);
  }
  return nullptr;
}

}  // namespace

void TraceAttribution(double traced_wall_s, Report& report) {
  std::map<std::string, double> self_ns;
  for (const ScopeGroup& g : kGroups) self_ns[g.metric] = 0;
  std::istringstream csv(liquid::obs::WallProfiler::Instance().Csv(true));
  std::string line;
  std::getline(csv, line);  // header: path,count,total_ns,self_ns
  while (std::getline(csv, line)) {
    const std::size_t last = line.rfind(',');
    const std::size_t first = line.find(',');
    if (first == std::string::npos || last == first) continue;
    const char* metric = MetricFor(std::string_view(line).substr(0, first));
    if (metric == nullptr) continue;
    self_ns[metric] += std::strtod(line.c_str() + last + 1, nullptr);
  }
  const double wall_ns = traced_wall_s * 1e9;
  for (const auto& [metric, ns] : self_ns) {
    report.Set(metric, wall_ns > 0 ? ns / wall_ns : 0);
  }
}

}  // namespace perfbench
