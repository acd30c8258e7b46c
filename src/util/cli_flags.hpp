#pragma once
// Uniform CLI flags for the bench and example binaries, so every entry point
// spells the observability and reproducibility knobs the same way:
//
//   --quick                smaller workload (CI-sized)
//   --seed N               RNG seed for the generated trace (seed_set tells
//                          the binary whether to override its default)
//   --trace-out PATH       write a Chrome Trace Event JSON (ui.perfetto.dev)
//   --trace-jsonl PATH     write the trace as JSONL (one event per line)
//   --metrics-out PATH     write the metrics time series as JSONL
//   --metrics-csv PATH     write the metrics time series as CSV
//   --json-out PATH        write the FleetStats summary as JSON
//   --profile-out BASE     enable the wall-clock profiler and write
//                          BASE.txt/.csv/.folded/.speedscope.json/.gemm_ai.csv
//
// Both `--flag value` and `--flag=value` are accepted.  Unknown arguments
// are collected into `positional` for the binary's own parsing; once it has
// taken what it understands, RejectUnknownFlags() fails the run on any `--`
// argument left over, so a misspelled or retired flag (and the value after
// it) is never misread as a positional.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

namespace liquid {

struct CliFlags {
  bool quick = false;
  std::uint64_t seed = 0;
  bool seed_set = false;  ///< --seed was given; `seed` overrides the default
  std::string trace_out;
  std::string trace_jsonl;
  std::string metrics_out;
  std::string metrics_csv;
  std::string json_out;
  std::string profile_out;  ///< base path; empty = profiler stays disabled
  std::vector<std::string> positional;

  /// Any telemetry sink requested (the binary should attach a recorder).
  [[nodiscard]] bool WantsTrace() const {
    return !trace_out.empty() || !trace_jsonl.empty();
  }
  [[nodiscard]] bool WantsMetrics() const {
    return !metrics_out.empty() || !metrics_csv.empty();
  }
};

inline CliFlags ParseCliFlags(int argc, char** argv) {
  CliFlags flags;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const auto value = [&](const char* name) -> const char* {
      const std::size_t n = std::strlen(name);
      if (std::strncmp(arg, name, n) != 0) return nullptr;
      if (arg[n] == '=') return arg + n + 1;
      if (arg[n] == '\0' && i + 1 < argc) return argv[++i];
      return nullptr;
    };
    // Distinct names per branch: an `else if` nests inside the previous
    // branch's scope, so reusing one name would shadow (-Wshadow).
    if (std::strcmp(arg, "--quick") == 0) {
      flags.quick = true;
    } else if (const char* seed_v = value("--seed")) {
      flags.seed = std::strtoull(seed_v, nullptr, 10);
      flags.seed_set = true;
    } else if (const char* trace_v = value("--trace-out")) {
      flags.trace_out = trace_v;
    } else if (const char* jsonl_v = value("--trace-jsonl")) {
      flags.trace_jsonl = jsonl_v;
    } else if (const char* metrics_v = value("--metrics-out")) {
      flags.metrics_out = metrics_v;
    } else if (const char* csv_v = value("--metrics-csv")) {
      flags.metrics_csv = csv_v;
    } else if (const char* json_v = value("--json-out")) {
      flags.json_out = json_v;
    } else if (const char* prof_v = value("--profile-out")) {
      flags.profile_out = prof_v;
    } else {
      flags.positional.push_back(arg);
    }
  }
  return flags;
}

/// Exits with status 2, naming the argument, when `args` (what no parser
/// consumed) still holds a `--` argument: an unknown flag, or a known one
/// given last with no value.
inline void RejectUnknownFlags(const std::vector<std::string>& args) {
  for (const std::string& arg : args) {
    if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag or missing value: %s\n",
                   arg.c_str());
      std::exit(2);
    }
  }
}

}  // namespace liquid
