#pragma once
// The four benchmark workloads behind one closed-loop interface: one caller
// starts an operation, waits for it, checks its output, and starts the next.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "report.hpp"
#include "serving/workload.hpp"

namespace perfbench {

struct OpResult {
  bool ok = false;          ///< every output check passed
  double seconds = 0;       ///< host time of the operation's public call(s)
  double work = 0;          ///< GMAC (gemm) or terminal requests (fleet)
  double events = 0;        ///< engine iterations + fleet events (fleet)
  double sim_seconds = 0;   ///< simulated span covered (fleet)
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// One set-up repetition: rebuilds the system's state from the generated
  /// inputs and runs the first (cold) operation, whose result becomes the
  /// reference later operations must reproduce.  Returns that operation.
  virtual OpResult Setup() = 0;

  /// Checks that must pass before any timing (reference-provider parity).
  /// Failures are recorded in `report`.
  virtual void PreTimingChecks(Report& report) = 0;

  /// Operation i runs input InputId(i): the same input every time for the
  /// gemm workloads and fleet_steady, a fresh episode per operation for
  /// fleet_chaos_sweep.  Input 0 is the one every Setup() runs.
  [[nodiscard]] virtual std::size_t InputId(std::size_t i) const = 0;
  virtual OpResult Op(std::size_t i) = 0;

  /// The traced replay runs operations 1..TracedOps(); the cluster digest
  /// covers the same inputs.
  [[nodiscard]] virtual std::size_t TracedOps() const = 0;

  /// The GEMM M the core probe should use for this workload.
  [[nodiscard]] virtual std::size_t ProbeM() const = 0;

  /// Deterministic per-layer metrics of the workload itself: the cluster
  /// digest and counts of the fleet workloads (the gemm workloads have none).
  virtual void DigestMetrics(Report& report) const = 0;

  [[nodiscard]] virtual bool IsFleet() const = 0;
};

/// "gemm_decode" | "gemm_prefill" | "fleet_steady" | "fleet_chaos_sweep";
/// nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed);

std::unique_ptr<Workload> MakeGemmWorkload(std::size_t m, std::uint64_t seed);
std::unique_ptr<Workload> MakeFleetWorkload(bool chaos, std::uint64_t seed);

/// Core-layer probe at GEMM M = `m` on fresh LLaMA-2-7B TP-4 layer weights
/// generated from `seed`: fills every core.* metric.
void CoreProbe(std::size_t m, std::uint64_t seed, Report& report);

/// simgpu / serving / cluster probes; the serving replay uses a sixth of the
/// fleet_steady trace for `seed`.  Fills simgpu.*, serving.* and
/// cluster.decide_us_p50.
void LayerProbes(std::uint64_t seed, Report& report);

/// Reads the wall profiler's merged tree and fills trace.* as shares of
/// `traced_wall_s`.
void TraceAttribution(double traced_wall_s, Report& report);

/// The fleet_steady trace for `seed` (also replayed, a sixth of it, by the
/// serving probe).
std::vector<liquid::serving::TimedRequest> SteadyTrace(std::uint64_t seed);

}  // namespace perfbench
