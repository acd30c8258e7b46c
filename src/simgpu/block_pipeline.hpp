#pragma once
// Thread-block main-loop pipeline simulation (paper Section 5.1, Figure 6).
//
// Simulates one thread block executing `k_iters` main-loop iterations under
// one of four pipeline structures, on the block's time-shared hardware units
// (TMA channel, CUDA-core pipe, tensor-core pipe, warp groups, SMEM stage
// buffers):
//
//   kSymmetric  LOAD -> MMA, double-buffered.  W8A8/FP8/FP16: no dequant.
//   kSerial     LOAD -> (DQ; MMA) in the same warps.  QServe-style: the
//               dequant serializes with MMA inside the compute stage.
//   kExCP       LOAD -> DQ-WG -> MMA-WG.  Explicit coarse pipeline: dequant
//               runs in its own warp group but pays the RF<->SMEM round trip
//               and a software sync per handoff.
//   kImFP       LOAD -> {Compute WG0, Compute WG1}.  Implicit fine-grained
//               pipeline: each iteration splits into fine tasks consumed
//               preemptively; a WG dequantizes on CUDA cores then issues the
//               async WGMMA, so one WG's dequant overlaps the other's MMA
//               with no software synchronization.
//
// Per-iteration stage durations are inputs; the simulation produces the block
// completion time plus per-unit busy times and (optionally) interval logs.

#include <array>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "simgpu/kernel_config.hpp"
#include "simgpu/timeline.hpp"
#include "util/thread_annotations.hpp"

namespace liquid::simgpu {

struct BlockPipelineInput {
  PipelineKind pipeline = PipelineKind::kImFP;
  int k_iters = 1;
  double t_load = 0;        ///< per-iteration weight tile load (TMA)
  double t_dequant = 0;     ///< per-iteration dequant on CUDA cores
  double t_mma = 0;         ///< per-iteration MMA on tensor cores
  double t_smem_roundtrip = 0;  ///< ExCP only: RF->SMEM->RF of the INT8 tile
  double t_sync = 0;        ///< ExCP only: per-handoff software barrier
  int compute_wgs = 2;      ///< ImFP consumers
  int fine_tasks = 4;       ///< ImFP tasks per iteration
  int stage_depth = 4;      ///< SMEM pipeline buffers
  bool record_trace = false;
};

struct BlockPipelineResult {
  double total = 0;         ///< time until the last MMA of the last iteration
  double load_busy = 0;
  double dequant_busy = 0;
  double mma_busy = 0;
  std::vector<Interval> load_log;
  std::vector<Interval> dequant_log;
  std::vector<Interval> mma_log;

  [[nodiscard]] double BubbleFraction() const {
    return total > 0 ? 1.0 - mma_busy / total : 0.0;
  }
};

BlockPipelineResult SimulateBlockPipeline(const BlockPipelineInput& in);

/// Memo of SimulateBlockPipeline keyed by the exact bits of every input field
/// the simulation reads (all but `record_trace`).  The key therefore holds
/// everything that distinguishes one hardware spec, kernel preset, model
/// shape or batch from another, so one cache can serve a whole fleet of
/// mixed replicas, and a hit returns the identical doubles a miss computes.
/// Block inputs depend on the token count only through the saturating batch
/// tile, so a chaos fleet episode that prices thousands of GEMMs sees only
/// about a hundred distinct inputs.  Thread-safe: parallel replicas share one
/// cache.
class BlockPipelineCache {
 public:
  /// SimulateBlockPipeline(in), answered from the cache when an identical
  /// input was simulated before.  `record_trace` calls bypass the cache, so
  /// their interval logs are always fresh.
  [[nodiscard]] BlockPipelineResult Simulate(const BlockPipelineInput& in)
      LIQUID_EXCLUDES(mu_);

  /// Distinct inputs simulated so far.
  [[nodiscard]] std::size_t size() const LIQUID_EXCLUDES(mu_);

 private:
  using Key = std::array<std::uint64_t, 10>;
  struct KeyHash {
    std::size_t operator()(const Key& key) const;
  };
  mutable util::Mutex mu_;
  /// Untraced results (empty logs).  Determinism audit: keyed lookup and
  /// insert only — never iterated, and a hit returns the identical doubles a
  /// miss would compute.
  std::unordered_map<Key, BlockPipelineResult, KeyHash> entries_
      LIQUID_GUARDED_BY(mu_);
};

}  // namespace liquid::simgpu
