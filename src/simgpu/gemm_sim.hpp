#pragma once
// Grid-level GEMM simulation (paper Section 3.2, "GPU-Level Execution").
//
// Combines the block pipeline simulation with the device-level wave model of
// Eq. 6: the output grid of ceil(M/Mt) x ceil(N/Nt) tiles is executed by
// S x L concurrent blocks; device throughputs are shared evenly among active
// blocks.  Grouped GEMMs (MoE experts, Section 7.3 ablation) either relaunch
// per group (baselines) or stream through one persistent kernel (LiquidGEMM).

#include <vector>

#include "core/types.hpp"
#include "simgpu/block_pipeline.hpp"
#include "simgpu/hardware.hpp"
#include "simgpu/kernel_config.hpp"

namespace liquid::simgpu {

struct GemmSimOptions {
  int grouped = 1;           ///< number of equal-shape GEMMs in the group
  bool record_trace = false;
  /// Block simulations (main loop and persistent-kernel fill) go through
  /// this cache when set; null simulates every block afresh.
  BlockPipelineCache* block_cache = nullptr;
};

struct GemmSimResult {
  double seconds = 0;        ///< end-to-end kernel time
  double t_load = 0;         ///< aggregate stage times, Eq. 6 decomposition
  double t_dequant = 0;
  double t_mma = 0;
  int waves = 0;
  int active_blocks = 0;
  int k_iters = 0;
  double mma_utilization = 0;   ///< TC busy fraction inside one block
  double bubble_fraction = 0;   ///< 1 - mma_busy/total for one block
  BlockPipelineResult block;    ///< representative block (trace if requested)
};

/// Simulates Y = X·Wᵀ with the given kernel on the given hardware.
GemmSimResult SimulateGemm(const HardwareSpec& hw, const KernelConfig& cfg,
                           const GemmShape& shape,
                           const GemmSimOptions& options = {});

/// Latency of a sequence of GEMMs executed back to back (one transformer
/// layer's QKV/O/FFN chain); each entry may itself be grouped (MoE experts).
struct GemmCall {
  GemmShape shape;
  int grouped = 1;
};
double SimulateGemmSequence(const HardwareSpec& hw, const KernelConfig& cfg,
                            const std::vector<GemmCall>& calls,
                            BlockPipelineCache* block_cache = nullptr);

}  // namespace liquid::simgpu
