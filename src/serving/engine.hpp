#pragma once
// End-to-end LLM serving simulator (paper Sections 6 and 7.2).
//
// Reproduces the Table 1 / Figure 4 / Figure 10 / Figure 11 methodology:
// fixed input/output lengths, batch sweep under an 80 GB memory ceiling,
// peak-throughput selection, and per-layer GEMM/Attention/Others breakdowns.
//
// One decode step = per-layer GEMM chain (simgpu) + decode attention
// (attention_model) + non-GEMM overhead.  Prefill = GEMM chain at
// batch*prompt tokens + quadratic prefill attention.  Memory = quantized
// weights + FP16 embeddings + paged KV cache + framework overhead; the KV
// pool is validated against a real KvBlockManager allocation.

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "serving/attention_model.hpp"
#include "serving/kv_cache.hpp"
#include "serving/model_config.hpp"
#include "serving/system_preset.hpp"
#include "simgpu/gemm_sim.hpp"
#include "simgpu/hardware.hpp"

namespace liquid::serving {

struct ServingWorkload {
  std::size_t input_len = 1024;
  std::size_t output_len = 512;
  std::size_t batch = 1;
};

struct LayerBreakdown {
  double gemm = 0;
  double attention = 0;
  double others = 0;
  [[nodiscard]] double total() const { return gemm + attention + others; }
};

struct ServingResult {
  bool oom = false;
  bool supported = true;
  double tokens_per_second = 0;     ///< generated tokens / total time
  double prefill_seconds = 0;
  double decode_step_seconds = 0;   ///< at mid-generation KV length
  double total_seconds = 0;
  double memory_bytes = 0;
  LayerBreakdown decode_layer;      ///< one layer, one decode step
};

struct EngineOptions {
  double memory_budget_bytes = 80e9;  ///< H800 80 GB
  std::size_t kv_block_tokens = 16;   ///< PagedAttention block size
  /// Chunked prefill: process prompts in chunks of at most this many tokens
  /// per engine iteration (0 = unchunked).  Chunking bounds the GEMM batch a
  /// prefill can monopolize, at the cost of re-reading prior KV for the
  /// attention of each later chunk.
  std::size_t prefill_chunk_tokens = 0;
};

class ServingEngine {
 public:
  /// `block_cache` prices the engine's GEMM blocks; engines that share one
  /// (a cluster's replicas) simulate each distinct block once between them.
  /// Null builds a private cache.
  ServingEngine(simgpu::HardwareSpec hw, SystemPreset preset, LlmConfig model,
                EngineOptions options = {},
                std::shared_ptr<simgpu::BlockPipelineCache> block_cache = {});

  /// Full run at a fixed batch size.
  [[nodiscard]] ServingResult Run(const ServingWorkload& workload) const;

  /// Memory footprint at a batch size (bytes), including the paged-KV pool
  /// actually needed for batch sequences of (input+output) tokens.
  [[nodiscard]] double MemoryBytes(const ServingWorkload& workload) const;

  /// Weight memory alone (quantized GEMM weights + params + FP16 embeddings).
  [[nodiscard]] double WeightMemoryBytes() const;

  /// Largest batch that fits the memory budget (0 if even batch 1 OOMs).
  [[nodiscard]] std::size_t MaxBatch(std::size_t input_len,
                                     std::size_t output_len,
                                     std::size_t cap = 256) const;

  struct PeakResult {
    double tokens_per_second = 0;
    std::size_t batch = 0;
    bool supported = true;
    bool oom = false;  ///< even batch 1 does not fit
  };
  /// Sweeps batch sizes 1..cap (Table 1 methodology) and returns the peak.
  [[nodiscard]] PeakResult PeakThroughput(std::size_t input_len,
                                          std::size_t output_len,
                                          std::size_t cap = 256) const;

  [[nodiscard]] const SystemPreset& preset() const { return preset_; }
  [[nodiscard]] const LlmConfig& model() const { return model_; }
  [[nodiscard]] const EngineOptions& options() const { return options_; }

  /// One decode step's per-layer breakdown at the given batch / KV length.
  [[nodiscard]] LayerBreakdown DecodeLayerBreakdown(std::size_t batch,
                                                    std::size_t kv_len) const;

  /// Whole-model decode-step latency (all layers + LM head).
  [[nodiscard]] double DecodeStepSeconds(std::size_t batch,
                                         std::size_t kv_len) const;
  /// Prefill latency for `batch` sequences of `input_len` tokens.
  [[nodiscard]] double PrefillSeconds(std::size_t batch,
                                      std::size_t input_len) const;

  /// Cost of one prefill chunk of a single sequence: `chunk_tokens` fresh
  /// tokens whose attention also reads the `prior_tokens` already cached by
  /// earlier chunks.  The scheduler uses this to interleave long prefills
  /// with decode steps (Sarathi-style) instead of charging the whole prompt
  /// in one iteration.  Summing chunks reproduces PrefillSeconds(1, len)
  /// under the same chunking.
  [[nodiscard]] double PrefillChunkSeconds(std::size_t chunk_tokens,
                                           std::size_t prior_tokens) const;

 private:
  [[nodiscard]] double OthersPerLayer(std::size_t batch) const;
  [[nodiscard]] AttentionCostConfig AttentionConfig() const;
  /// One layer's GEMM chain (simgpu) at `tokens` rows, from the memo.
  [[nodiscard]] double LayerGemmSeconds(std::size_t tokens) const;
  [[nodiscard]] double ChunkCost(std::size_t batch, std::size_t chunk_tokens,
                                 std::size_t prior_tokens) const;

  simgpu::HardwareSpec hw_;
  SystemPreset preset_;
  LlmConfig model_;
  EngineOptions options_;
  simgpu::KernelConfig kernel_;

  /// Every price is closed-form attention and "others" flops plus simgpu GEMM
  /// time, and only the GEMM time is expensive to evaluate (a block-pipeline
  /// simulation per GEMM).  It is memoized at two levels:
  ///   1. `gemm_memo_`, this engine's memo keyed by token count: the
  ///      per-layer chain at that many rows, plus the LM head at that batch
  ///      once a decode step has asked for it.  It serves decode steps, whole
  ///      and chunked prefills alike, and is the hot path: a hit is one hash
  ///      lookup.  Engines are used single-threaded, so it is not locked.
  ///   2. `block_cache_`, on the memo's miss path only: the block-pipeline
  ///      results keyed by the exact block input, shared by every engine of
  ///      a cluster.  The block input depends on the token count only through
  ///      the saturating batch tile, so a fresh replica's first prices are
  ///      mostly hits on blocks other replicas (or other token counts)
  ///      already simulated.
  /// Both earn their place: with the block cache in place, dropping the
  /// token memo cut `perfbench --workload fleet_steady` from ~520k to ~140k
  /// work/s (4-vCPU Xeon VM, gcc 12.2, Release), because a memo miss
  /// rebuilds the layer's GEMM list and sets up four GEMMs, each with a
  /// locked block lookup, where a hit is one hash probe.
  /// Determinism audit: pure memoization, keyed lookup/insert only — never
  /// iterated, and a hit returns the identical double a miss would compute
  /// (the block cache's key holds every field the simulation reads).
  struct GemmMemo {
    double layer = 0;
    std::optional<double> lm_head;
  };
  mutable std::unordered_map<std::size_t, GemmMemo> gemm_memo_;
  std::shared_ptr<simgpu::BlockPipelineCache> block_cache_;
};

}  // namespace liquid::serving
