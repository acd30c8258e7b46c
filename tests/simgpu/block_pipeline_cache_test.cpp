// BlockPipelineCache tests: a cached GEMM price is the identical double an
// uncached one computes (any preset, shape, batch, hardware, in any order),
// every key field separates entries, and traced calls bypass the cache.

#include "simgpu/block_pipeline.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "simgpu/gemm_sim.hpp"

namespace liquid::simgpu {
namespace {

/// One SimulateGemm call of the equivalence sweep.
struct Case {
  const HardwareSpec* hw;
  KernelKind kind;
  GemmShape shape;
  int grouped;
};

std::string Describe(const Case& c) {
  return ToString(c.kind) + " m=" + std::to_string(c.shape.m) +
         " n=" + std::to_string(c.shape.n) + " k=" +
         std::to_string(c.shape.k) + " grouped=" + std::to_string(c.grouped) +
         " sms=" + std::to_string(c.hw->num_sms);
}

/// Every preset (all four pipeline kinds), batch edges around the WGMMA
/// granularity of 8 and the 128/256 batch tiles, the four LLaMA-2-7B layer
/// GEMMs, plain and grouped (persistent-kernel fill), on two GPUs — so one
/// cache serves mixed hardware and presets.
std::vector<Case> SweepCases(const HardwareSpec& h800, const HardwareSpec& a100) {
  const KernelKind kinds[] = {
      KernelKind::kTrtFp16,         KernelKind::kTrtW8A8,
      KernelKind::kTrtFp8,          KernelKind::kTrtW4A16,
      KernelKind::kQServeW4A8,      KernelKind::kLiquidW4A8,
      KernelKind::kLiquidW4A8Serial, KernelKind::kLiquidW4A8ExCP,
      KernelKind::kBaselineW4A8};
  // LLaMA-2-7B: fused QKV, O, fused gate+up, down.
  const std::size_t nk[][2] = {
      {3 * 4096, 4096}, {4096, 4096}, {2 * 11008, 4096}, {4096, 11008}};
  std::vector<Case> cases;
  for (const HardwareSpec* hw : {&h800, &a100}) {
    for (const KernelKind kind : kinds) {
      for (const std::size_t m : {1, 4, 8, 9, 64, 128, 129, 1024, 4096}) {
        for (const auto& s : nk) {
          for (const int grouped : {1, 8}) {
            cases.push_back({hw, kind, GemmShape{m, s[0], s[1]}, grouped});
          }
        }
      }
    }
  }
  return cases;
}

GemmSimResult Price(const Case& c, BlockPipelineCache* cache) {
  GemmSimOptions options;
  options.grouped = c.grouped;
  options.block_cache = cache;
  return SimulateGemm(*c.hw, KernelConfig::For(c.kind), c.shape, options);
}

void ExpectSameResult(const GemmSimResult& got, const GemmSimResult& want,
                      const std::string& what) {
  EXPECT_EQ(got.seconds, want.seconds) << what;
  EXPECT_EQ(got.t_load, want.t_load) << what;
  EXPECT_EQ(got.t_dequant, want.t_dequant) << what;
  EXPECT_EQ(got.t_mma, want.t_mma) << what;
  EXPECT_EQ(got.waves, want.waves) << what;
  EXPECT_EQ(got.active_blocks, want.active_blocks) << what;
  EXPECT_EQ(got.k_iters, want.k_iters) << what;
  EXPECT_EQ(got.mma_utilization, want.mma_utilization) << what;
  EXPECT_EQ(got.bubble_fraction, want.bubble_fraction) << what;
  EXPECT_EQ(got.block.total, want.block.total) << what;
  EXPECT_EQ(got.block.load_busy, want.block.load_busy) << what;
  EXPECT_EQ(got.block.dequant_busy, want.block.dequant_busy) << what;
  EXPECT_EQ(got.block.mma_busy, want.block.mma_busy) << what;
  EXPECT_TRUE(got.block.load_log.empty()) << what;
  EXPECT_TRUE(got.block.dequant_log.empty()) << what;
  EXPECT_TRUE(got.block.mma_log.empty()) << what;
}

TEST(BlockPipelineCacheTest, SharedCacheMatchesUncachedGemm) {
  const HardwareSpec h800 = HardwareSpec::H800();
  const HardwareSpec a100 = HardwareSpec::A100();
  const std::vector<Case> cases = SweepCases(h800, a100);
  std::vector<GemmSimResult> want;
  want.reserve(cases.size());
  for (const Case& c : cases) want.push_back(Price(c, nullptr));

  BlockPipelineCache cache;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    ExpectSameResult(Price(cases[i], &cache), want[i],
                     "cold " + Describe(cases[i]));
  }
  const std::size_t distinct = cache.size();
  // Saturating tiles make many calls share a block input.
  EXPECT_GT(distinct, 0u);
  EXPECT_LT(distinct, cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    ExpectSameResult(Price(cases[i], &cache), want[i],
                     "warm " + Describe(cases[i]));
  }
  EXPECT_EQ(cache.size(), distinct);

  BlockPipelineCache reversed;
  for (std::size_t i = cases.size(); i-- > 0;) {
    ExpectSameResult(Price(cases[i], &reversed), want[i],
                     "reversed " + Describe(cases[i]));
  }
  EXPECT_EQ(reversed.size(), distinct);
}

TEST(BlockPipelineCacheTest, SequenceThroughCacheMatchesUncached) {
  const HardwareSpec hw = HardwareSpec::H800();
  const KernelConfig cfg = KernelConfig::For(KernelKind::kLiquidW4A8);
  BlockPipelineCache cache;
  for (const std::size_t m : {1, 16, 300}) {
    const std::vector<GemmCall> calls = {{GemmShape{m, 12288, 4096}, 1},
                                         {GemmShape{m, 4096, 14336}, 8}};
    for (int pass = 0; pass < 2; ++pass) {
      EXPECT_EQ(SimulateGemmSequence(hw, cfg, calls, &cache),
                SimulateGemmSequence(hw, cfg, calls))
          << "m=" << m << " pass=" << pass;
    }
  }
}

BlockPipelineInput ExcpInput() {
  BlockPipelineInput in;
  in.pipeline = PipelineKind::kExCP;
  in.k_iters = 32;
  in.t_load = 1.0;
  in.t_dequant = 0.4;
  in.t_mma = 1.2;
  in.t_smem_roundtrip = 0.3;
  in.t_sync = 0.05;
  in.compute_wgs = 2;
  in.fine_tasks = 4;
  in.stage_depth = 4;
  return in;
}

void ExpectSameTotals(const BlockPipelineResult& got,
                      const BlockPipelineResult& want, const std::string& what) {
  EXPECT_EQ(got.total, want.total) << what;
  EXPECT_EQ(got.load_busy, want.load_busy) << what;
  EXPECT_EQ(got.dequant_busy, want.dequant_busy) << what;
  EXPECT_EQ(got.mma_busy, want.mma_busy) << what;
}

void ExpectSameLog(const std::vector<Interval>& got,
                   const std::vector<Interval>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].start, want[i].start) << what << " #" << i;
    EXPECT_EQ(got[i].end, want[i].end) << what << " #" << i;
  }
}

/// Moves a stage time by one ulp.
void Ulp(double& v) { v = std::nextafter(v, 2 * v + 1); }

TEST(BlockPipelineCacheTest, EveryKeyFieldSeparatesEntries) {
  struct Variant {
    const char* field;
    void (*mutate)(BlockPipelineInput&);
  };
  // One variant per key field; each differs from ExcpInput() in that field
  // alone.
  const Variant variants[] = {
      {"pipeline",
       [](BlockPipelineInput& in) { in.pipeline = PipelineKind::kSerial; }},
      {"k_iters", [](BlockPipelineInput& in) { in.k_iters += 1; }},
      {"t_load", [](BlockPipelineInput& in) { Ulp(in.t_load); }},
      {"t_dequant", [](BlockPipelineInput& in) { Ulp(in.t_dequant); }},
      {"t_mma", [](BlockPipelineInput& in) { Ulp(in.t_mma); }},
      {"t_smem_roundtrip",
       [](BlockPipelineInput& in) { Ulp(in.t_smem_roundtrip); }},
      {"t_sync", [](BlockPipelineInput& in) { Ulp(in.t_sync); }},
      {"compute_wgs", [](BlockPipelineInput& in) { in.compute_wgs = 3; }},
      {"fine_tasks", [](BlockPipelineInput& in) { in.fine_tasks = 8; }},
      {"stage_depth", [](BlockPipelineInput& in) { in.stage_depth = 2; }},
  };
  BlockPipelineCache cache;
  const BlockPipelineInput base = ExcpInput();
  ExpectSameTotals(cache.Simulate(base), SimulateBlockPipeline(base), "base");
  ASSERT_EQ(cache.size(), 1u);
  std::size_t expected = 1;
  for (const Variant& v : variants) {
    BlockPipelineInput in = base;
    v.mutate(in);
    ExpectSameTotals(cache.Simulate(in), SimulateBlockPipeline(in), v.field);
    EXPECT_EQ(cache.size(), ++expected) << v.field << " shares base's entry";
  }
  // The base entry is still its own.
  ExpectSameTotals(cache.Simulate(base), SimulateBlockPipeline(base),
                   "base again");
  EXPECT_EQ(cache.size(), expected);
}

TEST(BlockPipelineCacheTest, TracedCallsBypassAWarmCache) {
  for (const PipelineKind kind :
       {PipelineKind::kSymmetric, PipelineKind::kSerial, PipelineKind::kExCP,
        PipelineKind::kImFP}) {
    BlockPipelineInput in = ExcpInput();
    in.pipeline = kind;
    BlockPipelineCache cache;
    (void)cache.Simulate(in);  // warm: untraced entry for the same input
    ASSERT_EQ(cache.size(), 1u);

    in.record_trace = true;
    const BlockPipelineResult got = cache.Simulate(in);
    const BlockPipelineResult want = SimulateBlockPipeline(in);
    const std::string what = "pipeline " + std::to_string(static_cast<int>(kind));
    ExpectSameTotals(got, want, what);
    ASSERT_FALSE(want.mma_log.empty()) << what;
    ExpectSameLog(got.load_log, want.load_log, what + " load");
    ExpectSameLog(got.dequant_log, want.dequant_log, what + " dequant");
    ExpectSameLog(got.mma_log, want.mma_log, what + " mma");
    EXPECT_EQ(cache.size(), 1u) << what << ": traced call was cached";
  }
}

TEST(BlockPipelineCacheTest, TracedGemmKeepsItsBlockLogs) {
  const HardwareSpec hw = HardwareSpec::H800();
  const KernelConfig cfg = KernelConfig::For(KernelKind::kLiquidW4A8);
  const GemmShape shape{64, 4096, 4096};
  BlockPipelineCache cache;
  GemmSimOptions options;
  options.block_cache = &cache;
  (void)SimulateGemm(hw, cfg, shape, options);
  options.record_trace = true;
  const GemmSimResult got = SimulateGemm(hw, cfg, shape, options);
  options.block_cache = nullptr;
  const GemmSimResult want = SimulateGemm(hw, cfg, shape, options);
  EXPECT_EQ(got.seconds, want.seconds);
  ASSERT_FALSE(want.block.mma_log.empty());
  ExpectSameLog(got.block.load_log, want.block.load_log, "load");
  ExpectSameLog(got.block.dequant_log, want.block.dequant_log, "dequant");
  ExpectSameLog(got.block.mma_log, want.block.mma_log, "mma");
}

}  // namespace
}  // namespace liquid::simgpu
