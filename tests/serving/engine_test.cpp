// Serving-engine tests: memory accounting, OOM behaviour (Table 1's OOM and
// batch-limit entries), breakdown structure, and the qualitative end-to-end
// relationships the paper reports.

#include "serving/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <memory>
#include <ostream>
#include <string>

namespace liquid::serving {

/// Prints a preset by name, so the parameterized test ids ctest discovers
/// are stable (gtest would otherwise print the raw object bytes, heap
/// pointers included).  Lives beside SystemPreset for argument-dependent
/// lookup.
void PrintTo(const SystemPreset& preset, std::ostream* os) {
  *os << preset.name;
}

namespace {

const simgpu::HardwareSpec kH800 = simgpu::HardwareSpec::H800();

ServingEngine Make(const SystemPreset& preset, const LlmConfig& model) {
  return ServingEngine(kH800, preset, model);
}

TEST(EngineTest, WeightMemoryScalesWithPrecision) {
  const LlmConfig m = LlmConfig::Llama2_7B();
  const double fp16 = Make(SystemPreset::TrtFp16(), m).WeightMemoryBytes();
  const double w8 = Make(SystemPreset::TrtW8A8(), m).WeightMemoryBytes();
  const double w4 = Make(SystemPreset::LiquidServe(), m).WeightMemoryBytes();
  EXPECT_GT(fp16, 1.9 * w8);
  EXPECT_GT(w8, 1.7 * w4);  // 4-bit + group params + shared FP16 embeddings
  // LLaMA2-7B FP16 weights ~13.5 GB.
  EXPECT_NEAR(fp16, 13.5e9, 1.5e9);
}

TEST(EngineTest, Fp16SeventyBOoms) {
  // Table 1: TRT-FP16 on LLaMA2-70B is OOM on 80 GB (weights alone ~138 GB).
  const auto engine = Make(SystemPreset::TrtFp16(), LlmConfig::Llama2_70B());
  const auto peak = engine.PeakThroughput(1024, 512);
  EXPECT_TRUE(peak.oom);
  EXPECT_EQ(peak.batch, 0u);
}

TEST(EngineTest, Fp16MixtralOoms) {
  const auto engine = Make(SystemPreset::TrtFp16(), LlmConfig::Mixtral_8x7B());
  EXPECT_TRUE(engine.PeakThroughput(1024, 512).oom);
}

TEST(EngineTest, W8A8MixtralUnsupported) {
  const auto engine = Make(SystemPreset::TrtW8A8(), LlmConfig::Mixtral_8x7B());
  const auto peak = engine.PeakThroughput(1024, 512);
  EXPECT_FALSE(peak.supported);
}

TEST(EngineTest, QServeMixtralUnsupported) {
  const auto engine = Make(SystemPreset::QServe(), LlmConfig::Mixtral_8x7B());
  EXPECT_FALSE(engine.PeakThroughput(1024, 512).supported);
}

TEST(EngineTest, QuantizationExtendsMaxBatch) {
  // 4-bit weights leave more room for KV cache -> larger feasible batch.
  const LlmConfig m = LlmConfig::Llama2_70B();
  const auto w4 = Make(SystemPreset::LiquidServe(), m);
  const auto w8 = Make(SystemPreset::TrtW8A8(), m);
  EXPECT_GT(w4.MaxBatch(1024, 512), 2 * w8.MaxBatch(1024, 512));
}

TEST(EngineTest, MemoryGrowsMonotonicallyWithBatch) {
  const auto engine = Make(SystemPreset::LiquidServe(), LlmConfig::Llama2_7B());
  double prev = 0;
  for (std::size_t b = 1; b <= 256; b *= 2) {
    const double mem = engine.MemoryBytes({1024, 512, b});
    EXPECT_GT(mem, prev);
    prev = mem;
  }
}

TEST(EngineTest, RunProducesConsistentResult) {
  const auto engine = Make(SystemPreset::LiquidServe(), LlmConfig::Llama2_7B());
  const ServingResult r = engine.Run({1024, 512, 64});
  ASSERT_FALSE(r.oom);
  EXPECT_GT(r.tokens_per_second, 0);
  EXPECT_GT(r.prefill_seconds, 0);
  EXPECT_GT(r.decode_step_seconds, 0);
  EXPECT_NEAR(r.total_seconds,
              r.prefill_seconds + 512 * r.decode_step_seconds, 1e-9);
  EXPECT_NEAR(r.tokens_per_second, 64.0 * 512 / r.total_seconds, 1e-6);
  // Breakdown components all populated.
  EXPECT_GT(r.decode_layer.gemm, 0);
  EXPECT_GT(r.decode_layer.attention, 0);
  EXPECT_GT(r.decode_layer.others, 0);
}

TEST(EngineTest, LiquidServeBeatsLiquidServeWo) {
  // Table 1: swapping QServe's kernel into our stack costs 1.13-1.98x.
  for (const auto& model :
       {LlmConfig::Llama2_7B(), LlmConfig::Llama2_70B(), LlmConfig::Yi_34B()}) {
    const auto full = Make(SystemPreset::LiquidServe(), model)
                          .PeakThroughput(1024, 512);
    const auto wo = Make(SystemPreset::LiquidServeWo(), model)
                        .PeakThroughput(1024, 512);
    const double speedup = full.tokens_per_second / wo.tokens_per_second;
    EXPECT_GT(speedup, 1.05) << model.name;
    EXPECT_LT(speedup, 2.5) << model.name;
  }
}

TEST(EngineTest, LiquidServeBeatsQServeSystem) {
  for (const auto& model : {LlmConfig::Llama2_7B(), LlmConfig::Llama3_8B()}) {
    const auto liquid =
        Make(SystemPreset::LiquidServe(), model).PeakThroughput(1024, 512);
    const auto qserve =
        Make(SystemPreset::QServe(), model).PeakThroughput(1024, 512);
    EXPECT_GT(liquid.tokens_per_second, qserve.tokens_per_second) << model.name;
  }
}

TEST(EngineTest, LiquidServeBeatsW8A8On70B) {
  // Table 1's largest win: 3.16x over TRT-W8A8 on LLaMA2-70B (batch room).
  const LlmConfig m = LlmConfig::Llama2_70B();
  const auto liquid = Make(SystemPreset::LiquidServe(), m).PeakThroughput(1024, 512);
  const auto w8 = Make(SystemPreset::TrtW8A8(), m).PeakThroughput(1024, 512);
  const double speedup = liquid.tokens_per_second / w8.tokens_per_second;
  EXPECT_GT(speedup, 1.8);
  EXPECT_GT(liquid.batch, w8.batch);
}

TEST(EngineTest, ThroughputImprovesWithBatchInMemoryBoundRegime) {
  const auto engine = Make(SystemPreset::LiquidServe(), LlmConfig::Llama2_7B());
  const double t16 = engine.Run({1024, 512, 16}).tokens_per_second;
  const double t64 = engine.Run({1024, 512, 64}).tokens_per_second;
  EXPECT_GT(t64, t16);
}

TEST(EngineTest, DecodeStepGrowsWithKvLength) {
  const auto engine = Make(SystemPreset::LiquidServe(), LlmConfig::Llama2_7B());
  EXPECT_GT(engine.DecodeStepSeconds(64, 2048),
            engine.DecodeStepSeconds(64, 512));
}

// Recomputes engine prices straight from simgpu and the attention model, in
// the engine's operand order, so memoized prices must match bit for bit.
// "Others" is closed-form and never memoized; it comes from a separate engine.
class PriceOracle {
 public:
  PriceOracle(const SystemPreset& preset, const LlmConfig& model,
              EngineOptions options)
      : model_(model),
        kernel_(simgpu::KernelConfig::For(preset.kernel)),
        options_(options),
        others_probe_(kH800, preset, model, options) {
    attn_.kv_bits = preset.kv_bits;
    attn_.efficiency = preset.attention_efficiency;
    attn_.fp8_math = preset.fp8_attention;
  }

  [[nodiscard]] double DecodeStep(std::size_t batch, std::size_t kv) const {
    LayerBreakdown layer;
    layer.gemm = LayerGemm(batch);
    layer.attention = DecodeAttentionSeconds(kH800, model_, attn_, batch, kv) /
                      static_cast<double>(model_.num_layers);
    layer.others = Others(batch);
    const simgpu::GemmCall lm_head{
        GemmShape{batch, static_cast<std::size_t>(model_.vocab),
                  static_cast<std::size_t>(model_.hidden)},
        1};
    const double t_lm = simgpu::SimulateGemmSequence(kH800, kernel_, {lm_head});
    return layer.total() * model_.num_layers + t_lm;
  }

  [[nodiscard]] double Prefill(std::size_t batch, std::size_t len) const {
    const std::size_t chunk = options_.prefill_chunk_tokens;
    if (chunk == 0 || len <= chunk) {
      const std::size_t tokens = batch * len;
      const double gemm = LayerGemm(tokens) * model_.num_layers;
      const double attention =
          PrefillAttentionSeconds(kH800, model_, attn_, batch, len);
      const double others =
          Others(tokens) * static_cast<double>(model_.num_layers);
      return gemm + attention + others;
    }
    double total = 0.0;
    for (std::size_t done = 0; done < len;) {
      const std::size_t this_chunk = std::min(chunk, len - done);
      total += Chunk(batch, this_chunk, done);
      done += this_chunk;
    }
    return total;
  }

  [[nodiscard]] double Chunk(std::size_t batch, std::size_t chunk_tokens,
                             std::size_t prior) const {
    const std::size_t tokens = batch * chunk_tokens;
    double total = LayerGemm(tokens) * model_.num_layers;
    total += PrefillAttentionSeconds(kH800, model_, attn_, batch, chunk_tokens);
    if (prior > 0) {
      total += CrossAttentionSeconds(kH800, model_, attn_, batch, chunk_tokens,
                                     prior);
    }
    total += Others(tokens) * static_cast<double>(model_.num_layers);
    return total;
  }

 private:
  [[nodiscard]] double LayerGemm(std::size_t tokens) const {
    return simgpu::SimulateGemmSequence(kH800, kernel_,
                                        model_.LayerGemms(tokens));
  }
  [[nodiscard]] double Others(std::size_t tokens) const {
    return others_probe_.DecodeLayerBreakdown(tokens, 0).others;
  }

  LlmConfig model_;
  simgpu::KernelConfig kernel_;
  EngineOptions options_;
  AttentionCostConfig attn_;
  ServingEngine others_probe_;
};

class EnginePriceTest : public ::testing::TestWithParam<SystemPreset> {};

TEST_P(EnginePriceTest, DecodeStepMatchesRecomputation) {
  const LlmConfig m = LlmConfig::Llama2_7B();
  const ServingEngine engine(kH800, GetParam(), m);
  const PriceOracle oracle(GetParam(), m, {});
  // First pass fills the memo (fresh engine); the second reads it (warm).
  for (int pass = 0; pass < 2; ++pass) {
    for (const std::size_t b : {1, 2, 3, 8, 16, 64}) {
      for (const std::size_t kv : {0, 1, 17, 512, 2048}) {
        EXPECT_EQ(engine.DecodeStepSeconds(b, kv), oracle.DecodeStep(b, kv))
            << "pass=" << pass << " batch=" << b << " kv=" << kv;
      }
    }
  }
}

TEST_P(EnginePriceTest, PrefillMatchesRecomputation) {
  const LlmConfig m = LlmConfig::Llama2_7B();
  for (const std::size_t chunk : {0, 2048}) {
    EngineOptions options;
    options.prefill_chunk_tokens = chunk;
    const ServingEngine engine(kH800, GetParam(), m, options);
    const PriceOracle oracle(GetParam(), m, options);
    for (int pass = 0; pass < 2; ++pass) {
      for (const std::size_t batch : {2, 3}) {
        for (const std::size_t len : {2047, 2048, 2049, 3 * 2048 + 5}) {
          EXPECT_EQ(engine.PrefillSeconds(batch, len),
                    oracle.Prefill(batch, len))
              << "pass=" << pass << " chunk=" << chunk << " batch=" << batch
              << " len=" << len;
        }
      }
    }
    // Decode at a token count a prefill already memoized: the shared entry
    // must still price the LM head.
    EXPECT_EQ(engine.DecodeStepSeconds(2 * 2048, 64),
              oracle.DecodeStep(2 * 2048, 64));
  }
}

TEST_P(EnginePriceTest, PrefillChunkMatchesRecomputation) {
  const LlmConfig m = LlmConfig::Llama2_7B();
  const ServingEngine engine(kH800, GetParam(), m);
  const PriceOracle oracle(GetParam(), m, {});
  for (int pass = 0; pass < 2; ++pass) {
    for (const std::size_t len : {1, 255, 2048}) {
      for (const std::size_t prior : {0, 1, 4096}) {
        EXPECT_EQ(engine.PrefillChunkSeconds(len, prior),
                  oracle.Chunk(1, len, prior))
            << "pass=" << pass << " len=" << len << " prior=" << prior;
      }
    }
  }
}

TEST(EngineBlockCacheTest, SharedCacheMatchesStandaloneEngines) {
  // Two engines on different GPUs and presets share one block cache and
  // interleave their calls; every price must equal a standalone engine's.
  const LlmConfig m = LlmConfig::Llama2_7B();
  const simgpu::HardwareSpec a100 = simgpu::HardwareSpec::A100();
  EngineOptions chunked;
  chunked.prefill_chunk_tokens = 2048;
  const auto cache = std::make_shared<simgpu::BlockPipelineCache>();
  const ServingEngine shared_liquid(kH800, SystemPreset::LiquidServe(), m, {},
                                    cache);
  const ServingEngine shared_qserve(a100, SystemPreset::QServe(), m, chunked,
                                    cache);
  const ServingEngine liquid(kH800, SystemPreset::LiquidServe(), m);
  const ServingEngine qserve(a100, SystemPreset::QServe(), m, chunked);
  for (int pass = 0; pass < 2; ++pass) {
    for (const std::size_t b : {1, 3, 8, 9, 64, 129}) {
      for (const std::size_t kv : {0, 512}) {
        EXPECT_EQ(shared_liquid.DecodeStepSeconds(b, kv),
                  liquid.DecodeStepSeconds(b, kv))
            << "pass=" << pass << " batch=" << b << " kv=" << kv;
        EXPECT_EQ(shared_qserve.DecodeStepSeconds(b, kv),
                  qserve.DecodeStepSeconds(b, kv))
            << "pass=" << pass << " batch=" << b << " kv=" << kv;
      }
      for (const std::size_t len : {255, 2049}) {
        EXPECT_EQ(shared_qserve.PrefillSeconds(b, len),
                  qserve.PrefillSeconds(b, len))
            << "pass=" << pass << " batch=" << b << " len=" << len;
        EXPECT_EQ(shared_liquid.PrefillSeconds(b, len),
                  liquid.PrefillSeconds(b, len))
            << "pass=" << pass << " batch=" << b << " len=" << len;
      }
    }
    for (const std::size_t len : {1, 255, 2048}) {
      for (const std::size_t prior : {0, 4096}) {
        EXPECT_EQ(shared_liquid.PrefillChunkSeconds(len, prior),
                  liquid.PrefillChunkSeconds(len, prior))
            << "pass=" << pass << " len=" << len << " prior=" << prior;
        EXPECT_EQ(shared_qserve.PrefillChunkSeconds(len, prior),
                  qserve.PrefillChunkSeconds(len, prior))
            << "pass=" << pass << " len=" << len << " prior=" << prior;
      }
    }
  }
  EXPECT_GT(cache->size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Presets, EnginePriceTest,
    ::testing::Values(SystemPreset::LiquidServe(), SystemPreset::QServe(),
                      SystemPreset::TrtW8A8()),
    [](const ::testing::TestParamInfo<SystemPreset>& param_info) {
      std::string name;
      for (const char c : param_info.param.name) {
        if (std::isalnum(static_cast<unsigned char>(c)) != 0) name += c;
      }
      return name;
    });

TEST(EnginePriceTestIds, PresetPrintsItsNameNotRawBytes) {
  const std::string printed =
      ::testing::PrintToString(SystemPreset::LiquidServe());
  EXPECT_EQ(printed.find("-byte object"), std::string::npos) << printed;
  EXPECT_EQ(printed, SystemPreset::LiquidServe().name);
}

}  // namespace
}  // namespace liquid::serving
