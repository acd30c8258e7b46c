// Dequantization micro-benchmark (paper Sections 3.2, 5.3).
//
// Measures, on the actual SWAR implementations:
//   * the instruction count per dequantized element (alpha) of LiquidQuant
//     vs the QServe-style baseline — the machine-checked version of the
//     paper's "two instructions per four elements" claim; and
//   * real CPU ns/element of each path, a second, hardware-independent
//     witness that the LQQ sequence is fundamentally cheaper; and
//   * BM_FusedW4A8DotM<4|256>/<build>/<projection>: the AVX2 provider's
//     W4A8 kernels on one LLaMA-2-7B TP-4 decoder layer at decode (M=4) and
//     prefill (M=256) batch, once per build the CPU can run (vnni: the
//     register tile on vpdpbusd; widen: the int16-madd panel).  This is the
//     layer number behind the provider's CPUID choice; and
//   * BM_QuantizeActivationsM4/<projection>: the per-token activation
//     quantizer every LiquidGemm call runs first, at M=4.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/dequant/dequant.hpp"
#include "core/gemm/gemm.hpp"
#include "core/gemm/kernels.hpp"
#include "serving/model_config.hpp"
#include "serving/tensor_parallel.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

using namespace liquid;

LqqWeights MakeLqq(std::size_t n, std::size_t k) {
  Rng rng(1);
  MatrixF w(n, k);
  for (auto& v : w.Flat()) v = static_cast<float>(rng.Normal(0, 0.05));
  return QuantizeWeightsLqq(w);
}

QserveWeights MakeQserve(std::size_t n, std::size_t k) {
  Rng rng(1);
  MatrixF w(n, k);
  for (auto& v : w.Flat()) v = static_cast<float>(rng.Normal(0, 0.05));
  return QuantizeWeightsQserve(w);
}

void BM_LqqDequantRow(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  const LqqWeights w = MakeLqq(8, k);
  std::vector<std::int8_t> out(k);
  std::size_t row = 0;
  for (auto _ : state) {
    LqqDequantRow(w, row, out);
    benchmark::DoNotOptimize(out.data());
    row = (row + 1) % 8;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(k));
}
BENCHMARK(BM_LqqDequantRow)->Arg(4096)->Arg(11008);

void BM_QserveDequantRow(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  const QserveWeights w = MakeQserve(8, k);
  std::vector<std::int8_t> out(k);
  std::size_t row = 0;
  for (auto _ : state) {
    QserveDequantRow(w, row, out);
    benchmark::DoNotOptimize(out.data());
    row = (row + 1) % 8;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(k));
}
BENCHMARK(BM_QserveDequantRow)->Arg(4096)->Arg(11008);

void BM_LqqDequantRegister(benchmark::State& state) {
  // The kernel-inner-loop unit: one packed register (8 elements).
  std::uint32_t reg = 0x12345678u;
  for (auto _ : state) {
    const Dequanted8 d = LqqDequant8(reg, 16, 100);
    benchmark::DoNotOptimize(d);
    reg += 0x01010101u;
  }
}
BENCHMARK(BM_LqqDequantRegister);

void BM_QserveDequantRegister(benchmark::State& state) {
  std::uint32_t reg = 0x12345678u;
  for (auto _ : state) {
    const Dequanted8 d = QserveDequant8(reg, 16, 100);
    benchmark::DoNotOptimize(d);
    reg += 0x01010101u;
  }
}
BENCHMARK(BM_QserveDequantRegister);

void RegisterFusedDequantDotBenchmarks() {
  // GEMV (M=1) through each GEMM provider: at batch 1 the main loop is
  // dominated by weight dequantization, so ns/element here is the fused
  // dequant+dot cost — the scalar rows above vs the AVX2 provider's
  // pshufb-LUT fused row dequant.
  for (const GemmProvider provider : AvailableGemmProviders()) {
    benchmark::RegisterBenchmark(
        (std::string("BM_FusedLqqDequantDotGemv/") +
         GemmProviderName(provider))
            .c_str(),
        [provider](benchmark::State& state) {
          constexpr std::size_t kN = 512, kK = 4096;
          Rng rng(2);
          MatrixF x(1, kK);
          for (auto& v : x.Flat()) v = static_cast<float>(rng.Normal(0, 1));
          const QuantizedActivations xq = QuantizeActivationsPerToken(x);
          const LqqWeights w = MakeLqq(kN, kK);
          for (auto _ : state) {
            MatrixF y = GemmW4A8Liquid(xq, w, provider);
            benchmark::DoNotOptimize(y.data());
          }
          state.SetItemsProcessed(
              static_cast<std::int64_t>(state.iterations()) *
              static_cast<std::int64_t>(kN * kK));
        });
  }
}

/// Gaussian token rows [m x k], seeded so every build times the same input.
MatrixF RandomTokens(std::size_t m, std::size_t k) {
  Rng rng(3);
  MatrixF x(m, k);
  for (auto& v : x.Flat()) v = static_cast<float>(rng.Normal(0, 1));
  return x;
}

constexpr const char* kProjections[] = {"qkv", "o", "gate_up", "down"};

void RegisterFusedW4A8DotBenchmarks(std::size_t m) {
  const auto calls =
      serving::ShardModel(serving::LlmConfig::Llama2_7B(), 4).LayerGemms(m);
  for (const detail::W4A8Dot dot :
       {detail::W4A8Dot::kWiden, detail::W4A8Dot::kVnni}) {
    if (!detail::W4A8DotAvailable(dot)) continue;
    for (std::size_t i = 0; i < calls.size() && i < 4; ++i) {
      const std::size_t n = calls[i].shape.n;
      const std::size_t k = calls[i].shape.k;
      benchmark::RegisterBenchmark(
          (std::string("BM_FusedW4A8DotM") + std::to_string(m) + "/" +
           detail::W4A8DotName(dot) + "/" + kProjections[i])
              .c_str(),
          [dot, m, n, k](benchmark::State& state) {
            const QuantizedActivations xq =
                QuantizeActivationsPerToken(RandomTokens(m, k));
            const LqqWeights w = MakeLqq(n, k);
            const detail::GemmKernelTable& kernels =
                detail::Avx2KernelsWith(dot);
            for (auto _ : state) {
              MatrixF y = kernels.w4a8_lqq(xq, w);
              benchmark::DoNotOptimize(y.data());
            }
            // Items are weight elements, each dotted against all m tokens.
            state.SetItemsProcessed(
                static_cast<std::int64_t>(state.iterations()) *
                static_cast<std::int64_t>(n * k));
          })
          ->Unit(benchmark::kMicrosecond);
    }
  }
}

/// The host work LiquidGemm adds to every call at decode batch 4: per-token
/// INT8 quantization of the [4 x K] activations of each projection.
void RegisterQuantizeActivationsBenchmarks() {
  constexpr std::size_t kM = 4;
  const auto calls =
      serving::ShardModel(serving::LlmConfig::Llama2_7B(), 4).LayerGemms(kM);
  for (std::size_t i = 0; i < calls.size() && i < 4; ++i) {
    const std::size_t k = calls[i].shape.k;
    benchmark::RegisterBenchmark(
        (std::string("BM_QuantizeActivationsM4/") + kProjections[i]).c_str(),
        [k](benchmark::State& state) {
          const MatrixF x = RandomTokens(kM, k);
          for (auto _ : state) {
            QuantizedActivations q = QuantizeActivationsPerToken(x);
            benchmark::DoNotOptimize(q.q.data());
          }
          state.SetItemsProcessed(
              static_cast<std::int64_t>(state.iterations()) *
              static_cast<std::int64_t>(kM * k));
        });
  }
}

void PrintInstructionMix() {
  IsaCounter lqq;
  (void)LqqDequant8(0x12345678u, 16, 100, &lqq);
  IsaCounter qserve;
  (void)QserveDequant8(0x12345678u, 16, 100, &qserve);

  Table t("Dequantization instruction cost per packed register (8 elements)");
  t.SetHeader({"scheme", "logic", "shift", "imad", "total",
               "alpha (instr/elem)", "alpha budget (H100)"});
  t.AddRow({"LiquidQuant", std::to_string(lqq.logic),
            std::to_string(lqq.shift), std::to_string(lqq.imad),
            std::to_string(lqq.Total()), Format("%.3f", MeasureAlphaLqq()),
            "5.07"});
  t.AddRow({"QServe", std::to_string(qserve.logic),
            std::to_string(qserve.shift), std::to_string(qserve.imad),
            std::to_string(qserve.Total()),
            Format("%.3f", MeasureAlphaQserve()), "5.07"});
  t.Print();
  std::printf(
      "LiquidQuant: 3 unpack + 2x(IMAD+XOR) = 7 instructions / 8 elements\n"
      "(paper Section 5.3: \"eight elements are dequantized with only seven\n"
      "instructions\"); QServe pays the vsub4 lowering on every register.\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  PrintInstructionMix();
  RegisterFusedDequantDotBenchmarks();
  RegisterFusedW4A8DotBenchmarks(4);
  RegisterFusedW4A8DotBenchmarks(256);  // prefill: recorded, not a workload
  RegisterQuantizeActivationsBenchmarks();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
