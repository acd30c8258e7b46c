// Functional CPU GEMM benchmark: measured wall-clock of the numerically
// verified kernels.  This is NOT a GPU performance claim — it is a second,
// executable witness that the LiquidQuant main loop (SWAR dequant + INT8
// MAC) does strictly less work per element than the QServe-style main loop,
// independent of the simulator.
//
// The unsuffixed BM_* benchmarks run whatever provider `GemmProvider::kAuto`
// resolves to (LIQUID_GEMM_PROVIDER env override, then CPUID); a suffixed
// variant per available provider (e.g. BM_GemmW4A8Liquid/reference vs
// BM_GemmW4A8Liquid/avx2) is registered at startup so one run produces the
// scalar-vs-SIMD comparison table.
//
// Before the table runs, WarmUp() calls every W4A8/W8A8 kernel once per
// provider and then spins the default one for a fraction of a second, so the
// first benchmark in the process does not pay page faults, OpenMP thread
// start-up or a cold CPU clock.
//
// `--check-speedup` switches to gate mode: times the reference and AVX2
// providers on the W4A8 LiquidGEMM hot kernel (16x512x2048) and exits
// non-zero if AVX2 is available but below 3x — the CI perf regression gate.
// The line names the W4A8 dot build the AVX2 provider ran (vnni | widen), so
// a log shows which path the floor measured.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>

#include "core/gemm/gemm.hpp"
#include "core/gemm/kernels.hpp"
#include "util/rng.hpp"
#include "util/wall_timer.hpp"

namespace {

using namespace liquid;

struct Problem {
  MatrixF x;
  MatrixF w;
  QuantizedActivations xq;
};

Problem Make(std::size_t m, std::size_t n, std::size_t k) {
  Rng rng(7);
  Problem p{MatrixF(m, k), MatrixF(n, k), {}};
  for (auto& v : p.x.Flat()) v = static_cast<float>(rng.Normal(0, 1));
  for (auto& v : p.w.Flat()) v = static_cast<float>(rng.Normal(0, 0.05));
  p.xq = QuantizeActivationsPerToken(p.x);
  return p;
}

constexpr std::size_t kM = 16;
constexpr std::size_t kN = 512;
constexpr std::size_t kK = 2048;

// --- kAuto benchmarks (stable names; the active provider) -------------------

void BM_GemmW4A8Liquid(benchmark::State& state) {
  const Problem p = Make(kM, kN, kK);
  const LqqWeights w = QuantizeWeightsLqq(p.w);
  for (auto _ : state) {
    MatrixF y = GemmW4A8Liquid(p.xq, w);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_GemmW4A8Liquid)->Unit(benchmark::kMillisecond);

void BM_GemmW4A8Qserve(benchmark::State& state) {
  const Problem p = Make(kM, kN, kK);
  const QserveWeights w = QuantizeWeightsQserve(p.w);
  for (auto _ : state) {
    MatrixF y = GemmW4A8Qserve(p.xq, w);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_GemmW4A8Qserve)->Unit(benchmark::kMillisecond);

void BM_GemmW8A8(benchmark::State& state) {
  const Problem p = Make(kM, kN, kK);
  const W8A8Weights w = QuantizeWeightsW8A8(p.w);
  for (auto _ : state) {
    MatrixF y = GemmW8A8(p.xq, w);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_GemmW8A8)->Unit(benchmark::kMillisecond);

void BM_GemmFp32Reference(benchmark::State& state) {
  const Problem p = Make(kM, kN, kK);
  for (auto _ : state) {
    MatrixF y = GemmReference(p.x, p.w);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_GemmFp32Reference)->Unit(benchmark::kMillisecond);

void BM_QuantizeWeightsLqq(benchmark::State& state) {
  // Offline cost: two-level quantization + packing of a 512x2048 tensor.
  const Problem p = Make(1, kN, kK);
  for (auto _ : state) {
    LqqWeights w = QuantizeWeightsLqq(p.w);
    benchmark::DoNotOptimize(w.packed.data());
  }
}
BENCHMARK(BM_QuantizeWeightsLqq)->Unit(benchmark::kMillisecond);

void BM_PackDualMma(benchmark::State& state) {
  const Problem p = Make(1, kN, kK);
  const LqqWeights w = QuantizeWeightsLqq(p.w);
  for (auto _ : state) {
    DualMmaPackedWeights packed = PackDualMma(w);
    benchmark::DoNotOptimize(packed.regs.data());
  }
}
BENCHMARK(BM_PackDualMma)->Unit(benchmark::kMillisecond);

// --- per-provider variants (registered for every available provider) --------

void RegisterPerProviderBenchmarks() {
  for (const GemmProvider provider : AvailableGemmProviders()) {
    const std::string suffix = std::string("/") + GemmProviderName(provider);
    benchmark::RegisterBenchmark(
        ("BM_GemmW4A8Liquid" + suffix).c_str(),
        [provider](benchmark::State& state) {
          const Problem p = Make(kM, kN, kK);
          const LqqWeights w = QuantizeWeightsLqq(p.w);
          for (auto _ : state) {
            MatrixF y = GemmW4A8Liquid(p.xq, w, provider);
            benchmark::DoNotOptimize(y.data());
          }
        })
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(
        ("BM_GemmW4A8Qserve" + suffix).c_str(),
        [provider](benchmark::State& state) {
          const Problem p = Make(kM, kN, kK);
          const QserveWeights w = QuantizeWeightsQserve(p.w);
          for (auto _ : state) {
            MatrixF y = GemmW4A8Qserve(p.xq, w, provider);
            benchmark::DoNotOptimize(y.data());
          }
        })
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(
        ("BM_GemmW8A8" + suffix).c_str(),
        [provider](benchmark::State& state) {
          const Problem p = Make(kM, kN, kK);
          const W8A8Weights w = QuantizeWeightsW8A8(p.w);
          for (auto _ : state) {
            MatrixF y = GemmW8A8(p.xq, w, provider);
            benchmark::DoNotOptimize(y.data());
          }
        })
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(
        ("BM_GemmFp32" + suffix).c_str(),
        [provider](benchmark::State& state) {
          const Problem p = Make(kM, kN, kK);
          for (auto _ : state) {
            MatrixF y = GemmReference(p.x, p.w, provider);
            benchmark::DoNotOptimize(y.data());
          }
        })
        ->Unit(benchmark::kMillisecond);
  }
}

/// Runs each integer kernel once per available provider, then the default
/// W4A8 kernel until `seconds` have passed.
void WarmUp(double seconds) {
  const Problem p = Make(kM, kN, kK);
  const LqqWeights lqq = QuantizeWeightsLqq(p.w);
  const QserveWeights qserve = QuantizeWeightsQserve(p.w);
  const W8A8Weights w8 = QuantizeWeightsW8A8(p.w);
  for (const GemmProvider provider : AvailableGemmProviders()) {
    benchmark::DoNotOptimize(GemmW4A8Liquid(p.xq, lqq, provider).data());
    benchmark::DoNotOptimize(GemmW4A8Qserve(p.xq, qserve, provider).data());
    benchmark::DoNotOptimize(GemmW8A8(p.xq, w8, provider).data());
  }
  const WallTimer timer;
  while (timer.Seconds() < seconds) {
    benchmark::DoNotOptimize(GemmW4A8Liquid(p.xq, lqq).data());
  }
}

// --- gate mode ---------------------------------------------------------------

double BestOfMs(const Problem& p, const LqqWeights& w, GemmProvider provider,
                int reps) {
  // MinSecondsOver runs one untimed warm-up call (page faults, provider
  // resolution) before taking the min over `reps` timed calls.
  return 1e3 * MinSecondsOver(reps, [&] {
           MatrixF out = GemmW4A8Liquid(p.xq, w, provider);
           benchmark::DoNotOptimize(out.data());
         });
}

/// Gate: AVX2 must beat the scalar reference by >= 3x on the W4A8 hot kernel.
/// Returns the process exit code.
int CheckSpeedup() {
  if (!GemmProviderAvailable(GemmProvider::kAvx2)) {
    std::printf(
        "check-speedup: AVX2 provider unavailable on this machine/build; "
        "skipping (ok)\n");
    return 0;
  }
  const Problem p = Make(kM, kN, kK);
  const LqqWeights w = QuantizeWeightsLqq(p.w);
  constexpr int kReps = 30;
  const double ref_ms = BestOfMs(p, w, GemmProvider::kReference, kReps);
  const double avx2_ms = BestOfMs(p, w, GemmProvider::kAvx2, kReps);
  const double speedup = ref_ms / avx2_ms;
  std::printf(
      "check-speedup: BM_GemmW4A8Liquid %zux%zux%zu  reference=%.3fms  "
      "avx2[%s]=%.3fms  speedup=%.2fx (gate: >= 3x)\n",
      kM, kN, kK, ref_ms, detail::W4A8DotName(detail::ActiveW4A8Dot()),
      avx2_ms, speedup);
  if (speedup < 3.0) {
    std::printf("check-speedup: FAIL — AVX2 below the 3x gate\n");
    return 1;
  }
  std::printf("check-speedup: OK\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check-speedup") == 0) {
      return CheckSpeedup();
    }
  }
  RegisterPerProviderBenchmarks();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  WarmUp(0.3);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
