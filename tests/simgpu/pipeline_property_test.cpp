// Property sweeps over the pipeline simulations: invariants that must hold
// for every pipeline kind across the whole (t_load, t_dequant, t_mma) regime
// grid — conservation, monotonicity, and lower bounds.

#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "simgpu/block_pipeline.hpp"

namespace liquid::simgpu {
namespace {

struct Regime {
  double t_load;
  double t_dq;
  double t_mma;
};

struct PipelineCase {
  PipelineKind kind;
  Regime regime;
};

/// Names each case by its pipeline and regime, so the test ids ctest
/// discovers are readable and stable (gtest would otherwise print the raw
/// struct bytes, padding included).
void PrintTo(const PipelineCase& c, std::ostream* os) {
  const char* kind = "ImFP";
  switch (c.kind) {
    case PipelineKind::kSymmetric: kind = "Symmetric"; break;
    case PipelineKind::kSerial: kind = "Serial"; break;
    case PipelineKind::kExCP: kind = "ExCP"; break;
    case PipelineKind::kImFP: break;
  }
  *os << kind << " load=" << c.regime.t_load << " dq=" << c.regime.t_dq
      << " mma=" << c.regime.t_mma;
}

class PipelinePropertyTest : public ::testing::TestWithParam<PipelineCase> {};

BlockPipelineInput MakeInput(const PipelineCase& c, int k = 32) {
  BlockPipelineInput in;
  in.pipeline = c.kind;
  in.k_iters = k;
  in.t_load = c.regime.t_load;
  in.t_dequant = c.regime.t_dq;
  in.t_mma = c.regime.t_mma;
  in.t_smem_roundtrip = c.kind == PipelineKind::kExCP ? 0.1 : 0.0;
  in.t_sync = c.kind == PipelineKind::kExCP ? 0.05 : 0.0;
  return in;
}

TEST_P(PipelinePropertyTest, TotalAtLeastEveryStageSum) {
  // No pipeline can finish before any single hardware unit's total work.
  const auto in = MakeInput(GetParam());
  const BlockPipelineResult r = SimulateBlockPipeline(in);
  const double k = in.k_iters;
  EXPECT_GE(r.total * 1.0000001, k * in.t_load);
  EXPECT_GE(r.total * 1.0000001, k * in.t_mma);
  if (in.pipeline != PipelineKind::kSymmetric) {
    EXPECT_GE(r.total * 1.0000001, k * in.t_dequant);
  }
}

TEST_P(PipelinePropertyTest, BusyTimeConservation) {
  const auto in = MakeInput(GetParam());
  const BlockPipelineResult r = SimulateBlockPipeline(in);
  const double k = in.k_iters;
  EXPECT_NEAR(r.load_busy, k * in.t_load, 1e-12);
  EXPECT_NEAR(r.mma_busy, k * in.t_mma, 1e-12);
}

TEST_P(PipelinePropertyTest, MonotoneInIterations) {
  auto in = MakeInput(GetParam(), 8);
  const double t8 = SimulateBlockPipeline(in).total;
  in.k_iters = 16;
  const double t16 = SimulateBlockPipeline(in).total;
  in.k_iters = 64;
  const double t64 = SimulateBlockPipeline(in).total;
  EXPECT_GT(t16, t8);
  EXPECT_GT(t64, t16);
  // Steady state: the per-iteration increment beyond the fill is constant.
  const double per_iter_a = (t16 - t8) / 8.0;
  const double per_iter_b = (t64 - t16) / 48.0;
  EXPECT_NEAR(per_iter_a, per_iter_b, per_iter_a * 0.25 + 1e-12);
}

TEST_P(PipelinePropertyTest, MonotoneInStageDurations) {
  const auto base_case = GetParam();
  const double base = SimulateBlockPipeline(MakeInput(base_case)).total;
  for (const int which : {0, 1, 2}) {
    PipelineCase heavier = base_case;
    if (which == 0) heavier.regime.t_load *= 1.5;
    if (which == 1) heavier.regime.t_dq *= 1.5;
    if (which == 2) heavier.regime.t_mma *= 1.5;
    const double t = SimulateBlockPipeline(MakeInput(heavier)).total;
    EXPECT_GE(t * 1.0000001, base) << "stage " << which;
  }
}

TEST_P(PipelinePropertyTest, DeterministicReplay) {
  const auto in = MakeInput(GetParam());
  const double a = SimulateBlockPipeline(in).total;
  const double b = SimulateBlockPipeline(in).total;
  EXPECT_EQ(a, b);
}

const Regime kRegimes[] = {
    {2.0, 0.2, 0.5},   // memory-bound
    {0.2, 2.0, 0.5},   // dequant-bound
    {0.2, 0.2, 2.0},   // tensor-core-bound
    {1.0, 1.0, 1.0},   // balanced
    {1.0, 0.0, 1.0},   // no dequant work
};

std::vector<PipelineCase> AllCases() {
  std::vector<PipelineCase> cases;
  for (const auto kind :
       {PipelineKind::kSymmetric, PipelineKind::kSerial, PipelineKind::kExCP,
        PipelineKind::kImFP}) {
    for (const auto& regime : kRegimes) {
      cases.push_back({kind, regime});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Grid, PipelinePropertyTest,
                         ::testing::ValuesIn(AllCases()));

TEST(PipelineCaseTest, PrintsKindAndRegimeNotRawBytes) {
  const std::string printed = ::testing::PrintToString(AllCases().back());
  EXPECT_EQ(printed.find("-byte object"), std::string::npos) << printed;
  EXPECT_EQ(printed, "ImFP load=1 dq=0 mma=1");
}

}  // namespace
}  // namespace liquid::simgpu
