#pragma once
// Internal provider kernel tables for core/gemm — not part of the public API.
//
// Each provider implements the full kernel set behind one function-pointer
// table; the public entry points in gemm.cpp validate shapes once and then
// dispatch.  Kernels may assume shapes have been validated.

#include "core/gemm/gemm.hpp"
#include "core/gemm/provider.hpp"

namespace liquid::detail {

struct GemmKernelTable {
  MatrixF (*fp32)(const MatrixF& x, const MatrixF& w);
  MatrixF (*fp16)(const MatrixF& x, const MatrixF& w);
  MatrixF (*w8a8)(const QuantizedActivations& x, const W8A8Weights& w);
  MatrixF (*w4a16)(const MatrixF& x, const W4A16Weights& w);
  MatrixF (*w4a8_lqq)(const QuantizedActivations& x, const LqqWeights& w);
  MatrixF (*w4a8_qserve)(const QuantizedActivations& x, const QserveWeights& w);
  MatrixF (*w4a8_dual)(const QuantizedActivations& x,
                       const DualMmaPackedWeights& w);
};

const GemmKernelTable& ReferenceKernels();
const GemmKernelTable& PortableKernels();
// Defined only when the AVX2 provider is compiled in; guarded by
// GemmProviderCompiled(GemmProvider::kAvx2) at dispatch time.
const GemmKernelTable& Avx2Kernels();

/// The two builds of the AVX2 provider's W4A8 kernels.  kVnni is a register
/// tile that feeds the UINT8 dequant result straight to vpdpbusd (AVX-512
/// VNNI + BW + VL); kWiden dequantizes a panel into UINT8 rows and widens
/// both operands to int16 for madd (plain AVX2).  Avx2Kernels() picks one
/// from CPUID on every W4A8 call; Avx2KernelsWith() pins one, so tests and
/// benchmarks can run each variant on any host that supports it.
enum class W4A8Dot { kWiden, kVnni };

constexpr const char* W4A8DotName(W4A8Dot dot) {
  return dot == W4A8Dot::kVnni ? "vnni" : "widen";
}

/// True when the AVX2 provider is available and, for kVnni, CPUID also
/// reports avx512vnni, avx512bw and avx512vl.
bool W4A8DotAvailable(W4A8Dot dot);

/// The variant Avx2Kernels() runs on this CPU.
W4A8Dot ActiveW4A8Dot();

/// Avx2Kernels() with the W4A8 entries pinned to `dot`.  Throws
/// std::invalid_argument unless W4A8DotAvailable(dot).
const GemmKernelTable& Avx2KernelsWith(W4A8Dot dot);

/// Resolves a (possibly kAuto) provider to a concrete kernel table. Throws
/// std::invalid_argument for providers that are not available on this machine.
const GemmKernelTable& Kernels(GemmProvider p);

/// Rounds every element of `m` through binary16 into a fresh matrix — shared
/// by the portable/AVX2 fp16 and W4A16 kernels, which hoist the soft-float
/// conversion out of the O(M·N·K) loop.
MatrixF RoundMatrixToHalf(const MatrixF& m);

}  // namespace liquid::detail
