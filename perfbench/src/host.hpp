#pragma once
// Host fingerprint and the int8 dot-product peak probe.  Everything comes
// from CPUID and from timing register-resident loops — no files are read.

#include <string>

namespace perfbench {

struct HostInfo {
  unsigned cores = 0;        ///< hardware threads
  int omp_threads = 0;       ///< OpenMP threads the GEMM kernels use
  double l3_mib = 0;         ///< CPUID leaf 4, level-3 data/unified cache
  bool avx2 = false;
  bool avx_vnni = false;     ///< VEX-encoded vpdpbusd (ymm)
  bool avx512_vnni = false;  ///< EVEX vpdpbusd (zmm)
  bool amx_int8 = false;     ///< reported only; the probe does not use tiles
  std::string cpu;           ///< CPUID brand string
  std::string compiler;
  std::string gemm_provider; ///< what GemmProvider::kAuto resolves to

  [[nodiscard]] int IsaBits() const {
    return (avx2 ? 1 : 0) | (avx_vnni ? 2 : 0) | (avx512_vnni ? 4 : 0) |
           (amx_int8 ? 8 : 0);
  }
  [[nodiscard]] std::string Json() const;
};

[[nodiscard]] HostInfo ProbeHost();

/// Measured int8 MAC peak (u8 x s8 -> s32 dot products) over all OpenMP
/// threads, using the widest of AVX512-VNNI, AVX-VNNI or AVX2
/// (vpmaddubsw + vpmaddwd) the CPU has: the best of 7 all-thread trials
/// (~40 ms each) after a second of warm-up trials.
/// `isa` receives the instruction set used.
[[nodiscard]] double Int8PeakGmacPerSecond(std::string* isa);

}  // namespace perfbench
