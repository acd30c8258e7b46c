#include "host.hpp"

#include <cpuid.h>
#include <immintrin.h>
#include <omp.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "core/gemm/provider.hpp"
#include "report.hpp"
#include "util/wall_timer.hpp"

namespace perfbench {
namespace {

std::string BrandString() {
  unsigned regs[12] = {};
  for (unsigned leaf = 0; leaf < 3; ++leaf) {
    if (__get_cpuid(0x80000002u + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1],
                    &regs[leaf * 4 + 2], &regs[leaf * 4 + 3]) == 0) {
      return "unknown";
    }
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  s.erase(0, s.find_first_not_of(' '));
  return s;
}

/// Sum of every level-3 cache CPUID leaf 4 enumerates, in MiB.
double L3Mib() {
  double bytes = 0;
  for (unsigned sub = 0; sub < 16; ++sub) {
    unsigned a = 0, b = 0, c = 0, d = 0;
    if (__get_cpuid_count(4, sub, &a, &b, &c, &d) == 0) break;
    const unsigned type = a & 0x1f;
    if (type == 0) break;
    if (((a >> 5) & 0x7) != 3) continue;
    const double ways = ((b >> 22) & 0x3ff) + 1;
    const double partitions = ((b >> 12) & 0x3ff) + 1;
    const double line = (b & 0xfff) + 1;
    const double sets = static_cast<double>(c) + 1;
    bytes += ways * partitions * line * sets;
  }
  return bytes / (1024.0 * 1024.0);
}

bool AmxInt8() {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (__get_cpuid_count(7, 0, &a, &b, &c, &d) == 0) return false;
  return ((d >> 25) & 1u) != 0;
}

// Each loop keeps 12 independent accumulator chains so throughput, not
// instruction latency, bounds it.  The empty asm stops the compiler from
// hoisting or folding the loop-invariant operands.

__attribute__((target("avx512f,avx512vnni"))) std::int64_t
DotLoopAvx512Vnni(std::int64_t iters, int seed) {
  __m512i a = _mm512_set1_epi8(static_cast<char>(seed | 1));
  const __m512i b = _mm512_set1_epi8(static_cast<char>(seed + 3));
  __m512i acc[12];
  for (auto& x : acc) x = _mm512_setzero_si512();
  for (std::int64_t i = 0; i < iters; ++i) {
    asm volatile("" : "+v"(a));
    for (auto& x : acc) x = _mm512_dpbusd_epi32(x, a, b);
  }
  __m512i sum = acc[0];
  for (int k = 1; k < 12; ++k) sum = _mm512_add_epi32(sum, acc[k]);
  alignas(64) std::int32_t lanes[16];
  _mm512_store_si512(lanes, sum);
  std::int64_t total = 0;
  for (const std::int32_t v : lanes) total += v;
  return total;
}

__attribute__((target("avx2,avxvnni"))) std::int64_t DotLoopAvxVnni(
    std::int64_t iters, int seed) {
  __m256i a = _mm256_set1_epi8(static_cast<char>(seed | 1));
  const __m256i b = _mm256_set1_epi8(static_cast<char>(seed + 3));
  __m256i acc[12];
  for (auto& x : acc) x = _mm256_setzero_si256();
  for (std::int64_t i = 0; i < iters; ++i) {
    asm volatile("" : "+x"(a));
    for (auto& x : acc) x = _mm256_dpbusd_avx_epi32(x, a, b);
  }
  __m256i sum = acc[0];
  for (int k = 1; k < 12; ++k) sum = _mm256_add_epi32(sum, acc[k]);
  alignas(32) std::int32_t lanes[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), sum);
  std::int64_t total = 0;
  for (const std::int32_t v : lanes) total += v;
  return total;
}

__attribute__((target("avx2"))) std::int64_t DotLoopAvx2(std::int64_t iters,
                                                         int seed) {
  // vpmaddubsw (u8 x s8 pairs -> s16) then vpmaddwd by ones (-> s32): the
  // AVX2 int8 dot.  Small operands keep the s16 stage from saturating.
  __m256i a = _mm256_set1_epi8(static_cast<char>((seed & 7) | 1));
  const __m256i b = _mm256_set1_epi8(static_cast<char>((seed & 3) + 1));
  const __m256i ones = _mm256_set1_epi16(1);
  __m256i acc[12];
  for (auto& x : acc) x = _mm256_setzero_si256();
  for (std::int64_t i = 0; i < iters; ++i) {
    asm volatile("" : "+x"(a));
    for (auto& x : acc) {
      x = _mm256_add_epi32(
          x, _mm256_madd_epi16(_mm256_maddubs_epi16(a, b), ones));
    }
  }
  __m256i sum = acc[0];
  for (int k = 1; k < 12; ++k) sum = _mm256_add_epi32(sum, acc[k]);
  alignas(32) std::int32_t lanes[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), sum);
  std::int64_t total = 0;
  for (const std::int32_t v : lanes) total += v;
  return total;
}

}  // namespace

std::string HostInfo::Json() const {
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "{\"cpu\": \"%s\", \"cores\": %u, \"omp_threads\": %d, \"l3_mib\": %.1f, "
      "\"avx2\": %s, \"avx_vnni\": %s, \"avx512_vnni\": %s, \"amx_int8\": %s, "
      "\"compiler\": \"%s\", \"gemm_provider\": \"%s\"}",
      cpu.c_str(), cores, omp_threads, l3_mib, avx2 ? "true" : "false",
      avx_vnni ? "true" : "false", avx512_vnni ? "true" : "false",
      amx_int8 ? "true" : "false", compiler.c_str(), gemm_provider.c_str());
  return buf;
}

HostInfo ProbeHost() {
  __builtin_cpu_init();
  HostInfo h;
  h.cores = std::thread::hardware_concurrency();
  h.omp_threads = omp_get_max_threads();
  h.l3_mib = L3Mib();
  h.avx2 = __builtin_cpu_supports("avx2") != 0;
  h.avx_vnni = __builtin_cpu_supports("avxvnni") != 0;
  h.avx512_vnni = __builtin_cpu_supports("avx512vnni") != 0;
  h.amx_int8 = AmxInt8();
  h.cpu = BrandString();
#if defined(__clang__)
  h.compiler = "clang " __clang_version__;
#else
  h.compiler = "gcc " __VERSION__;
#endif
  h.gemm_provider =
      liquid::GemmProviderName(liquid::ActiveGemmProvider());
  return h;
}

double Int8PeakGmacPerSecond(std::string* isa) {
  __builtin_cpu_init();
  std::int64_t (*loop)(std::int64_t, int) = nullptr;
  double macs_per_iter = 0;
  if (__builtin_cpu_supports("avx512vnni")) {
    loop = DotLoopAvx512Vnni;
    macs_per_iter = 12 * 64;
    *isa = "avx512_vnni";
  } else if (__builtin_cpu_supports("avxvnni")) {
    loop = DotLoopAvxVnni;
    macs_per_iter = 12 * 32;
    *isa = "avx_vnni";
  } else if (__builtin_cpu_supports("avx2")) {
    loop = DotLoopAvx2;
    macs_per_iter = 12 * 32;
    *isa = "avx2";
  } else {
    *isa = "none";
    return 0;
  }
  const int threads = omp_get_max_threads();
  volatile std::int64_t sink = 0;
  const auto trial = [&](std::int64_t iters, int n) {
    liquid::WallTimer timer;
    std::int64_t total = 0;
#pragma omp parallel num_threads(n) reduction(+ : total)
    total += loop(iters, omp_get_thread_num() + 1);
    sink = sink + total;
    return timer.Seconds();
  };
  // Size a trial to ~40 ms on one thread, where no stall can hide the rate.
  std::int64_t iters = 1 << 14;
  while (trial(iters, 1) < 0.04 && iters < (std::int64_t{1} << 34)) iters *= 2;
  // Idle cores of a virtual machine can take most of a second of sustained
  // load before they run at full rate, so all-thread trials repeat for a
  // second before the 7 measured ones.  A peak is the best trial.
  liquid::WallTimer warm;
  while (warm.Seconds() < 1.0) (void)trial(iters, threads);
  double best = 0;
  for (int t = 0; t < 7; ++t) {
    best = std::max(best, macs_per_iter * static_cast<double>(iters) *
                              threads / trial(iters, threads) / 1e9);
  }
  return best;
}

}  // namespace perfbench
