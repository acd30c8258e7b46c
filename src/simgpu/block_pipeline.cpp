#include "simgpu/block_pipeline.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <vector>

namespace liquid::simgpu {
namespace {

/// Zeroed per-call scratch of `n` doubles.  Stack storage covers every
/// shipped kernel config (stage depth and compute WGs are single digits), so
/// the common call never allocates.
class Scratch {
 public:
  explicit Scratch(int n) : n_(static_cast<std::size_t>(std::max(0, n))) {
    if (n_ > kInline) heap_.assign(n_, 0.0);
  }

  double* begin() { return n_ > kInline ? heap_.data() : inline_.data(); }
  double* end() { return begin() + n_; }
  double& operator[](std::size_t i) { return begin()[i]; }

 private:
  static constexpr std::size_t kInline = 8;
  std::size_t n_;
  std::array<double, kInline> inline_{};
  std::vector<double> heap_;
};

}  // namespace

BlockPipelineResult SimulateBlockPipeline(const BlockPipelineInput& in) {
  assert(in.k_iters >= 1);
  BlockPipelineResult out;
  const bool rec = in.record_trace;

  Track tma("tma", rec);
  Track cuda("cuda", rec);
  Track tc("tc", rec);

  const int k = in.k_iters;
  // The bounded SMEM stage buffer as a ring of release times: load `i` may
  // not start until the buffer used by iteration `i - depth` is consumed.
  const int depth = in.stage_depth;
  Scratch freed(depth);
  const auto slot = [&](int i) -> double& {
    return freed[static_cast<std::size_t>(i % depth)];
  };
  const auto slot_ready = [&](int i) {
    return depth <= 0 || i < depth ? 0.0 : slot(i);
  };
  const auto release_slot = [&](int i, double t) {
    if (depth > 0) slot(i) = t;
  };
  double finish = 0.0;

  switch (in.pipeline) {
    case PipelineKind::kSymmetric: {
      for (int i = 0; i < k; ++i) {
        const Interval ld = tma.Claim(slot_ready(i), in.t_load);
        const Interval mma = tc.Claim(ld.end, in.t_mma);
        release_slot(i, mma.end);
        finish = std::max(finish, mma.end);
      }
      break;
    }
    case PipelineKind::kSerial: {
      // One compute role: dequant and MMA issue from the same warps, so the
      // two occupy the warps back to back; loads still double-buffer ahead.
      for (int i = 0; i < k; ++i) {
        const Interval ld = tma.Claim(slot_ready(i), in.t_load);
        const Interval dq = cuda.Claim(std::max(ld.end, tc.free_at()),
                                       in.t_dequant);
        const Interval mma = tc.Claim(dq.end, in.t_mma);
        release_slot(i, dq.end);
        finish = std::max(finish, mma.end);
      }
      break;
    }
    case PipelineKind::kExCP: {
      // Dedicated Dequant WG: pays the RF->SMEM->RF round trip for the INT8
      // tile plus a software barrier before the MMA WG may consume it.
      for (int i = 0; i < k; ++i) {
        const Interval ld = tma.Claim(slot_ready(i), in.t_load);
        const Interval dq =
            cuda.Claim(ld.end, in.t_dequant + in.t_smem_roundtrip);
        release_slot(i, dq.end);
        const Interval mma = tc.Claim(dq.end + in.t_sync, in.t_mma);
        finish = std::max(finish, mma.end);
      }
      break;
    }
    case PipelineKind::kImFP: {
      // Single producer, multiple consumers over fine-grained tasks.  Each
      // task: (worker + CUDA pipe) dequant burst, then async WGMMA on the
      // tensor-core pipe; the worker is free again as soon as the WGMMA is
      // issued, so dequant in one WG overlaps MMA of the other.
      const int f = std::max(1, in.fine_tasks);
      const double t_dq_task = in.t_dequant / f;
      const double t_mma_task = in.t_mma / f;
      // Only each worker's free time matters; the CUDA pipe carries the log.
      Scratch worker_free(std::max(1, in.compute_wgs));
      for (int i = 0; i < k; ++i) {
        const Interval ld = tma.Claim(slot_ready(i), in.t_load);
        double last_dq = 0.0;
        for (int t = 0; t < f; ++t) {
          // Hardware-arbitrated task fetch: the first free worker takes it.
          double& worker =
              *std::min_element(worker_free.begin(), worker_free.end());
          const Interval dq = cuda.Claim(std::max(ld.end, worker), t_dq_task);
          worker = dq.end;
          const Interval mma = tc.Claim(dq.end, t_mma_task);
          last_dq = std::max(last_dq, dq.end);
          finish = std::max(finish, mma.end);
        }
        release_slot(i, last_dq);
      }
      break;
    }
  }

  out.total = finish;
  out.load_busy = tma.busy_time();
  out.dequant_busy = cuda.busy_time();
  out.mma_busy = tc.busy_time();
  if (rec) {
    out.load_log = tma.log();
    out.dequant_log = cuda.log();
    out.mma_log = tc.log();
  }
  return out;
}

BlockPipelineResult BlockPipelineCache::Simulate(
    const BlockPipelineInput& in) {
  if (in.record_trace) return SimulateBlockPipeline(in);
  const auto word = [](int v) {
    return static_cast<std::uint64_t>(static_cast<std::int64_t>(v));
  };
  const Key key{word(static_cast<int>(in.pipeline)),
                word(in.k_iters),
                std::bit_cast<std::uint64_t>(in.t_load),
                std::bit_cast<std::uint64_t>(in.t_dequant),
                std::bit_cast<std::uint64_t>(in.t_mma),
                std::bit_cast<std::uint64_t>(in.t_smem_roundtrip),
                std::bit_cast<std::uint64_t>(in.t_sync),
                word(in.compute_wgs),
                word(in.fine_tasks),
                word(in.stage_depth)};
  {
    util::MutexLock lock(mu_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) return it->second;
  }
  // Simulate outside the lock; a racing miss on the same key computes the
  // same doubles, so whichever insert lands first is as good as the other.
  BlockPipelineResult out = SimulateBlockPipeline(in);
  util::MutexLock lock(mu_);
  entries_.try_emplace(key, out);
  return out;
}

std::size_t BlockPipelineCache::size() const {
  util::MutexLock lock(mu_);
  return entries_.size();
}

std::size_t BlockPipelineCache::KeyHash::operator()(const Key& key) const {
  // FNV-1a over the key's words.
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint64_t w : key) {
    h ^= w;
    h *= 0x100000001b3ull;
  }
  return static_cast<std::size_t>(h);
}

}  // namespace liquid::simgpu
