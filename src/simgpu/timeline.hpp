#pragma once
// Deterministic discrete-event timeline used by the pipeline simulations.
//
// Each hardware unit a thread block time-shares (TMA channel, CUDA-core pipe,
// tensor-core pipe, SMEM write port, each compute warp group) is a Track: a
// single-server FIFO resource that remembers when it next becomes free and
// logs every busy interval.  Pipeline simulations advance by claiming tracks
// in causal order; co-allocation (an operation that needs several units at
// once, e.g. a dequant burst needs both its warp group and the CUDA pipe)
// starts at the max of all ready times.
//
// Events are the start/end points of claimed intervals; because every claim
// is issued in non-decreasing dependency order, the resulting schedule equals
// the one a callback-driven event queue would produce, with far less
// machinery and perfectly reproducible results.

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

namespace liquid::simgpu {

struct Interval {
  double start = 0;
  double end = 0;
  [[nodiscard]] double duration() const { return end - start; }
};

class Track {
 public:
  explicit Track(std::string name, bool record = false)
      : name_(std::move(name)), record_(record) {}

  /// Claims the track for `duration` seconds, starting no earlier than
  /// `ready`; returns the actual [start, end] interval.
  Interval Claim(double ready, double duration) {
    Interval iv;
    iv.start = std::max(ready, free_at_);
    iv.end = iv.start + duration;
    free_at_ = iv.end;
    busy_ += duration;
    if (record_ && duration > 0) log_.push_back(iv);
    return iv;
  }

  [[nodiscard]] double free_at() const { return free_at_; }
  [[nodiscard]] double busy_time() const { return busy_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::vector<Interval>& log() const { return log_; }

  void Reset() {
    free_at_ = 0;
    busy_ = 0;
    log_.clear();
  }

 private:
  std::string name_;
  bool record_;
  double free_at_ = 0;
  double busy_ = 0;
  std::vector<Interval> log_;
};

/// Utilization of a track over a window: busy_time / window.
inline double Utilization(const Track& t, double window) {
  return window > 0 ? t.busy_time() / window : 0.0;
}

}  // namespace liquid::simgpu
