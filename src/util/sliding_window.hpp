#pragma once
// Time-windowed sample buffer for latency-aware control loops (autoscaling on
// p99 TTFT, SLO dashboards).  Samples are (timestamp, value) pairs; queries
// evict everything older than `now - window` and summarize what remains.
//
// Samples may arrive slightly out of order (a fleet pulls completions from
// replicas whose discrete-event clocks interleave), so Add keeps the buffer
// sorted by timestamp with an insertion that is O(1) for the common
// already-ordered case.

#include <algorithm>
#include <cstddef>
#include <deque>
#include <vector>

#include "util/stats.hpp"

namespace liquid {

class SlidingWindowStats {
 public:
  explicit SlidingWindowStats(double window_seconds = 10.0)
      : window_(window_seconds) {}

  /// Records `value` observed at time `t` (seconds on the caller's clock).
  /// Also evicts samples the new latest timestamp has aged out, so memory
  /// stays bounded by the window even if the owner never queries.
  void Add(double t, double value) {
    const Sample s{t, value};
    if (samples_.empty() || t >= samples_.back().t) {
      samples_.push_back(s);
    } else {
      const auto at = std::upper_bound(
          samples_.begin(), samples_.end(), s,
          [](const Sample& a, const Sample& b) { return a.t < b.t; });
      samples_.insert(at, s);
    }
    if (sorted_live_) {
      sorted_.insert(std::upper_bound(sorted_.begin(), sorted_.end(), value),
                     value);
    }
    Evict(samples_.back().t);
  }

  /// Samples still inside [now - window, now]; evicts older ones.
  [[nodiscard]] std::size_t Count(double now) {
    Evict(now);
    return samples_.size();
  }

  /// Linear-interpolated percentile (`p` in [0, 100]) over the live window;
  /// 0 when the window is empty.  The first call starts keeping the live
  /// values sorted, so every later call is O(1) and each Add or eviction pays
  /// one ordered insert or erase instead; a window nobody queries pays
  /// nothing.  Values must be ordered by `<` (no NaN), as for any sort.
  [[nodiscard]] double Percentile(double now, double p) {
    Evict(now);
    if (!sorted_live_) {
      for (const Sample& s : samples_) sorted_.push_back(s.value);
      std::sort(sorted_.begin(), sorted_.end());
      sorted_live_ = true;
    }
    return PercentileOfSorted(sorted_, p);
  }

  [[nodiscard]] double Mean(double now) {
    Evict(now);
    if (samples_.empty()) return 0.0;
    double sum = 0;
    for (const Sample& s : samples_) sum += s.value;
    return sum / static_cast<double>(samples_.size());
  }

  [[nodiscard]] double window_seconds() const { return window_; }

 private:
  struct Sample {
    double t = 0;
    double value = 0;
  };

  void Evict(double now) {
    const double horizon = now - window_;
    while (!samples_.empty() && samples_.front().t < horizon) {
      if (sorted_live_) {
        sorted_.erase(std::lower_bound(sorted_.begin(), sorted_.end(),
                                       samples_.front().value));
      }
      samples_.pop_front();
    }
  }

  double window_;
  std::deque<Sample> samples_;
  /// The live values in ascending order, kept once Percentile is first asked.
  bool sorted_live_ = false;
  std::vector<double> sorted_;
};

}  // namespace liquid
