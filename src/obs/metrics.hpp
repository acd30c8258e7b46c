#pragma once
// Fleet metrics: named counters/gauges sampled into a dense time series, plus
// fixed-bucket histograms — trajectories instead of end-of-run aggregates.
//
// The registry is sample-driven, not clock-driven: the owner calls Sample(t)
// at instants the simulation ALREADY visits (the autoscale event-pump tick,
// arrivals, scale/kill events), so attaching metrics never adds clock-sync
// points that would perturb the simulated behavior.  Each Sample snapshots
// every registered series into one row; export renders rows as JSONL (one
// object per line, histograms summarized on trailing lines) or CSV.
//
// Values are doubles on the simulated clock, so with a fixed seed the
// exported bytes are deterministic (golden-pinned alongside the trace).
//
// Thread-safety contract: a MetricsRegistry has no internal locking; all
// Register/Set/Add/Sample/export calls must come from one thread at a time.
// The cluster simulator's serial event loop is its only writer.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace liquid::obs {

/// Fixed-bucket histogram: `upper_bounds` are the inclusive bucket ceilings
/// (sorted ascending); values above the last bound land in an implicit
/// overflow bucket.  Percentile() interpolates within the containing bucket,
/// tightened by the observed min/max, so its error is bounded by the bucket
/// width (tested against util/stats Percentile on shared inputs).
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void Add(double value);
  [[nodiscard]] std::size_t count() const { return count_; }
  /// Interpolated percentile, `p` in [0, 100]; 0 when empty.
  [[nodiscard]] double Percentile(double p) const;
  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  [[nodiscard]] const std::vector<std::size_t>& buckets() const {
    return counts_;
  }
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }

 private:
  std::vector<double> bounds_;
  std::vector<std::size_t> counts_;  ///< bounds_.size() + 1 (overflow last)
  std::size_t count_ = 0;
  double min_ = 0;
  double max_ = 0;
};

/// Log-spaced latency bucket ceilings (1 ms .. 50 s) shared by the TTFT and
/// TPOT fleet histograms.
[[nodiscard]] std::vector<double> LatencyBuckets();

class MetricsRegistry {
 public:
  enum class Kind : std::uint8_t {
    kCounter,  ///< monotone cumulative value (completions, rejects)
    kGauge,    ///< instantaneous reading (queue depth, $/hour burn)
  };

  /// Registers a series and returns its handle.  Register everything before
  /// the first Sample: the row schema is fixed at that point.
  std::size_t Register(std::string name, Kind kind);
  /// Registers a histogram (summarized at export, not sampled per row).
  Histogram& RegisterHistogram(std::string name, std::vector<double> bounds);

  void Set(std::size_t handle, double value) { values_[handle] = value; }
  void Add(std::size_t handle, double delta = 1.0) {
    values_[handle] += delta;
  }
  [[nodiscard]] double Value(std::size_t handle) const {
    return values_[handle];
  }

  /// Snapshots every series at simulated time `t` into one row.
  void Sample(double t);

  [[nodiscard]] std::size_t rows() const { return rows_.size(); }
  [[nodiscard]] std::size_t series() const { return names_.size(); }

  /// One JSON object per row ({"t": ..., "<series>": ...}), then one
  /// {"histogram": ...} summary line per registered histogram.
  [[nodiscard]] std::string ToJsonl() const;
  /// Header row (`t,<series>...`) then one line per sample; histograms are
  /// JSONL-only.
  [[nodiscard]] std::string ToCsv() const;
  bool WriteJsonl(const std::string& path) const;
  bool WriteCsv(const std::string& path) const;

 private:
  struct Row {
    double t = 0;
    std::vector<double> values;
  };
  struct NamedHistogram {
    std::string name;
    Histogram histogram;
  };

  std::vector<std::string> names_;
  std::vector<Kind> kinds_;
  std::vector<double> values_;
  std::vector<Row> rows_;
  /// Deque: RegisterHistogram hands out stable references across growth.
  std::deque<NamedHistogram> histograms_;
};

}  // namespace liquid::obs
