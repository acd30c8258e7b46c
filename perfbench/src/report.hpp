#pragma once
// Metric catalog, sample statistics and the one-line JSON result of a
// benchmark run.
//
// Every metric the benchmark can emit is declared once in `Catalog()` with
// its unit and whether it is end-to-end (reported by untraced runs) or
// per-layer (reported by the traced run).  A run fills a `Report`; `ToJson`
// then emits exactly the catalog's metrics of the run's kind and fails loudly
// if a workload forgot one, so the printed set always matches BENCHMARK.json.

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

enum class MetricKind { kEndToEnd, kPerLayer };

struct MetricSpec {
  const char* name;
  const char* unit;
  MetricKind kind;
  bool higher_is_better;
  const char* what;  ///< one-line definition, printed by --list-metrics
};

/// Every metric, end-to-end first, in emission order.
[[nodiscard]] std::span<const MetricSpec> Catalog();

/// Names may use only [A-Za-z0-9_.-], start with a letter or digit, and be at
/// most 64 characters; units only [A-Za-z0-9_/%.-], at most 16 characters.
[[nodiscard]] bool ValidMetricName(std::string_view name);
[[nodiscard]] bool ValidUnit(std::string_view unit);

/// The catalog as a JSON object {"end_to_end": [...], "per_layer": [...]}.
[[nodiscard]] std::string CatalogJson();

// ------------------------------------------------------------- statistics ---

[[nodiscard]] double Median(std::vector<double> values);

/// The tail the benchmark reports: the highest percentile p (integer, or
/// 99.9 / 99.99 when the sample is large enough) that still leaves at least
/// `min_beyond` samples strictly above its rank, i.e. p such that
/// n * (1 - p/100) >= min_beyond.  `value` is the nearest-rank sample at p.
/// With fewer than min_beyond + 1 samples there is no such tail: p = 0 and
/// value = the maximum.
struct Tail {
  double percentile = 0;
  double value = 0;
  std::size_t samples = 0;
};
[[nodiscard]] Tail TailOf(std::vector<double> values,
                          std::size_t min_beyond = 10);

// ----------------------------------------------------------------- report ---

class Report {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }
  [[nodiscard]] bool Has(const std::string& name) const {
    return values_.contains(name);
  }

  /// Records an operation and whether it passed its output checks.
  void CountOp(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  /// A check outside any single operation (reference parity, digest match).
  void Fail(const std::string& why);
  [[nodiscard]] bool correct() const { return failed_ == 0 && errors_.empty(); }
  [[nodiscard]] const std::vector<std::string>& errors() const {
    return errors_;
  }

  /// The result line: {"correct", "attempted", "failed", "metrics"} with
  /// every catalog metric of `kind`.  Appends an error (and reports
  /// correct=false) when one is missing.
  [[nodiscard]] std::string ToJson(MetricKind kind);

  /// "name value unit" lines for the metrics of `kind`, for humans.
  [[nodiscard]] std::string Table(MetricKind kind) const;

 private:
  std::map<std::string, double> values_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> errors_;
};

/// Peak resident set size of this process so far, in MiB.
[[nodiscard]] double PeakRssMb();

}  // namespace perfbench
