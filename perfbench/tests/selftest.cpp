// The benchmark's own checks: tail-percentile selection on small inputs and
// the metric catalog's naming rules.  Exit status 0 = every check passed.

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "report.hpp"

namespace {

int failures = 0;

void Check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

/// 1, 2, ..., n in shuffled order (TailOf must sort).
std::vector<double> Ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 0; i < n; ++i) v.push_back(static_cast<double>((i * 7) % n + 1));
  return v;
}

void TailSelection() {
  using perfbench::TailOf;
  // Fewer than 20 samples: not even p50 leaves 10 beyond it.
  const auto t10 = TailOf(Ramp(10));
  Check(t10.percentile == 0 && t10.value == 10 && t10.samples == 10,
        "10 samples: no tail, value = max");
  const auto t19 = TailOf(Ramp(19));
  Check(t19.percentile == 0 && t19.value == 19, "19 samples: no tail");
  // 20 samples: p50 is rank 10, exactly 10 beyond.
  const auto t20 = TailOf(Ramp(20));
  Check(t20.percentile == 50 && t20.value == 10, "20 samples: p50 = 10");
  // 40 samples: p75 is rank 30, 10 beyond; p90 (rank 36) leaves only 4.
  const auto t40 = TailOf(Ramp(40));
  Check(t40.percentile == 75 && t40.value == 30, "40 samples: p75 = 30");
  // 100 samples: p90 is rank 90, 10 beyond; p95 leaves 5.
  const auto t100 = TailOf(Ramp(100));
  Check(t100.percentile == 90 && t100.value == 90, "100 samples: p90 = 90");
  // 199 samples: p95 is rank 190 with 9 beyond, so p90 (rank 180) wins.
  const auto t199 = TailOf(Ramp(199));
  Check(t199.percentile == 90 && t199.value == 180, "199 samples: p90");
  // 1000 samples: p99 is rank 990, 10 beyond.
  const auto t1000 = TailOf(Ramp(1000));
  Check(t1000.percentile == 99 && t1000.value == 990, "1000 samples: p99");
  // 10000 samples: p99.9 is rank 9990, 10 beyond.
  const auto t10k = TailOf(Ramp(10000));
  Check(t10k.percentile == 99.9 && t10k.value == 9990, "10000 samples: p99.9");
  // The threshold is a parameter.
  const auto t5 = TailOf(Ramp(100), 5);
  Check(t5.percentile == 95 && t5.value == 95, "min_beyond 5: p95");
  Check(TailOf({}).samples == 0, "empty input");
}

void MedianOf() {
  using perfbench::Median;
  Check(Median({3, 1, 2}) == 2, "odd median");
  Check(Median({4, 1, 3, 2}) == 2.5, "even median");
  Check(Median({}) == 0, "empty median");
}

void CatalogRules() {
  std::set<std::string> seen;
  bool has_setup = false;
  std::size_t e2e = 0, layer = 0;
  for (const auto& m : perfbench::Catalog()) {
    const std::string name = m.name;
    Check(perfbench::ValidMetricName(name), "metric name charset: " + name);
    Check(perfbench::ValidUnit(m.unit), "metric unit: " + name);
    Check(seen.insert(name).second, "metric name unique: " + name);
    Check(std::string(m.what).size() > 0, "metric described: " + name);
    if (m.kind == perfbench::MetricKind::kEndToEnd) {
      ++e2e;
      Check(layer == 0, "end-to-end metrics come first: " + name);
    } else {
      ++layer;
    }
    if (name == "setup_s") {
      has_setup = std::string(m.unit) == "s" && !m.higher_is_better &&
                  m.kind == perfbench::MetricKind::kEndToEnd;
    }
  }
  Check(has_setup, "setup_s is an end-to-end metric in s, lower is better");
  Check(e2e >= 1 && e2e <= 16, "1..16 end-to-end metrics");
  Check(layer >= 1 && layer <= 128, "1..128 per-layer metrics");
  // The validators themselves.
  Check(!perfbench::ValidMetricName("bad name"), "space rejected");
  Check(!perfbench::ValidMetricName("_lead"), "leading underscore rejected");
  Check(!perfbench::ValidMetricName(std::string(65, 'a')), "65 chars rejected");
  Check(perfbench::ValidMetricName("a.b-c_9"), "allowed punctuation");
  Check(!perfbench::ValidUnit("m s"), "unit space rejected");
  Check(perfbench::ValidUnit("1/s"), "unit 1/s");
}

void JsonShape() {
  perfbench::Report report;
  report.CountOp(true);
  report.CountOp(false);
  for (const auto& m : perfbench::Catalog()) report.Set(m.name, 1.25);
  const std::string json = report.ToJson(perfbench::MetricKind::kEndToEnd);
  Check(json.rfind("{\"correct\": false, \"attempted\": 2, \"failed\": 1, ", 0) == 0,
        "result header: " + json);
  Check(json.find("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}") !=
            std::string::npos,
        "metric entry: " + json);
  perfbench::Report missing;
  (void)missing.ToJson(perfbench::MetricKind::kEndToEnd);
  Check(!missing.correct(), "a missing metric fails the run");
}

}  // namespace

int main() {
  TailSelection();
  MedianOf();
  CatalogRules();
  JsonShape();
  std::printf("perfbench selftest: %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}
