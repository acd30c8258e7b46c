// MetricsRegistry and fixed-bucket Histogram behavior: registration/sampling
// semantics, export formats, and — the accuracy contract — the histogram's
// interpolated percentile landing within one bucket width of the exact
// util/stats Percentile on shared inputs.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace liquid::obs {
namespace {

TEST(HistogramTest, EmptyIsZero) {
  Histogram h(LatencyBuckets());
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(50), 0.0);
  EXPECT_EQ(h.Percentile(99), 0.0);
}

TEST(HistogramTest, SingleValueEveryPercentile) {
  Histogram h({1.0, 2.0, 4.0});
  h.Add(1.5);
  for (const double p : {0.0, 50.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(h.Percentile(p), 1.5) << "p=" << p;
  }
}

TEST(HistogramTest, OverflowBucketClampsToObservedMax) {
  Histogram h({1.0, 2.0});
  h.Add(10.0);  // beyond the last bound: overflow bucket
  h.Add(50.0);
  EXPECT_EQ(h.buckets().back(), 2u);
  EXPECT_LE(h.Percentile(99), h.max());
  EXPECT_GE(h.Percentile(1), h.min());
}

// The contract the fleet TTFT/TPOT histograms rely on: against the exact
// (sorted-sample) percentile, the bucketed estimate errs by at most the
// width of the containing bucket.
TEST(HistogramTest, PercentileWithinOneBucketWidthOfExact) {
  const std::vector<double> bounds = LatencyBuckets();
  Histogram h(bounds);
  Rng rng(77);
  std::vector<double> values;
  for (int i = 0; i < 5000; ++i) {
    // Latency-shaped: heavy close to 10ms, a long tail into seconds.
    const double v = 0.010 * (1.0 + 40.0 * rng.NextDouble() * rng.NextDouble() *
                                        rng.NextDouble());
    values.push_back(v);
    h.Add(v);
  }
  for (const double p : {50.0, 90.0, 95.0, 99.0}) {
    const double exact = liquid::Percentile(values, p);
    const double est = h.Percentile(p);
    // Bucket width at the exact value's position.
    double lo = 0, hi = bounds.back();
    for (const double b : bounds) {
      if (b >= exact) {
        hi = b;
        break;
      }
      lo = b;
    }
    EXPECT_NEAR(est, exact, hi - lo) << "p=" << p;
  }
}

TEST(MetricsRegistryTest, SampleSnapshotsEverySeries) {
  MetricsRegistry reg;
  const std::size_t gauge = reg.Register("queue", MetricsRegistry::Kind::kGauge);
  const std::size_t counter =
      reg.Register("done", MetricsRegistry::Kind::kCounter);
  reg.Set(gauge, 3.0);
  reg.Add(counter);
  reg.Sample(1.0);
  reg.Set(gauge, 1.0);
  reg.Add(counter, 4.0);
  reg.Sample(2.5);
  EXPECT_EQ(reg.rows(), 2u);
  EXPECT_EQ(reg.series(), 2u);
  EXPECT_DOUBLE_EQ(reg.Value(gauge), 1.0);
  EXPECT_DOUBLE_EQ(reg.Value(counter), 5.0);
}

TEST(MetricsRegistryTest, JsonlRowsAreValidJson) {
  MetricsRegistry reg;
  const std::size_t g = reg.Register("g", MetricsRegistry::Kind::kGauge);
  Histogram& h = reg.RegisterHistogram("lat", {0.5, 1.0});
  h.Add(0.25);
  reg.Set(g, 7.5);
  reg.Sample(0.125);
  const std::string jsonl = reg.ToJsonl();
  std::istringstream lines(jsonl);
  std::string line;
  std::size_t n = 0;
  while (std::getline(lines, line)) {
    EXPECT_TRUE(JsonSyntaxValid(line)) << line;
    ++n;
  }
  EXPECT_EQ(n, 2u);  // one sample row + one histogram summary line
  EXPECT_NE(jsonl.find("\"g\""), std::string::npos);
  EXPECT_NE(jsonl.find("lat"), std::string::npos);
}

TEST(MetricsRegistryTest, CsvHeaderMatchesSeriesOrder) {
  MetricsRegistry reg;
  const std::size_t a = reg.Register("alpha", MetricsRegistry::Kind::kGauge);
  const std::size_t b = reg.Register("beta", MetricsRegistry::Kind::kCounter);
  reg.Set(a, 1.0);
  reg.Set(b, 2.0);
  reg.Sample(3.0);
  const std::string csv = reg.ToCsv();
  EXPECT_EQ(csv.substr(0, csv.find('\n')), "t,alpha,beta");
  EXPECT_NE(csv.find("3,1,2"), std::string::npos);
}

TEST(MetricsRegistryTest, HistogramReferencesStayStableAcrossGrowth) {
  MetricsRegistry reg;
  Histogram& first = reg.RegisterHistogram("first", {1.0});
  first.Add(0.5);
  for (int i = 0; i < 32; ++i) {
    // Appended rather than "h" + to_string(i): gcc 12 flags that operator+
    // temporary with a false-positive -Wrestrict in Release builds.
    std::string name = "h";
    name += std::to_string(i);
    reg.RegisterHistogram(name, {1.0});
  }
  first.Add(0.5);  // would crash/corrupt if the reference moved
  EXPECT_EQ(first.count(), 2u);
}

}  // namespace
}  // namespace liquid::obs
