#include "util/sliding_window.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace liquid {
namespace {

TEST(SlidingWindowTest, EmptyWindowReportsZero) {
  SlidingWindowStats w(10.0);
  EXPECT_EQ(w.Count(100.0), 0u);
  EXPECT_DOUBLE_EQ(w.Percentile(100.0, 99), 0.0);
  EXPECT_DOUBLE_EQ(w.Mean(100.0), 0.0);
}

TEST(SlidingWindowTest, EvictsSamplesOlderThanWindow) {
  SlidingWindowStats w(5.0);
  w.Add(0.0, 1.0);
  w.Add(2.0, 2.0);
  w.Add(4.0, 3.0);
  EXPECT_EQ(w.Count(4.0), 3u);
  // At t=6 the sample from t=0 has aged out.
  EXPECT_EQ(w.Count(6.0), 2u);
  EXPECT_DOUBLE_EQ(w.Mean(6.0), 2.5);
  // At t=20 everything is gone.
  EXPECT_EQ(w.Count(20.0), 0u);
}

TEST(SlidingWindowTest, PercentileOverLiveSamples) {
  SlidingWindowStats w(100.0);
  for (int i = 1; i <= 100; ++i) w.Add(static_cast<double>(i), i);
  EXPECT_NEAR(w.Percentile(100.0, 50), 50.5, 1.0);
  EXPECT_NEAR(w.Percentile(100.0, 99), 99.0, 1.0);
  EXPECT_DOUBLE_EQ(w.Percentile(100.0, 100), 100.0);
}

TEST(SlidingWindowTest, ToleratesOutOfOrderTimestamps) {
  // Fleet completions interleave across replica clocks; eviction must still
  // be strictly time-ordered.
  SlidingWindowStats w(5.0);
  w.Add(10.0, 1.0);
  w.Add(8.0, 2.0);   // late arrival from a slower replica
  w.Add(11.0, 3.0);
  w.Add(9.5, 4.0);
  EXPECT_EQ(w.Count(11.0), 4u);
  // At t=14 the window is (9, 14]: samples at 8 are evicted (and only they).
  EXPECT_EQ(w.Count(14.0), 3u);
  EXPECT_DOUBLE_EQ(w.Mean(14.0), (1.0 + 3.0 + 4.0) / 3.0);
}

TEST(SlidingWindowTest, WindowBoundaryIsInclusive) {
  SlidingWindowStats w(5.0);
  w.Add(5.0, 7.0);
  // now - window == t exactly: the sample is still live.
  EXPECT_EQ(w.Count(10.0), 1u);
  EXPECT_DOUBLE_EQ(w.Percentile(10.0, 50), 7.0);
}

TEST(SlidingWindowTest, KeptOrderMatchesFreshSort) {
  // Once queried, the window keeps its values sorted across adds (some out
  // of order) and evictions; every answer must equal a fresh sort of the
  // same live samples, which a never-queried copy of a twin computes.
  SlidingWindowStats kept(5.0);
  SlidingWindowStats twin(5.0);
  Rng rng(11);
  double t = 0;
  for (int i = 0; i < 600; ++i) {
    t += rng.Uniform(0.0, 0.2);
    const double at = t - rng.Uniform(0.0, 0.5);
    const double value = 0.5 * static_cast<double>(rng.Below(20));
    kept.Add(at, value);
    twin.Add(at, value);
    if (i < 50 || i % 7 != 3) continue;
    const double now = t + rng.Uniform(0.0, 1.0);
    ASSERT_EQ(kept.Count(now), twin.Count(now));
    for (const double p : {0.0, 50.0, 99.0, 100.0}) {
      SlidingWindowStats fresh = twin;
      EXPECT_EQ(kept.Percentile(now, p), fresh.Percentile(now, p))
          << "i=" << i << " p=" << p;
    }
  }
}

}  // namespace
}  // namespace liquid
