#include "simgpu/timeline.hpp"

#include <gtest/gtest.h>

namespace liquid::simgpu {
namespace {

TEST(TimelineTest, ClaimSerializes) {
  Track t("t");
  const Interval a = t.Claim(0.0, 2.0);
  EXPECT_EQ(a.start, 0.0);
  EXPECT_EQ(a.end, 2.0);
  // A request ready at time 1 must wait until 2.
  const Interval b = t.Claim(1.0, 3.0);
  EXPECT_EQ(b.start, 2.0);
  EXPECT_EQ(b.end, 5.0);
  EXPECT_EQ(t.busy_time(), 5.0);
}

TEST(TimelineTest, IdleGapsDoNotCountAsBusy) {
  Track t("t");
  (void)t.Claim(0.0, 1.0);
  const Interval b = t.Claim(10.0, 1.0);
  EXPECT_EQ(b.start, 10.0);
  EXPECT_EQ(t.busy_time(), 2.0);
  EXPECT_EQ(t.free_at(), 11.0);
}

TEST(TimelineTest, RecordsIntervalsWhenAsked) {
  Track t("t", /*record=*/true);
  (void)t.Claim(0.0, 1.0);
  (void)t.Claim(5.0, 2.0);
  ASSERT_EQ(t.log().size(), 2u);
  EXPECT_EQ(t.log()[1].start, 5.0);
  EXPECT_EQ(t.log()[1].duration(), 2.0);
}

TEST(TimelineTest, ZeroDurationClaimsNotLogged) {
  Track t("t", /*record=*/true);
  (void)t.Claim(0.0, 0.0);
  EXPECT_TRUE(t.log().empty());
}

TEST(TimelineTest, UtilizationFraction) {
  Track t("t");
  (void)t.Claim(0.0, 2.0);
  EXPECT_DOUBLE_EQ(Utilization(t, 4.0), 0.5);
  EXPECT_DOUBLE_EQ(Utilization(t, 0.0), 0.0);
}

TEST(TimelineTest, ResetClearsState) {
  Track t("t", true);
  (void)t.Claim(0.0, 2.0);
  t.Reset();
  EXPECT_EQ(t.free_at(), 0.0);
  EXPECT_EQ(t.busy_time(), 0.0);
  EXPECT_TRUE(t.log().empty());
}

}  // namespace
}  // namespace liquid::simgpu
