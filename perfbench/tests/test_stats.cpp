// Tests of the benchmark's statistics helpers and span self time.
#include <gtest/gtest.h>

#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

TEST(Quantile, InterpolatesBetweenOrderStatistics) {
  const std::vector<double> xs = {4, 1, 3, 2};  // sorted: 1 2 3 4
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 4);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.25), 1.75);
  EXPECT_DOUBLE_EQ(median({5}), 5);
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2);
}

TEST(Quantile, IsExactNotABucketEdge) {
  // 1000 samples 1..1000 ms: p99 lies between the 990th and 991st value,
  // where a power-of-two histogram would report 1024.
  std::vector<double> xs;
  for (int i = 1; i <= 1000; ++i) xs.push_back(i);
  EXPECT_NEAR(quantile(xs, 0.99), 990.01, 1e-9);
}

TEST(Quantile, RejectsEmptySample) {
  EXPECT_THROW(quantile({}, 0.5), std::invalid_argument);
}

TEST(Iqr, IsThirdMinusFirstQuartile) {
  EXPECT_DOUBLE_EQ(iqr({1, 2, 3, 4, 5}), 2);
  EXPECT_DOUBLE_EQ(iqr({7, 7, 7}), 0);
}

TEST(TailLevel, NeedsTenSamplesBeyond) {
  EXPECT_FALSE(tail_level(19).has_value());
  EXPECT_EQ(tail_level(20), 50.0);
  EXPECT_EQ(tail_level(99), 50.0);
  EXPECT_EQ(tail_level(100), 90.0);
  EXPECT_EQ(tail_level(999), 90.0);
  EXPECT_EQ(tail_level(1000), 99.0);
  EXPECT_EQ(tail_level(9999), 99.0);
  EXPECT_EQ(tail_level(10000), 99.9);
}

TEST(TailMetric, FallsBackToUpperQuartileOnSmallSamples) {
  const Metric small = tail_metric("t", {3, 9, 4, 5, 8}, "ms");
  EXPECT_EQ(small.stat, "p75");
  EXPECT_DOUBLE_EQ(small.value, 8);
  EXPECT_EQ(small.samples, 5u);
  const Metric idle = tail_metric("t", {}, "ms");
  EXPECT_EQ(idle.value, 0.0);
  EXPECT_EQ(idle.samples, 0u);

  std::vector<double> xs;
  for (int i = 1; i <= 1000; ++i) xs.push_back(i);
  const Metric big = tail_metric("t", xs, "ms");
  EXPECT_EQ(big.stat, "p99");
  EXPECT_NEAR(big.value, 990.01, 1e-9);
}

TEST(MeanMetric, AveragesAndReportsTheCount) {
  const Metric m = mean_metric("latency_ms.mean", {10, 10, 40}, "ms");
  EXPECT_DOUBLE_EQ(m.value, 20.0);
  EXPECT_EQ(m.samples, 3u);
  EXPECT_EQ(m.stat, "mean");
  const Metric idle = mean_metric("idle", {}, "ms");
  EXPECT_EQ(idle.value, 0.0);
  EXPECT_EQ(idle.samples, 0u);
}

TEST(OpenLoop, DueTimesFollowTheRateNotTheReplies) {
  const auto start = std::chrono::steady_clock::time_point{};
  const OpenLoopSchedule schedule(start, 200.0);  // one every 5 ms
  EXPECT_EQ(schedule.due(0), start);
  EXPECT_NEAR(due_latency_ms(start, schedule.due(3)), 15.0, 1e-6);
  EXPECT_THROW(OpenLoopSchedule(start, 0.0), std::invalid_argument);
}

TEST(OpenLoop, AStallIsChargedToEveryRequestItDelayed) {
  // Requests due at 0, 5, 10 ms; the generator stalls until 12 ms and
  // sends all three then; each completes 1 ms after being sent.
  const auto start = std::chrono::steady_clock::time_point{};
  const OpenLoopSchedule schedule(start, 200.0);
  const auto ms = [&](double v) {
    using Duration = std::chrono::steady_clock::duration;
    return start + std::chrono::duration_cast<Duration>(
                       std::chrono::duration<double, std::milli>(v));
  };
  EXPECT_NEAR(due_latency_ms(schedule.due(0), ms(13)), 13.0, 1e-6);
  EXPECT_NEAR(due_latency_ms(schedule.due(1), ms(13)), 8.0, 1e-6);
  EXPECT_NEAR(due_latency_ms(schedule.due(2), ms(13)), 3.0, 1e-6);
}

TEST(MetricFormat, PrintsTheSampleCount) {
  const Metric m = median_metric("latency_ms.p50", {1, 2, 3}, "ms");
  const std::string line = format_metric(m);
  EXPECT_NE(line.find("latency_ms.p50"), std::string::npos);
  EXPECT_NE(line.find("ms"), std::string::npos);
  EXPECT_NE(line.find("n=3"), std::string::npos);
  EXPECT_NE(line.find("2.000000"), std::string::npos);
  EXPECT_NE(line.find("iqr=1"), std::string::npos);
  EXPECT_NE(format_metric(median_metric("idle", {}, "s")).find("n=0"),
            std::string::npos);
}

TEST(SelfTime, SubtractsTheUnionOfChildren) {
  SpanRecorder rec(true, 2);
  const auto t = [](int ms) {
    return Clock::time_point{} + std::chrono::milliseconds(ms);
  };
  const auto root = rec.add(0, "root", t(0), t(100));
  rec.add(0, "a", t(10), t(30), root);
  rec.add(1, "b", t(20), t(40), root);   // overlaps a: union is 10..40
  rec.add(0, "c", t(90), t(120), root);  // clipped to the parent's end
  const auto spans = rec.merged();
  const auto self = self_seconds(spans);
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_NEAR(self[0], 0.100 - 0.030 - 0.010, 1e-9);
  EXPECT_NEAR(self[1], 0.020, 1e-9);
}

TEST(SpanRecorder, DisabledRecordsNothing) {
  SpanRecorder rec(false, 1);
  EXPECT_EQ(rec.add(0, "x", Clock::now(), Clock::now()), 0u);
  { ScopedSpan s(rec, 0, "y"); }
  EXPECT_TRUE(rec.merged().empty());
}

}  // namespace
}  // namespace perfbench
