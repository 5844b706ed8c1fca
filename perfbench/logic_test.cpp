// Tests of the benchmark's own arithmetic (logic.h).
#include "logic.h"

#include <gtest/gtest.h>

#include "util/check.h"
#include "util/stats.h"

namespace perfbench {
namespace {

mmr::TraceEvent span(const char* name, std::uint64_t start,
                     std::uint64_t end, std::uint32_t tid = 1) {
  mmr::TraceEvent e;
  e.name = name;
  e.start_ns = start;
  e.dur_ns = end - start;
  e.tid = tid;
  return e;
}

TEST(SelfTime, NestedSpansSubtractOnlyDirectChildren) {
  // run [0,100) > policy [10,90) > partition [20,30), offload [40,80)
  //                               > offload.round [50,60)
  const std::vector<mmr::TraceEvent> ev = {
      span("run", 0, 100), span("policy", 10, 90), span("partition", 20, 30),
      span("offload", 40, 80), span("offload.round", 50, 60)};
  const std::vector<std::uint64_t> self = self_times_ns(ev, 1);
  EXPECT_EQ(self[0], 20u);  // 100 - 80
  EXPECT_EQ(self[1], 30u);  // 80 - 10 - 40
  EXPECT_EQ(self[2], 10u);
  EXPECT_EQ(self[3], 30u);  // 40 - 10
  EXPECT_EQ(self[4], 10u);
}

TEST(SelfTime, OverlappingWorkerSpansCountOnce) {
  // A main-thread span whose pool tasks overlap each other: [10,50) and
  // [30,70) cover [10,70), so the parent's self time is 100 - 60.
  const std::vector<mmr::TraceEvent> ev = {
      span("run_scenario", 0, 100, 1), span("run_single", 10, 50, 2),
      span("run_single", 30, 70, 3), span("simulate", 35, 45, 3)};
  const std::vector<std::uint64_t> self = self_times_ns(ev, 1);
  EXPECT_EQ(self[0], 40u);
  EXPECT_EQ(self[1], 40u);  // its thread has no child
  EXPECT_EQ(self[2], 30u);  // only its own thread's simulate is a child
  EXPECT_EQ(self[3], 10u);
}

TEST(SelfTime, WorkerRootAttachesToInnermostMainSpan) {
  const std::vector<mmr::TraceEvent> ev = {
      span("bench.run", 0, 100, 1), span("des.servers", 10, 60, 1),
      span("task", 20, 40, 2)};
  const std::vector<std::uint64_t> self = self_times_ns(ev, 1);
  EXPECT_EQ(self[0], 50u);  // the task is des.servers' child, not its own
  EXPECT_EQ(self[1], 30u);
}

TEST(SelfTime, ChildrenClippedAndAsyncIgnored) {
  mmr::TraceEvent async = span("request", 0, 100);
  async.async_id = 7;
  const std::vector<mmr::TraceEvent> ev = {span("a", 0, 10), span("b", 0, 10),
                                           async};
  const std::vector<std::uint64_t> self = self_times_ns(ev, 1);
  // Identical intervals: the first listed is the parent.
  EXPECT_EQ(self[0], 0u);
  EXPECT_EQ(self[1], 10u);
  EXPECT_EQ(self[2], 0u);
}

TEST(SelfTime, SumsPerWindow) {
  const std::vector<mmr::TraceEvent> ev = {
      span("bench.run", 0, 100), span("partition", 10, 30),
      span("bench.run", 200, 260), span("partition", 210, 220),
      span("partition", 230, 240), span("partition", 300, 310)};
  const auto windows = self_seconds_per_window(ev, 1, "bench.run");
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_DOUBLE_EQ(windows[0].at("partition"), 20e-9);
  EXPECT_DOUBLE_EQ(windows[0].at("bench.run"), 80e-9);
  EXPECT_DOUBLE_EQ(windows[1].at("partition"), 20e-9);
  EXPECT_DOUBLE_EQ(windows[1].at("bench.run"), 40e-9);
}

TEST(TailQuantile, HighestQuantileWithTenBeyond) {
  const TailQuantile million = tail_quantile(1'000'000);
  EXPECT_DOUBLE_EQ(million.q, 1 - 1e-5);
  EXPECT_EQ(million.beyond, 10u);
  // 101 samples: p90 sits at index 90, leaving exactly indices 91..100.
  const TailQuantile small = tail_quantile(101);
  EXPECT_DOUBLE_EQ(small.q, 0.9);
  EXPECT_EQ(small.beyond, 10u);
  // 1000 samples: p99 at 989.01 leaves 10 (990..999); p99.9 leaves 1.
  EXPECT_DOUBLE_EQ(tail_quantile(1000).q, 0.99);
  EXPECT_EQ(tail_quantile(1000).beyond, 10u);
  EXPECT_DOUBLE_EQ(tail_quantile(1001).q, 0.99);
}

TEST(TailQuantile, CountMatchesSampleSet) {
  mmr::SampleSet s;
  for (int i = 0; i < 12345; ++i) s.add(i);
  const TailQuantile t = tail_quantile(s.count());
  const double at = s.quantile(t.q);
  std::uint64_t beyond = 0;
  for (const double x : s.samples()) beyond += x > at ? 1 : 0;
  EXPECT_EQ(beyond, t.beyond);
  EXPECT_GE(t.beyond, 10u);
}

TEST(TailQuantile, TooFewSamplesThrow) {
  EXPECT_THROW(tail_quantile(91), mmr::CheckError);  // p90 leaves 9
  EXPECT_THROW(tail_quantile(0), mmr::CheckError);
}

TEST(Calibration, ScalesBusiestStationLinearly) {
  // Pilot at 1e-6 puts R at 0.0185 and the sites at 0.004: R is busiest.
  EXPECT_DOUBLE_EQ(calibrated_rate_scale(1e-6, 0.0185, 0.004, 0.8),
                   1e-6 * 0.8 / 0.0185);
  // The busiest station decides, whichever it is.
  EXPECT_DOUBLE_EQ(calibrated_rate_scale(2e-6, 0.01, 0.05, 0.5),
                   2e-6 * 0.5 / 0.05);
}

TEST(Calibration, RejectsUnusablePilots) {
  EXPECT_THROW(calibrated_rate_scale(1e-6, 0, 0, 0.8), mmr::CheckError);
  EXPECT_THROW(calibrated_rate_scale(1e-6, kPilotMaxRho, 0, 0.8),
               mmr::CheckError);
  EXPECT_THROW(calibrated_rate_scale(1e-6, 0.01, 0, 1.0), mmr::CheckError);
  EXPECT_THROW(calibrated_rate_scale(0, 0.01, 0, 0.8), mmr::CheckError);
}

TEST(Tally, FailedFractionOverAttempted) {
  Tally t;
  t.add(1'000'000, 0);
  t.add(20, 3);
  EXPECT_EQ(t.attempted, 1'000'020u);
  EXPECT_EQ(t.failed, 3u);
  EXPECT_DOUBLE_EQ(t.failed_frac(), 3.0 / 1'000'020.0);
  EXPECT_DOUBLE_EQ(t.ok_frac(), 1.0 - 3.0 / 1'000'020.0);
}

TEST(Tally, RejectsImpossibleCounts) {
  Tally t;
  EXPECT_THROW(t.failed_frac(), mmr::CheckError);
  EXPECT_THROW(t.add(1, 2), mmr::CheckError);
  EXPECT_EQ(t.attempted, 0u);
}

TEST(Statistics, RobustMedianDropsOutliers) {
  EXPECT_DOUBLE_EQ(robust_median({1.0, 1.1, 0.9, 1.0, 50.0}), 1.0);
  EXPECT_DOUBLE_EQ(robust_median({3.0}), 3.0);
}

}  // namespace
}  // namespace perfbench
