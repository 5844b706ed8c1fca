// Resource telemetry (util/memacct.h, util/telemetry.h, the mmr-timeline
// artifact): deterministic byte accounting and its thread-count-invariant
// memory.* gauges, the --mem-budget fail-fast contract, the timeline
// round-trip through io/artifacts.h, graceful perf-counter degradation,
// and the "telemetry never changes a result" guarantee.
#include "util/telemetry.h"

#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <thread>

#include "core/policy.h"
#include "io/artifacts.h"
#include "model/assignment.h"
#include "sim/runner.h"
#include "test_helpers.h"
#include "util/memacct.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "workload/generator.h"

namespace mmr {
namespace {

using memacct::Category;

/// Restores the accounting registry around each test so library-held
/// charges (none in this binary's fixtures) and leftovers cannot leak
/// between cases. The budget is always cleared.
class MemacctTest : public ::testing::Test {
 protected:
  MemacctTest() { memacct::reset_for_test(); }
  ~MemacctTest() override {
    memacct::set_budget_bytes(0);
    memacct::reset_for_test();
  }
};

TEST_F(MemacctTest, ChargeReleaseAndPeaks) {
  EXPECT_EQ(memacct::current_bytes(Category::kSolverScratch), 0u);
  memacct::charge(Category::kSolverScratch, 100);
  memacct::charge(Category::kSimEvents, 40);
  EXPECT_EQ(memacct::current_bytes(Category::kSolverScratch), 100u);
  EXPECT_EQ(memacct::total_current_bytes(), 140u);
  EXPECT_EQ(memacct::total_peak_bytes(), 140u);
  memacct::release(Category::kSimEvents, 40);
  memacct::charge(Category::kSolverScratch, 50);
  EXPECT_EQ(memacct::current_bytes(Category::kSolverScratch), 150u);
  EXPECT_EQ(memacct::peak_bytes(Category::kSolverScratch), 150u);
  // The process-wide peak saw 100+40 then 150: max is 150.
  EXPECT_EQ(memacct::total_peak_bytes(), 150u);
  // Over-release clamps to zero instead of wrapping.
  memacct::release(Category::kSolverScratch, 1000);
  EXPECT_EQ(memacct::current_bytes(Category::kSolverScratch), 0u);
}

TEST_F(MemacctTest, BudgetFailsFastAndLeavesStateConsistent) {
  memacct::set_budget_bytes(1000);
  memacct::charge(Category::kAssignmentBits, 600);
  EXPECT_THROW(memacct::charge(Category::kAssignmentBits, 500),
               memacct::MemBudgetError);
  // The rejected charge must not have been applied.
  EXPECT_EQ(memacct::current_bytes(Category::kAssignmentBits), 600u);
  EXPECT_NO_THROW(memacct::check_headroom(400, "fits"));
  EXPECT_THROW(memacct::check_headroom(401, "does not fit"),
               memacct::MemBudgetError);
  memacct::set_budget_bytes(0);  // disabled: anything goes
  EXPECT_NO_THROW(memacct::charge(Category::kAssignmentBits, 1 << 20));
}

TEST_F(MemacctTest, ChargeRaiiFollowsCopyAndMove) {
  {
    memacct::Charge a(Category::kModelCsr, 100);
    EXPECT_EQ(memacct::current_bytes(Category::kModelCsr), 100u);
    memacct::Charge b(a);  // copied owner holds its own copy of the bytes
    EXPECT_EQ(memacct::current_bytes(Category::kModelCsr), 200u);
    memacct::Charge c(std::move(a));  // transfer, no double charge
    EXPECT_EQ(memacct::current_bytes(Category::kModelCsr), 200u);
    c.reset(Category::kModelCsr, 20);
    EXPECT_EQ(memacct::current_bytes(Category::kModelCsr), 120u);
  }
  EXPECT_EQ(memacct::current_bytes(Category::kModelCsr), 0u);
}

TEST_F(MemacctTest, AssignmentEstimatorsMatchConstructorCharges) {
  // mmrepl_cli's pre-flight uses the estimators; they are only useful if
  // they predict the ctor's charges exactly.
  const SystemModel sys = generate_workload(testing::small_params(), 77);
  const std::uint64_t bits_before =
      memacct::current_bytes(Category::kAssignmentBits);
  const std::uint64_t caches_before =
      memacct::current_bytes(Category::kAssignmentCaches);
  const Assignment asg(sys);
  EXPECT_EQ(memacct::current_bytes(Category::kAssignmentBits) - bits_before,
            Assignment::estimate_bits_bytes(sys));
  EXPECT_EQ(
      memacct::current_bytes(Category::kAssignmentCaches) - caches_before,
      Assignment::estimate_caches_bytes(sys));
  EXPECT_GT(Assignment::estimate_bits_bytes(sys), 0u);
}

TEST_F(MemacctTest, MemoryGaugesAreThreadCountInvariant) {
  // The deterministic plane: memory.* gauges in metrics.json must be
  // bit-identical no matter how many workers the solver uses.
  const SystemModel sys = generate_workload(testing::small_params(), 91);
  const bool saved = metrics_enabled();
  set_metrics_enabled(true);

  const auto solve_gauges = [&](ThreadPool* pool) {
    MetricsRegistry reg;
    MetricsScope scope(&reg);
    PolicyOptions options;
    options.pool = pool;
    (void)run_replication_policy(sys, options);
    std::map<std::string, GaugeStat> memory;
    for (const auto& [name, g] : reg.snapshot().gauges) {
      if (name.rfind("memory.", 0) == 0) memory[name] = g;
    }
    return memory;
  };

  const auto serial = solve_gauges(nullptr);
  ThreadPool pool(3);
  const auto pooled = solve_gauges(&pool);
  set_metrics_enabled(saved);

  ASSERT_FALSE(serial.empty());
  EXPECT_GT(serial.count("memory.assignment.bits"), 0u);
  EXPECT_GT(serial.count("memory.solver.scratch"), 0u);
  ASSERT_EQ(serial.size(), pooled.size());
  for (const auto& [name, s] : serial) {
    ASSERT_GT(pooled.count(name), 0u) << name;
    const GaugeStat& p = pooled.at(name);
    EXPECT_EQ(s.count, p.count) << name;
    EXPECT_DOUBLE_EQ(s.mean, p.mean) << name;
    EXPECT_DOUBLE_EQ(s.min, p.min) << name;
    EXPECT_DOUBLE_EQ(s.max, p.max) << name;
  }
}

TEST(Telemetry, PhaseScopeNestsAndRestores) {
  EXPECT_STREQ(telemetry_current_phase(), "idle");
  {
    TelemetryPhaseScope outer("partition");
    EXPECT_STREQ(telemetry_current_phase(), "partition");
    {
      TelemetryPhaseScope inner("storage_restore");
      EXPECT_STREQ(telemetry_current_phase(), "storage_restore");
    }
    EXPECT_STREQ(telemetry_current_phase(), "partition");
  }
  EXPECT_STREQ(telemetry_current_phase(), "idle");
}

TEST(Telemetry, ResourceProbesReturnSaneValues) {
  // RSS probes may legitimately return 0 on exotic platforms, but on Linux
  // CI both should be positive and peak >= current is always true.
  const std::uint64_t rss = current_rss_bytes();
  const std::uint64_t peak = peak_rss_bytes();
  if (rss > 0 && peak > 0) {
    EXPECT_GE(peak, rss / 2);  // statm vs rusage skew
  }
  const CpuTimes t = process_cpu_times();
  EXPECT_GE(t.user_s, 0.0);
  EXPECT_GE(t.sys_s, 0.0);
}

TEST(Telemetry, PerfCountersDegradeGracefully) {
  // Containers routinely deny perf_event_open; either outcome is fine, but
  // a denied open must leave the object safely unusable-but-callable.
  PerfCounters pc;
  const bool opened = pc.open();
  EXPECT_EQ(opened, pc.available());
  if (opened) {
    const PerfCounterValues a = pc.read();
    // Burn a little CPU so the cumulative counters move.
    volatile double sink = 0;
    for (int i = 0; i < 100000; ++i) sink = sink + i * 0.5;
    const PerfCounterValues b = pc.read();
    EXPECT_GE(b.cycles, a.cycles);
    EXPECT_GE(b.instructions, a.instructions);
  } else {
    const PerfCounterValues v = pc.read();  // must not crash
    EXPECT_EQ(v.cycles, 0u);
  }
  pc.close();
  pc.close();  // idempotent
  EXPECT_FALSE(pc.available());
}

TEST(Telemetry, TimelineSamplerRoundTripsThroughArtifact) {
  TimelineSampler& sampler = global_timeline_sampler();
  TimelineOptions options;
  options.interval_ms = 2;
  sampler.start(options);
  EXPECT_TRUE(sampler.running());
  {
    TelemetryPhaseScope phase("partition");
    const SystemModel sys = testing::tiny_system();
    (void)run_replication_policy(sys);
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
  }
  sampler.stop();
  EXPECT_FALSE(sampler.running());
  const TimelineSnapshot snap = sampler.snapshot();
  ASSERT_GE(snap.samples.size(), 2u);  // t=0 baseline + final stop sample

  RunMeta meta;
  meta.tool = "test_telemetry";
  std::ostringstream os;
  write_timeline_jsonl(os, snap, sampler.dropped(), meta);
  std::vector<JsonValue> samples;
  const TimelineDoc doc =
      parse_timeline_jsonl(os.str(), testing::collect_records(samples));
  EXPECT_EQ(doc.version, 1);
  EXPECT_EQ(doc.interval_ms, options.interval_ms);
  EXPECT_EQ(doc.counters_available, snap.counters_available);
  EXPECT_TRUE(doc.has_summary);
  EXPECT_EQ(samples.size(), snap.samples.size());
  EXPECT_EQ(doc.declared_events, snap.samples.size());
  // Every sample line carries the full category stanza and a phase.
  for (const JsonValue& s : samples) {
    ASSERT_TRUE(s.has("mem"));
    EXPECT_EQ(s.at("mem").obj.size(), memacct::kCategoryCount);
    ASSERT_TRUE(s.has("phase"));
  }
  // Timestamps are monotone non-decreasing.
  for (std::size_t i = 1; i < snap.samples.size(); ++i) {
    EXPECT_GE(snap.samples[i].t_ms, snap.samples[i - 1].t_ms);
  }
}

TEST(Telemetry, ParserRejectsTamperedDocuments) {
  TimelineSampler& sampler = global_timeline_sampler();
  sampler.start({});
  sampler.stop();
  RunMeta meta;
  std::ostringstream os;
  write_timeline_jsonl(os, sampler.snapshot(), 0, meta);
  const std::string good = os.str();
  EXPECT_NO_THROW(parse_timeline_jsonl(good));
  // Drop the summary line: the truncation must be detected.
  const std::size_t cut = good.rfind("{\"type\":\"summary\"");
  ASSERT_NE(cut, std::string::npos);
  EXPECT_THROW(parse_timeline_jsonl(good.substr(0, cut)), CheckError);
  EXPECT_THROW(parse_timeline_jsonl("{\"schema\":\"mmr-audit\",\"version\":1}"),
               CheckError);
}

TEST(Telemetry, SamplerAndProgressDoNotChangeResults) {
  // Same contract as the recorders: telemetry reads computed state, so a
  // running sampler plus progress reporting must not perturb a placement
  // or a simulated response time.
  ExperimentConfig cfg;
  cfg.workload = testing::small_params();
  cfg.sim.requests_per_server = 400;
  cfg.runs = 3;
  cfg.base_seed = 7;
  ScenarioSpec spec;
  spec.storage_fraction = 0.5;
  const RunOutcome off = run_single(cfg, spec, 29);

  TimelineOptions options;
  options.interval_ms = 1;
  global_timeline_sampler().start(options);
  set_progress_enabled(true);
  const RunOutcome on = run_single(cfg, spec, 29);
  set_progress_enabled(false);
  global_timeline_sampler().stop();
  EXPECT_GE(global_timeline_sampler().snapshot().samples.size(), 2u);

  EXPECT_DOUBLE_EQ(off.ours_response, on.ours_response);
  EXPECT_DOUBLE_EQ(off.lru_response, on.lru_response);
  EXPECT_DOUBLE_EQ(off.local_response, on.local_response);
  EXPECT_DOUBLE_EQ(off.remote_response, on.remote_response);
  EXPECT_DOUBLE_EQ(off.unconstrained_response, on.unconstrained_response);
  EXPECT_DOUBLE_EQ(off.ours_objective, on.ours_objective);
}

}  // namespace
}  // namespace mmr
