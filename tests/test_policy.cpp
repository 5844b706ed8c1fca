#include "core/policy.h"

#include <gtest/gtest.h>

#include "baselines/static_policies.h"
#include "test_helpers.h"
#include "workload/generator.h"

namespace mmr {
namespace {

TEST(Policy, UnconstrainedBeatsTrivialBaselines) {
  const SystemModel sys = generate_workload(testing::small_params(), 101);
  PolicyOptions opt;
  opt.restore_storage_enabled = false;
  opt.restore_processing_enabled = false;
  opt.offload_enabled = false;
  const PolicyResult ours = run_replication_policy(sys, opt);
  const Weights w = opt.weights;
  const double d_ours = objective_total_cached(ours.assignment, w);
  const double d_remote =
      objective_total_cached(make_remote_assignment(sys), w);
  const double d_local = objective_total_cached(make_local_assignment(sys), w);
  EXPECT_LE(d_ours, d_remote + 1e-9);
  EXPECT_LE(d_ours, d_local + 1e-9);
}

TEST(Policy, StagesOnlyRunWhenEnabled) {
  WorkloadParams params = testing::small_params();
  params.storage_fraction = 0.3;
  const SystemModel sys = generate_workload(params, 102);

  PolicyOptions all_off;
  all_off.restore_storage_enabled = false;
  all_off.restore_processing_enabled = false;
  all_off.offload_enabled = false;
  const PolicyResult r = run_replication_policy(sys, all_off);
  EXPECT_EQ(r.storage_report.deallocations, 0u);
  EXPECT_EQ(r.processing_report.unmarked_slots, 0u);
  EXPECT_FALSE(r.offload_report.triggered);
  EXPECT_DOUBLE_EQ(r.d_after_partition, r.d_after_offload);
}

TEST(Policy, ConstrainedRunIsFeasible) {
  WorkloadParams params = testing::small_params();
  params.storage_fraction = 0.4;
  params.server_proc_capacity = 50.0;
  SystemModel sys = generate_workload(params, 103);
  set_repo_capacity(sys, 100.0, 1.0);

  const PolicyResult r = run_replication_policy(sys);
  EXPECT_TRUE(r.feasible);
  EXPECT_TRUE(audit_constraints(sys, r.assignment).ok());
}

TEST(Policy, ObjectiveDegradesMonotonicallyThroughStages) {
  WorkloadParams params = testing::small_params();
  params.storage_fraction = 0.3;
  params.server_proc_capacity = 40.0;
  const SystemModel sys = generate_workload(params, 104);
  const PolicyResult r = run_replication_policy(sys);
  // Constraint restoration can only trade objective for feasibility.
  EXPECT_LE(r.d_after_partition, r.d_after_storage + 1e-6);
  EXPECT_LE(r.d_after_storage, r.d_after_processing + 1e-6);
  // (Off-loading may go either way in principle; it adds local downloads
  // that were beneficial only under Eq. 9 pressure, so no assertion.)
}

TEST(Policy, TighterStorageNeverHelps) {
  WorkloadParams params = testing::small_params();
  const SystemModel base = generate_workload(params, 105);
  const Weights w;
  double previous = -1;
  for (double fraction : {1.0, 0.6, 0.3, 0.1}) {
    WorkloadParams p2 = params;
    p2.storage_fraction = fraction;
    const SystemModel sys = generate_workload(p2, 105);
    const PolicyResult r = run_replication_policy(sys);
    const double d = objective_total_cached(r.assignment, w);
    if (previous >= 0) {
      EXPECT_GE(d + 1e-6, previous) << fraction;
    }
    previous = d;
  }
}

TEST(Policy, ExactPartitionVariantRuns) {
  const SystemModel sys = generate_workload(testing::small_params(), 106);
  PolicyOptions opt;
  opt.partition.exact = true;
  opt.partition.exact_resolution_bytes = 8192;
  const PolicyResult exact = run_replication_policy(sys, opt);
  const PolicyResult greedy = run_replication_policy(sys);
  // Both valid; the exact split should not be meaningfully worse.
  EXPECT_LE(exact.d_after_partition, greedy.d_after_partition * 1.05);
}

TEST(Policy, SummaryMentionsStages) {
  const SystemModel sys = generate_workload(testing::small_params(), 107);
  const PolicyResult r = run_replication_policy(sys);
  const std::string s = r.summary();
  EXPECT_NE(s.find("partition"), std::string::npos);
  EXPECT_NE(s.find("storage"), std::string::npos);
  EXPECT_NE(s.find("offload"), std::string::npos);
  EXPECT_NE(s.find("feasible"), std::string::npos);
}

TEST(Policy, WeightsShiftTheTradeoff) {
  // With alpha2 >> alpha1 the optimizer should value optional downloads
  // more; D2 under (0.1, 10) weights must be <= D2 under (10, 0.1) when
  // storage forces choices.
  WorkloadParams params = testing::small_params();
  params.storage_fraction = 0.2;
  const SystemModel sys = generate_workload(params, 108);

  PolicyOptions page_heavy;
  page_heavy.weights = {10.0, 0.1};
  PolicyOptions optional_heavy;
  optional_heavy.weights = {0.1, 10.0};
  const PolicyResult a = run_replication_policy(sys, page_heavy);
  const PolicyResult b = run_replication_policy(sys, optional_heavy);
  EXPECT_LE(objective_d2_cached(b.assignment),
            objective_d2_cached(a.assignment) + 1e-6);
}

}  // namespace
}  // namespace mmr
