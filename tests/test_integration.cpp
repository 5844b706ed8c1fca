// Miniature versions of the paper's three experiments asserting the
// *qualitative* shapes the paper reports (Sec. 5.2), on a shrunken workload.
#include <gtest/gtest.h>

#include "sim/runner.h"
#include "test_helpers.h"

namespace mmr {
namespace {

ExperimentConfig mini_config() {
  ExperimentConfig cfg;
  cfg.workload = testing::small_params();
  cfg.sim.requests_per_server = 600;
  cfg.runs = 4;
  cfg.base_seed = 4242;
  return cfg;
}

TEST(IntegrationFig1, StorageSweepShape) {
  const ExperimentConfig cfg = mini_config();
  double prev_ours = -1;
  double ours_at_100 = 0, lru_at_100 = 0, remote_mean = 0, local_mean = 0;
  for (double storage : {1.0, 0.6, 0.3}) {
    ScenarioSpec spec;
    spec.storage_fraction = storage;
    const ScenarioResult r = run_scenario(cfg, spec, nullptr);
    const double ours = r.ours.rel_increase.mean();
    if (storage == 1.0) {
      ours_at_100 = ours;
      lru_at_100 = r.lru.rel_increase.mean();
      remote_mean = r.remote.rel_increase.mean();
      local_mean = r.local.rel_increase.mean();
    }
    // Less storage -> never better (monotone increase, small tolerance for
    // simulation noise).
    if (prev_ours >= 0) {
      EXPECT_GE(ours, prev_ours - 0.08) << storage;
    }
    prev_ours = ours;
    // Ours never worse than LRU at the same storage (paper's headline).
    EXPECT_LE(ours, r.lru.rel_increase.mean() + 0.10) << storage;
  }
  // At 100% storage: ours ~ unconstrained (near 0 increase), LRU clearly
  // above it, Local above ours, Remote massively worse.
  EXPECT_NEAR(ours_at_100, 0.0, 0.06);
  EXPECT_GT(lru_at_100, ours_at_100);
  EXPECT_GT(local_mean, ours_at_100);
  EXPECT_GT(remote_mean, 1.0);  // paper: +335%
}

TEST(IntegrationFig2, ProcessingSweepShape) {
  const ExperimentConfig cfg = mini_config();
  ScenarioSpec base;
  base.run_lru = base.run_local = base.run_remote = false;

  double remote_level = 0;
  {
    ScenarioSpec spec = base;
    spec.run_remote = true;
    const ScenarioResult r = run_scenario(cfg, spec, nullptr);
    remote_level = r.remote.rel_increase.mean();
  }

  double prev = -1;
  double at_zero = 0, at_full = 0;
  for (double frac : {1.0, 0.6, 0.2, 0.0}) {
    ScenarioSpec spec = base;
    spec.local_proc_fraction = frac;
    const ScenarioResult r = run_scenario(cfg, spec, nullptr);
    const double ours = r.ours.rel_increase.mean();
    if (frac == 1.0) at_full = ours;
    if (frac == 0.0) at_zero = ours;
    if (prev >= 0) {
      EXPECT_GE(ours, prev - 0.08) << frac;
    }
    prev = ours;
  }
  // 100% capacity: essentially unconstrained. 0%: everything from the
  // repository, i.e. the Remote policy's level.
  EXPECT_NEAR(at_full, 0.0, 0.06);
  EXPECT_NEAR(at_zero, remote_level, 0.30 * std::max(1.0, remote_level));
}

TEST(IntegrationFig3, CentralCapacityHurtsLessThanLocal) {
  const ExperimentConfig cfg = mini_config();
  ScenarioSpec base;
  base.run_lru = base.run_local = base.run_remote = false;

  // Tight repository, comfortable locals: modest degradation (off-loading
  // pushes work to the sites).
  ScenarioSpec repo_tight = base;
  repo_tight.repo_capacity_fraction = 0.5;
  const double repo_hit =
      run_scenario(cfg, repo_tight, nullptr).ours.rel_increase.mean();

  // Tight locals, comfortable repository: large degradation.
  ScenarioSpec local_tight = base;
  local_tight.local_proc_fraction = 0.3;
  const double local_hit =
      run_scenario(cfg, local_tight, nullptr).ours.rel_increase.mean();

  // Paper: "local processing capacities affect the performance more than
  // the repository's processing power".
  EXPECT_LT(repo_hit, local_hit);
  EXPECT_GE(local_hit, 0.0);
}

TEST(IntegrationFeasibility, MildScenarioStaysFeasible) {
  // Full storage, near-full local capacity, 90% repository: the off-loading
  // negotiation must restore Eq. 9 (the sites have room to absorb 10% of
  // the repository traffic).
  const ExperimentConfig cfg = mini_config();
  ScenarioSpec spec;
  spec.storage_fraction = 1.0;
  spec.local_proc_fraction = 0.95;
  spec.repo_capacity_fraction = 0.9;
  spec.run_lru = spec.run_local = spec.run_remote = false;
  const ScenarioResult r = run_scenario(cfg, spec, nullptr);
  EXPECT_EQ(r.infeasible_runs, 0u);
}

TEST(IntegrationFeasibility, OverConstrainedRunsDegradeGracefully) {
  // Jointly tight storage + processing + repository can be genuinely
  // unrestorable (the paper's protocol breaks with "constraint can not be
  // restored"); the pipeline must still return a placement and the response
  // time must stay bounded by the Remote policy's level.
  const ExperimentConfig cfg = mini_config();
  ScenarioSpec spec;
  spec.storage_fraction = 0.4;
  spec.local_proc_fraction = 0.7;
  spec.repo_capacity_fraction = 0.9;
  spec.run_lru = spec.run_local = false;
  const ScenarioResult r = run_scenario(cfg, spec, nullptr);
  EXPECT_GT(r.ours.rel_increase.count(), 0u);
  EXPECT_LE(r.ours.rel_increase.mean(), r.remote.rel_increase.mean() + 0.2);
}

}  // namespace
}  // namespace mmr
