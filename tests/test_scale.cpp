// Web-scale tier parameters, the allocation-free memory pre-flight, the
// 64-bit estimator arithmetic it relies on, and the shard-plan invariants
// (workload/scale.h, model/shard.h).
#include <cstdint>

#include <gtest/gtest.h>

#include "model/assignment.h"
#include "model/shard.h"
#include "model/system.h"
#include "test_helpers.h"
#include "util/check.h"
#include "util/memacct.h"
#include "util/thread_pool.h"
#include "workload/generator.h"
#include "workload/scale.h"

namespace mmr {
namespace {

constexpr std::uint64_t kGiB = 1024ull * 1024 * 1024;

// The count-based estimators must size >4G-element instances without any
// 32-bit intermediate wrapping: with 5G decision slots the bits array alone
// is 5 GB, and every other estimate is strictly larger than its dominant
// array. None of this allocates — the inputs describe an instance ~40x the
// large tier.
TEST(Scale, EstimatorsSurvive4GElementInstances) {
  const std::uint64_t pages = 3ull * 1000 * 1000 * 1000;       // 3G pages
  const std::uint64_t comp_slots = 5ull * 1000 * 1000 * 1000;  // 5G slots
  const std::uint64_t opt_slots = 4ull * 1000 * 1000 * 1000;
  const std::uint64_t servers = 2ull * 1000 * 1000;
  const std::uint64_t ref_ranks = 6ull * 1000 * 1000 * 1000;
  const std::uint64_t refs = comp_slots + opt_slots;

  const std::uint64_t bits =
      Assignment::estimate_bits_bytes_for(comp_slots, opt_slots);
  EXPECT_EQ(bits, comp_slots + opt_slots);  // one byte per decision slot

  // Lower bounds from single dominant arrays: csr holds 2 doubles per comp
  // and opt slot, index holds one 8-byte prefix entry per rank, caches hold
  // a 4-byte mark per rank. A 32-bit wrap anywhere would land far below.
  EXPECT_GT(SystemModel::estimate_csr_bytes_for(pages, comp_slots, opt_slots),
            2 * (comp_slots + opt_slots) * sizeof(double));
  EXPECT_GT(
      SystemModel::estimate_index_bytes_for(servers, pages, ref_ranks, refs),
      ref_ranks * sizeof(std::uint64_t));
  EXPECT_GT(Assignment::estimate_caches_bytes_for(pages, servers, ref_ranks),
            ref_ranks * sizeof(std::uint32_t));
}

TEST(Scale, TierNamesRoundTripAndParamsGrow) {
  const ScaleTier tiers[] = {ScaleTier::kSmall, ScaleTier::kMedium,
                             ScaleTier::kLarge};
  std::uint32_t prev_servers = 0, prev_objects = 0;
  for (const ScaleTier tier : tiers) {
    EXPECT_EQ(parse_scale_tier(scale_tier_name(tier)), tier);
    const WorkloadParams params = scale_params(tier);
    params.validate();
    EXPECT_GT(params.num_servers, prev_servers);
    EXPECT_GT(params.num_objects, prev_objects);
    prev_servers = params.num_servers;
    prev_objects = params.num_objects;
  }
  EXPECT_EQ(scale_params(ScaleTier::kLarge).num_servers, 1000u);
  EXPECT_THROW(parse_scale_tier("petabyte"), CheckError);
}

TEST(Scale, PreflightIsAllocationFree) {
  memacct::reset_for_test();
  const ScalePreflight pre = estimate_scale_memory(
      scale_params(ScaleTier::kLarge));
  EXPECT_EQ(memacct::total_current_bytes(), 0u);
  EXPECT_EQ(pre.total_bytes, pre.csr_bytes + pre.index_bytes +
                                 pre.bits_bytes + pre.caches_bytes);
  EXPECT_GT(pre.total_bytes, 0u);
  EXPECT_LT(pre.total_bytes, 8 * kGiB);  // the large tier fits a laptop
  EXPECT_FALSE(pre.to_string().empty());
}

// The pre-flight's expected counts and byte totals must track what the
// generator actually builds: the whole point is a byte-accurate go/no-go
// before the first allocation. Expectations vs one seed's realization
// differ by a few percent at the small tier's population sizes.
TEST(Scale, PreflightTracksGeneratedInstance) {
  const WorkloadParams params = scale_params(ScaleTier::kSmall);
  const ScalePreflight pre = estimate_scale_memory(params);

  const SystemModel sys = generate_workload(params, 42);
  EXPECT_EQ(pre.servers, sys.num_servers());
  EXPECT_NEAR(static_cast<double>(pre.pages),
              static_cast<double>(sys.num_pages()),
              0.15 * static_cast<double>(sys.num_pages()));
  const double slots =
      static_cast<double>(sys.total_comp_slots() + sys.total_opt_slots());
  EXPECT_NEAR(static_cast<double>(pre.comp_slots + pre.opt_slots), slots,
              0.15 * slots);

  const double actual_model = static_cast<double>(
      SystemModel::estimate_csr_bytes_for(sys.num_pages(),
                                          sys.total_comp_slots(),
                                          sys.total_opt_slots()) +
      SystemModel::estimate_index_bytes_for(
          sys.num_servers(), sys.num_pages(), sys.total_ref_ranks(),
          sys.total_comp_slots() + sys.total_opt_slots()) +
      Assignment::estimate_bits_bytes(sys) +
      Assignment::estimate_caches_bytes(sys));
  EXPECT_NEAR(static_cast<double>(pre.total_bytes), actual_model,
              0.2 * actual_model);
}

// An undersized budget must reject the workload before anything is built.
TEST(Scale, PreflightFailsFastUnderBudget) {
  memacct::reset_for_test();
  memacct::set_budget_bytes(1024);
  EXPECT_THROW(generate_scale_workload(scale_params(ScaleTier::kSmall), 1),
               memacct::MemBudgetError);
  EXPECT_EQ(memacct::total_current_bytes(), 0u);
  memacct::set_budget_bytes(0);
}

// Calibration leaves every constraint family binding: finite processing
// capacities, a repository capacity below the unconstrained demand (so
// Eq. 9 triggers), and the generator's partial storage.
TEST(Scale, CalibratedInstanceHasBindingConstraints) {
  WorkloadParams params = testing::small_params();
  params.num_servers = 6;
  params.storage_fraction = 0.4;
  const SystemModel sys = generate_scale_workload(params, 7);
  for (ServerId i = 0; i < sys.num_servers(); ++i) {
    EXPECT_LT(sys.server(i).proc_capacity, kUnlimited);
    // HTML is always served locally, so calibration must keep it feasible.
    EXPECT_GE(sys.server(i).proc_capacity, sys.page_request_rate(i));
  }
  EXPECT_LT(sys.repository().proc_capacity, kUnlimited);
  EXPECT_GT(sys.repository().proc_capacity, 0.0);
}

// generate_scale_workload's pool/shards arguments only accelerate the
// calibration's scratch solves; the returned instance must be identical.
TEST(Scale, GenerationInvariantUnderPoolAndShards) {
  WorkloadParams params = testing::small_params();
  params.storage_fraction = 0.4;
  const SystemModel serial = generate_scale_workload(params, 11);
  ThreadPool pool(4);
  const SystemModel pooled =
      generate_scale_workload(params, 11, {}, &pool, 3);
  ASSERT_EQ(serial.num_servers(), pooled.num_servers());
  for (ServerId i = 0; i < serial.num_servers(); ++i) {
    EXPECT_EQ(serial.server(i).proc_capacity, pooled.server(i).proc_capacity);
    EXPECT_EQ(serial.server(i).storage_capacity,
              pooled.server(i).storage_capacity);
  }
  EXPECT_EQ(serial.repository().proc_capacity,
            pooled.repository().proc_capacity);
}

TEST(Scale, ShardPlanPartitionsServersContiguously) {
  const SystemModel sys = generate_workload(testing::small_params(), 21);
  std::uint64_t total_weight = 0;
  for (ServerId i = 0; i < sys.num_servers(); ++i) {
    total_weight += static_cast<std::uint64_t>(sys.num_referenced(i)) +
                    sys.pages_on_server(i).size() + 1;
  }

  for (std::uint32_t shards : {1u, 2u, 3u, 64u}) {
    SCOPED_TRACE(shards);
    const ShardPlan plan = make_shard_plan(sys, shards);
    EXPECT_EQ(plan.num_shards(),
              std::min<std::uint32_t>(shards, sys.num_servers()));
    EXPECT_EQ(plan.server_begin(0), 0u);
    EXPECT_EQ(plan.server_end(plan.num_shards() - 1), sys.num_servers());
    std::uint64_t weight_sum = 0;
    for (std::uint32_t s = 0; s < plan.num_shards(); ++s) {
      EXPECT_LT(plan.server_begin(s), plan.server_end(s));  // never empty
      if (s > 0) {
        EXPECT_EQ(plan.server_begin(s), plan.server_end(s - 1));
      }
      weight_sum += plan.weight(s);
      for (ServerId i = plan.server_begin(s); i < plan.server_end(s); ++i) {
        EXPECT_EQ(plan.shard_of(i), s);
      }
    }
    EXPECT_EQ(weight_sum, total_weight);
  }
}

}  // namespace
}  // namespace mmr
