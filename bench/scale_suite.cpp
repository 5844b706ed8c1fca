// Web-scale trajectory: wall time and peak RSS of the full pipeline
// (PARTITION → Eq. 10 → Eq. 8 → Eq. 9) across the scale tiers
// (workload/scale.h). The large tier is the headline instance: 1000 sites,
// ~100k pages, millions of media objects.
//
//   ./bench/scale_suite [--tiers=small,medium,large] [--threads=0]
//                       [--shards=16] [--bench-out=BENCH_scale.json]
//                       [--mem-budget=BYTES]
//
// Per tier the BENCH artifact carries:
//   scale.<tier>.gen_wall_s          workload generation + calibration
//   scale.<tier>.solve_wall_s        the four-phase pipeline
//   scale.<tier>.tracked_peak_bytes  memacct high-water during the tier
//                                    (peaks rebased per tier; deterministic
//                                    at a fixed thread count — CI pins
//                                    --threads=1 for bit-comparability)
//   scale.<tier>.peak_rss_bytes      process high-water RSS after the solve
//                                    (informational: the OS mark never
//                                    decreases, so later tiers/reps inherit
//                                    earlier footprints)
//   scale.<tier>.d_final             objective D (informational; byte-
//                                    equality across shard/thread counts is
//                                    gated by tests/test_sharded)
// CI gates the *_wall_s and *_bytes series against bench/baselines/
// BENCH_scale.json with per-tier thresholds (tools/benchdiff --rel-for).
#include <chrono>
#include <iostream>
#include <memory>
#include <sstream>
#include <vector>

#include "bench_common.h"
#include "core/policy.h"
#include "util/memacct.h"
#include "util/thread_pool.h"
#include "workload/scale.h"

int main(int argc, char** argv) {
  using namespace mmr;
  Flags flags = bench::standard_flags(argc, argv);
  flags.describe("tiers",
                 "comma-separated scale tiers to run, in order "
                 "(default small,medium,large)")
      .describe("shards",
                "server groups for the sharded pipeline (default 16; "
                "0 = unsharded)");
  if (flags.help_requested()) {
    std::cout << flags.help();
    return 0;
  }
  ExperimentConfig cfg = bench::config_from_flags(flags);
  return bench::run_measured([&] {
    std::vector<ScaleTier> tiers;
    {
      std::stringstream ss(flags.get_string("tiers", "small,medium,large"));
      std::string name;
      while (std::getline(ss, name, ',')) {
        if (!name.empty()) tiers.push_back(parse_scale_tier(name));
      }
    }
    MMR_CHECK_MSG(!tiers.empty(), "--tiers selected no tier");
    const auto shards = static_cast<std::uint32_t>(
        std::max<std::int64_t>(0, flags.get_int("shards", 16)));

    std::unique_ptr<ThreadPool> pool;
    if (cfg.threads != 1) pool = std::make_unique<ThreadPool>(cfg.threads);

    std::cout << "Scale trajectory ("
              << (pool ? pool->thread_count() : 1) << " threads, " << shards
              << " shards)\n\n";
    TextTable t({"tier", "sites", "pages", "refs", "gen [s]", "solve [s]",
                 "tracked peak", "peak RSS", "objective D", "feasible"});

    for (const ScaleTier tier : tiers) {
      const char* name = scale_tier_name(tier);
      const WorkloadParams params = scale_params(tier);

      // Each tier's tracked peak is its own: the previous tier's containers
      // are gone (current ≈ 0 at this point), so rebasing starts the
      // high-water mark fresh.
      memacct::reset_peaks();
      const auto t0 = std::chrono::steady_clock::now();
      const SystemModel sys = generate_scale_workload(
          params, mix_seed(cfg.base_seed, static_cast<std::uint64_t>(tier)),
          {}, pool.get(), shards);
      const double gen_s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();

      PolicyOptions options;
      options.pool = pool.get();
      options.shards = shards;
      const auto t1 = std::chrono::steady_clock::now();
      const PolicyResult result = run_replication_policy(sys, options);
      const double solve_s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t1)
              .count();
      const auto rss = static_cast<double>(peak_rss_bytes());
      const auto tracked = static_cast<double>(memacct::total_peak_bytes());

      std::uint64_t refs = 0;
      for (PageId j = 0; j < sys.num_pages(); ++j) {
        const Page& p = sys.page(j);
        refs += p.compulsory.size() + p.optional.size();
      }

      const std::string prefix = std::string("scale.") + name;
      bench_collector().record(prefix + ".gen_wall_s", "s", gen_s);
      bench_collector().record(prefix + ".solve_wall_s", "s", solve_s);
      bench_collector().record(prefix + ".tracked_peak_bytes", "B", tracked);
      bench_collector().record(prefix + ".peak_rss_bytes", "B", rss, "none");
      bench_collector().record(prefix + ".d_final", "1",
                               result.d_after_offload, "none");

      t.begin_row()
          .add_cell(name)
          .add_cell(static_cast<std::int64_t>(sys.num_servers()))
          .add_cell(static_cast<std::int64_t>(sys.num_pages()))
          .add_cell(static_cast<std::int64_t>(refs))
          .add_cell(gen_s, 2)
          .add_cell(solve_s, 2)
          .add_cell(format_bytes(tracked))
          .add_cell(format_bytes(rss))
          .add_cell(result.d_after_offload, 0)
          .add_cell(result.feasible ? "yes" : "no");
    }
    t.print(std::cout, "Scale trajectory");
    std::cout << "\nReading: solve time and the tracked peak should grow "
                 "~linearly in references.\nPeak RSS is the process "
                 "high-water mark, so each row includes every tier\nthat ran "
                 "before it.\n";
  });
}
