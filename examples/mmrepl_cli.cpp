// mmrepl_cli — file-based workflow around the library:
//
//   mmrepl_cli generate --out=sys.txt [--seed=1] [--storage=0.6]
//       Generate a Table-1 workload and save it.
//   mmrepl_cli describe --system=sys.txt
//       Print the workload characterization.
//   mmrepl_cli solve --system=sys.txt --out=placement.txt [--no-offload]
//       Run the replication policy and save the placement.
//       [--threads=N] solve with an N-worker pool; [--shards=K] shard the
//       pipeline into K contiguous server groups (needs --threads > 1).
//       The placement is bit-identical at any thread/shard count.
//   mmrepl_cli audit --system=sys.txt --placement=placement.txt
//       Re-check Eq. 8/9/10 and print the objective.
//   mmrepl_cli simulate --system=sys.txt --placement=placement.txt
//       Measure response times under the Sec. 5.1 perturbation model.
//       Quantiles come from streaming sketches (src/obs/), so memory stays
//       bounded at any --requests count. [--slo=R,S,T] [--window=N] tune
//       the SLO evaluation (N is the base window width; windows double to
//       stay within 512); --sketch-out=<path> (any command that simulates)
//       writes the mmr-sketch JSONL artifact.
//   mmrepl_cli simulate --des --system=sys.txt --placement=placement.txt
//       Discrete-event mode (sim/des.h): servers and the repository queue
//       for real. [--arrival-rate=X] scales the offered load,
//       [--concurrency=N] / [--repo-concurrency=N] set connection slots,
//       [--queue-cap=N] bounds pending connections (Eq. 8 as a queue),
//       [--discipline=fifo|ps] picks the service discipline and
//       [--overflow=redirect|reject] what happens past the cap.
//       [--threads=N --shards=K] shard the per-server event loops; the
//       results are byte-identical at any thread/shard count.
//
// Every command also accepts --metrics-out=<path> / --trace-out=<path> to
// dump the run's metrics.json / Chrome trace.json, plus
// --audit-out=<path> / --flight-out=<path> [--flight-sample=N] for the
// solver audit log and per-request flight recorder (docs/OBSERVABILITY.md).
//
// Resource telemetry (docs/OBSERVABILITY.md "Watching a long solve"):
//   --timeline-out=<path> [--timeline-interval-ms=100]
//       background RSS/memacct/phase sampler, mmr-timeline JSONL on exit
//   --progress         single-line stderr progress/ETA per solver phase
//   --mem-budget=<bytes>
//       fail fast (exit 3) before tracked allocations exceed the budget
//
// Queue dynamics (docs/OBSERVABILITY.md "Watching the queues"; DES mode):
//   --timeseries-out=<path> [--ts-window=SECONDS] [--ts-max-windows=N]
//       per-station queue-depth/utilization windows, mmr-timeseries JSONL
//   --invariants-out=<path>
//       conservation-law audit verdicts, mmr-invariants JSONL
#include <algorithm>
#include <chrono>
#include <iostream>
#include <memory>

#include "core/policy.h"
#include "io/artifacts.h"
#include "io/serialize.h"
#include "obs/artifact_sink.h"
#include "obs/obs.h"
#include "sim/des.h"
#include "sim/simulator.h"
#include "util/flags.h"
#include "util/memacct.h"
#include "util/thread_pool.h"
#include "util/table.h"
#include "workload/generator.h"
#include "workload/stats.h"

namespace {

using namespace mmr;

int cmd_generate(const Flags& flags) {
  const std::string out = flags.get_string("out", "");
  MMR_CHECK_MSG(!out.empty(), "generate requires --out=<path>");
  WorkloadParams params;
  params.storage_fraction = flags.get_double("storage", 1.0);
  params.num_servers =
      static_cast<std::uint32_t>(flags.get_int("servers", 10));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const SystemModel sys = generate_workload(params, seed);
  save_system_file(sys, out);
  std::cout << "wrote " << out << ": " << sys.num_pages() << " pages, "
            << sys.num_objects() << " objects, " << sys.num_servers()
            << " servers\n";
  return 0;
}

int cmd_describe(const Flags& flags) {
  const std::string path = flags.get_string("system", "");
  MMR_CHECK_MSG(!path.empty(), "describe requires --system=<path>");
  const SystemModel sys = load_system_file(path);
  std::cout << characterize(sys).to_string();
  return 0;
}

int cmd_solve(const Flags& flags) {
  const std::string sys_path = flags.get_string("system", "");
  const std::string out = flags.get_string("out", "");
  MMR_CHECK_MSG(!sys_path.empty() && !out.empty(),
                "solve requires --system=<path> --out=<path>");
  const SystemModel sys = load_system_file(sys_path);
  // Pre-flight: the assignment's bit-tables are the largest solver
  // allocation; fail before thrashing when a --mem-budget is set.
  memacct::check_headroom(Assignment::estimate_bits_bytes(sys) +
                              Assignment::estimate_caches_bytes(sys),
                          "assignment tables");
  PolicyOptions options;
  options.offload_enabled = !flags.get_bool("no-offload", false);
  options.weights.alpha1 = flags.get_double("alpha1", 2.0);
  options.weights.alpha2 = flags.get_double("alpha2", 1.0);
  const auto threads =
      static_cast<std::size_t>(std::max<std::int64_t>(0, flags.get_int("threads", 1)));
  options.shards = static_cast<std::uint32_t>(
      std::max<std::int64_t>(0, flags.get_int("shards", 0)));
  std::unique_ptr<ThreadPool> pool;
  if (threads != 1) {
    pool = std::make_unique<ThreadPool>(threads);
    options.pool = pool.get();
  }
  const PolicyResult result = run_replication_policy(sys, options);
  std::cout << result.summary();
  save_assignment_file(result.assignment, out);
  std::cout << "wrote " << out << '\n';
  return result.feasible ? 0 : 2;
}

int cmd_audit(const Flags& flags) {
  const std::string sys_path = flags.get_string("system", "");
  const std::string asg_path = flags.get_string("placement", "");
  MMR_CHECK_MSG(!sys_path.empty() && !asg_path.empty(),
                "audit requires --system=<path> --placement=<path>");
  const SystemModel sys = load_system_file(sys_path);
  const Assignment asg = load_assignment_file(sys, asg_path);
  const ConstraintReport report = audit_constraints(sys, asg);
  const Weights w{flags.get_double("alpha1", 2.0),
                  flags.get_double("alpha2", 1.0)};
  std::cout << "D1 = " << format_double(objective_d1(sys, asg), 2)
            << "  D2 = " << format_double(objective_d2(sys, asg), 2)
            << "  D = " << format_double(objective_total(sys, asg, w), 2)
            << '\n';
  if (report.ok()) {
    std::cout << "all constraints satisfied\n";
    return 0;
  }
  for (const auto& v : report.violations) {
    std::cout << "VIOLATION: " << v.describe() << '\n';
  }
  return 2;
}

int cmd_simulate_des(const Flags& flags, const SystemModel& sys,
                     const Assignment& asg) {
  DesParams params;
  params.requests_per_server =
      static_cast<std::uint32_t>(flags.get_int("requests", 10000));
  params.arrival_rate_scale = flags.get_double("arrival-rate", 1.0);
  params.server_concurrency =
      static_cast<std::uint32_t>(flags.get_int("concurrency", 8));
  params.repo_concurrency =
      static_cast<std::uint32_t>(flags.get_int("repo-concurrency", 64));
  params.queue_cap =
      static_cast<std::uint32_t>(flags.get_int("queue-cap", 1024));
  params.discipline =
      parse_queue_discipline(flags.get_string("discipline", "fifo"));
  params.overflow =
      parse_overflow_policy(flags.get_string("overflow", "redirect"));
  params.shards = static_cast<std::uint32_t>(
      std::max<std::int64_t>(0, flags.get_int("shards", 0)));
  const auto threads = static_cast<std::size_t>(
      std::max<std::int64_t>(1, flags.get_int("threads", 1)));
  std::unique_ptr<ThreadPool> pool;
  if (threads != 1) {
    pool = std::make_unique<ThreadPool>(threads);
    params.pool = pool.get();
  }
  set_obs_enabled(true);
  const DesSimulator sim(sys, params);
  const DesMetrics m = sim.simulate(
      asg, static_cast<std::uint64_t>(flags.get_int("seed", 1)));
  set_obs_gauges();
  const std::vector<ObsShard> groups = global_obs_log().snapshot();
  const ObsConfig ocfg = obs_config();
  QuantileSketch sojourn(ocfg.alpha, ocfg.max_buckets);
  QuantileSketch stretch(ocfg.alpha, ocfg.max_buckets);
  MMR_CHECK_MSG(merge_obs_groups(groups, &sojourn, &stretch),
                "simulation produced no telemetry");
  TextTable t({"metric", "value"});
  t.add_row({"arrivals", std::to_string(m.arrivals)});
  t.add_row({"completions", std::to_string(m.completions)});
  t.add_row({"rejected", std::to_string(m.rejects)});
  t.add_row({"redirected to R", std::to_string(m.redirects)});
  t.add_row({"mean sojourn [s]", format_double(m.sojourn.mean(), 3)});
  t.add_row({"p50 sojourn [s]", format_double(sojourn.quantile(0.5), 3)});
  t.add_row({"p95 sojourn [s]", format_double(sojourn.quantile(0.95), 3)});
  t.add_row({"p99 sojourn [s]", format_double(sojourn.quantile(0.99), 3)});
  t.add_row({"p99 stretch", format_double(stretch.quantile(0.99), 2)});
  t.add_row({"mean queue wait [s]", format_double(m.wait.mean(), 3)});
  t.add_row({"server utilization", format_percent(m.server_utilization)});
  t.add_row({"repository utilization", format_percent(m.repo_utilization)});
  t.add_row({"peak server queue", std::to_string(m.queue_peak)});
  t.add_row({"peak repository queue", std::to_string(m.repo_queue_peak)});
  t.add_row({"kernel events", std::to_string(m.events)});
  t.print(std::cout,
          "discrete-event simulation (" +
              std::to_string(params.requests_per_server) +
              " requests/server, " +
              std::string(queue_discipline_name(params.discipline)) + ", " +
              std::string(overflow_policy_name(params.overflow)) + ")");
  return 0;
}

int cmd_simulate(const Flags& flags) {
  const std::string sys_path = flags.get_string("system", "");
  const std::string asg_path = flags.get_string("placement", "");
  MMR_CHECK_MSG(!sys_path.empty() && !asg_path.empty(),
                "simulate requires --system=<path> --placement=<path>");
  const SystemModel sys = load_system_file(sys_path);
  const Assignment asg = load_assignment_file(sys, asg_path);
  if (flags.get_bool("des", false)) return cmd_simulate_des(flags, sys, asg);
  SimParams params;
  params.requests_per_server =
      static_cast<std::uint32_t>(flags.get_int("requests", 10000));
  // Quantiles come from the streaming sketch instead of a per-request
  // sample vector: bounded memory at any request count, values within the
  // sketch's relative-error bound of the exact sample quantiles.
  set_obs_enabled(true);
  const Simulator sim(sys, params);
  const SimMetrics m = sim.simulate(
      asg, static_cast<std::uint64_t>(flags.get_int("seed", 1)));
  set_obs_gauges();
  const std::vector<ObsShard> groups = global_obs_log().snapshot();
  const ObsConfig ocfg = obs_config();
  QuantileSketch response(ocfg.alpha, ocfg.max_buckets);
  QuantileSketch stretch(ocfg.alpha, ocfg.max_buckets);
  MMR_CHECK_MSG(merge_obs_groups(groups, &response, &stretch),
                "simulation produced no telemetry");
  TextTable t({"metric", "value"});
  t.add_row({"mean page response [s]",
             format_double(m.page_response.mean(), 2)});
  t.add_row({"p50 [s]", format_double(response.quantile(0.5), 2)});
  t.add_row({"p90 [s]", format_double(response.quantile(0.9), 2)});
  t.add_row({"p99 [s]", format_double(response.quantile(0.99), 2)});
  t.add_row({"p99.9 [s]", format_double(response.quantile(0.999), 2)});
  t.add_row({"p99 stretch", format_double(stretch.quantile(0.99), 2)});
  const SloReport slo = groups.front().windows.evaluate();
  t.add_row({"SLO attainment", format_percent(slo.attainment)});
  t.add_row({"worst window burn", format_double(slo.worst_burn_1, 2)});
  t.add_row({"mean optional download [s]",
             m.optional_time.empty()
                 ? "-"
                 : format_double(m.optional_time.mean(), 2)});
  t.print(std::cout, "simulation (" +
                         std::to_string(params.requests_per_server) +
                         " requests/server)");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mmr;
  const Flags flags = Flags::parse(argc, argv);
  const std::string usage =
      "usage: mmrepl_cli <generate|describe|solve|audit|simulate> "
      "[--flags]\n(see the header of examples/mmrepl_cli.cpp)\n";
  if (flags.positional().empty()) {
    std::cerr << usage;
    return 1;
  }
  const std::string& cmd = flags.positional()[0];
  // Collectors and window/SLO settings must be in place before any solve
  // or simulate creates a shard.
  const ArtifactSink sink(flags);
  const auto start = std::chrono::steady_clock::now();
  try {
    int rc;
    if (cmd == "generate") {
      rc = cmd_generate(flags);
    } else if (cmd == "describe") {
      rc = cmd_describe(flags);
    } else if (cmd == "solve") {
      rc = cmd_solve(flags);
    } else if (cmd == "audit") {
      rc = cmd_audit(flags);
    } else if (cmd == "simulate") {
      rc = cmd_simulate(flags);
    } else {
      std::cerr << "unknown command '" << cmd << "'\n" << usage;
      return 1;
    }
    if (sink.any()) {
      RunMeta meta;
      meta.tool = "mmrepl_cli";
      meta.add("command", cmd);
      meta.add("wall_seconds",
               std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
                   .count());
      sink.write(meta);
    }
    return rc;
  } catch (const memacct::MemBudgetError& e) {
    std::cerr << "error: " << e.what() << '\n';
    return memacct::kMemBudgetExitCode;
  } catch (const CheckError& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
