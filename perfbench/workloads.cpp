#include "workloads.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>

#include "baselines/static_policies.h"
#include "core/policy.h"
#include "io/artifacts.h"
#include "io/provenance.h"
#include "io/serialize.h"
#include "model/cost.h"
#include "obs/invariants.h"
#include "obs/obs.h"
#include "obs/sketch_artifact.h"
#include "obs/timeseries.h"
#include "sim/des.h"
#include "sim/runner.h"
#include "util/check.h"
#include "util/memacct.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"
#include "util/trace.h"
#include "workload/generator.h"
#include "workload/scale.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kSetups = 3;             ///< set-ups per untraced run
constexpr std::uint32_t kShards = 16;  ///< solver and DES shard count
constexpr double kTargetRho = 0.8;     ///< busiest station, calibrated
constexpr double kPilotScale = 1e-6;   ///< pilot arrival-rate scale
constexpr std::uint32_t kDesRequests = 20000;  ///< per site: 1M on 50 sites
constexpr std::uint32_t kFig1Runs = 20;
constexpr std::uint32_t kFig1Requests = 10000;
constexpr double kFig1Storage = 0.5;
constexpr std::uint32_t kFlightSample = 100;
constexpr int kSolvesBetween = 3;  ///< plain solves after each DES call

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

template <typename F>
double time_call(F&& f) {
  const auto t0 = Clock::now();
  f();
  return seconds_since(t0);
}

/// Until `seconds` have passed (at least once): times `call` in a
/// `bench.run` span, then runs `between` untimed. Returns each call's wall
/// time.
template <typename F, typename G>
std::vector<double> call_for(double seconds, F&& call, G&& between) {
  std::vector<double> walls;
  const auto start = Clock::now();
  do {
    {
      mmr::TraceSpan span("bench.run");
      walls.push_back(time_call(call));
    }
    between();
  } while (seconds_since(start) < seconds);
  return walls;
}

/// Appends the tracer's completed spans to `into` and empties the tracer.
void drain_tracer(std::vector<mmr::TraceEvent>* into) {
  mmr::Tracer& tracer = mmr::Tracer::instance();
  if (into != nullptr) {
    std::vector<mmr::TraceEvent> events = tracer.snapshot();
    into->insert(into->end(), std::make_move_iterator(events.begin()),
                 std::make_move_iterator(events.end()));
  }
  tracer.clear();
}

std::string num(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

bool all_equal(const std::vector<std::uint64_t>& v) {
  return std::adjacent_find(v.begin(), v.end(), std::not_equal_to<>()) ==
         v.end();
}

template <typename T>
std::uint64_t mix(std::uint64_t h, const T& value) {
  return fnv1a(&value, sizeof(value), h);
}

std::uint64_t digest(const mmr::Assignment& asg) {
  std::ostringstream os;
  mmr::save_assignment(asg, os);
  const std::string bytes = os.str();
  return fnv1a(bytes.data(), bytes.size());
}

/// Call before anything reads a quantile: SampleSet sorts on first use.
std::uint64_t digest(const mmr::DesMetrics& m) {
  std::uint64_t h = fnv1a(nullptr, 0);
  for (const std::uint64_t v :
       {m.arrivals, m.completions, m.rejects, m.redirects, m.optional_fetches,
        m.optional_rejects, m.repo_jobs, m.events}) {
    h = mix(h, v);
  }
  h = mix(h, m.queue_peak);
  h = mix(h, m.repo_queue_peak);
  for (const double v :
       {m.server_busy_s, m.repo_busy_s, m.horizon_s, m.sojourn.mean(),
        m.sojourn.stddev(), m.wait.mean(), m.stretch.mean(),
        m.optional_time.mean()}) {
    h = mix(h, v);
  }
  const std::vector<double>& s = m.sojourn_samples.samples();
  return fnv1a(s.data(), s.size() * sizeof(double), h);
}

mmr::PolicyOptions solver_options(mmr::ThreadPool* pool) {
  mmr::PolicyOptions options;
  options.pool = pool;
  options.shards = pool != nullptr ? kShards : 0;
  return options;
}

/// Empty when the placement is feasible, passes the Eq. 8-10 audit and its
/// cached objective equals a from-scratch evaluation; else what failed.
std::string placement_problem(const mmr::SystemModel& sys,
                              const mmr::PolicyResult& result,
                              const mmr::Weights& weights) {
  if (!result.feasible) return "infeasible";
  const mmr::ConstraintReport audit =
      mmr::audit_constraints(sys, result.assignment);
  if (!audit.ok()) return audit.violations.front().describe();
  const double fresh = mmr::objective_total(sys, result.assignment, weights);
  const double cached = result.d_after_offload;
  if (std::abs(fresh - cached) > 1e-9 * std::max(1.0, std::abs(fresh))) {
    return "cached D " + num(cached) + " != fresh " + num(fresh);
  }
  return "";
}

constexpr const char* kPlacementCheck =
    "placement is feasible, passes audit_constraints (Eq. 8-10) and its "
    "cached D equals a fresh evaluation";

/// Adds the counter increments from snapshot `a` to snapshot `b` to `into`.
void add_counter_deltas(std::map<std::string, double>& into,
                        const mmr::MetricsSnapshot& a,
                        const mmr::MetricsSnapshot& b) {
  for (const auto& [name, value] : b.counters) {
    const auto it = a.counters.find(name);
    const std::uint64_t before = it == a.counters.end() ? 0 : it->second;
    into[name] += static_cast<double>(value - before);
  }
}

/// The paper's Remote policy (every object from R) on `sys`, by the cost
/// model. The quality ratios divide by it, which takes the instance's own
/// scale (object sizes, link rates) out of them: across seeds, D varies by
/// about 7% on the small tier and D over this reference by about 2%.
struct RemoteReference {
  double d = 0;
  double download_s = 0;
};

RemoteReference remote_reference(const mmr::SystemModel& sys,
                                 const mmr::Weights& weights) {
  const mmr::Assignment remote = mmr::make_remote_assignment(sys);
  return {mmr::objective_total(sys, remote, weights),
          mmr::expected_mean_response_time(remote)};
}

/// A timed workload: set-up, one timed call, then outputs and checks.
class Workload {
 public:
  Workload(const Options& options, mmr::ThreadPool& pool)
      : opt_(options), pool_(pool) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Builds everything the timed call needs; may run several times.
  virtual void setup() = 0;
  /// One timed call into the library.
  virtual void call() = 0;
  /// Runs after each timed call, outside its time: the DES and scenario
  /// workloads time their solves here, so that solve_s is sampled across
  /// the whole measured window like run_s.
  virtual void between() {}
  /// Metrics and output checks; `walls` are the untraced call times.
  virtual void finish(Report& r, const std::vector<double>& walls) = 0;
  /// Traced pass only: thread-count digests and speedups.
  virtual void traced_extras(Report&, const std::vector<double>&) {}

  Tally ops;
  /// Times of the solves solve_s reports, where they are not the calls.
  std::vector<double> solve_walls;
  /// Spans a call drained from the tracer for an artifact of its own.
  std::vector<mmr::TraceEvent> kept_spans;
  /// Counter increments made while generating (the scale tiers calibrate
  /// capacities with a scratch solve); they belong to the workload layer.
  std::map<std::string, double> gen_counts;

 protected:
  /// `bench.gen` span around a generator call: workload.gen_s.
  template <typename F>
  auto generate(F&& gen) {
    const mmr::MetricsSnapshot before = mmr::current_metrics().snapshot();
    mmr::TraceSpan span("bench.gen");
    auto result = gen();
    add_counter_deltas(gen_counts, before, mmr::current_metrics().snapshot());
    return result;
  }

  const Options& opt_;
  mmr::ThreadPool& pool_;
};

// ---------------------------------------------------------------------------
// solve-large: the full pipeline on the 1000-site tier.

class SolveLarge final : public Workload {
 public:
  using Workload::Workload;

  void setup() override {
    result_.reset();
    sys_.reset();
    sys_ = generate([&] {
      return std::make_unique<mmr::SystemModel>(mmr::generate_scale_workload(
          mmr::scale_params(mmr::ScaleTier::kLarge),
          mmr::mix_seed(opt_.seed, 0x1A26E), {}, &pool_, kShards));
    });
  }

  void call() override {
    result_.reset();
    result_ = mmr::run_replication_policy(*sys_, solver_options(&pool_));
    objectives_.push_back(
        std::bit_cast<std::uint64_t>(result_->d_after_offload));
    ops.add(1, result_->feasible ? 0 : 1);
  }

  void finish(Report& r, const std::vector<double>& walls) override {
    r.check("every solve returns the same objective", all_equal(objectives_));
    if (opt_.traced) return;
    const std::string problem = placement_problem(*sys_, *result_, {});
    r.check(kPlacementCheck, problem.empty(), problem);
    const RemoteReference remote = remote_reference(*sys_, {});
    const double download =
        mmr::expected_mean_response_time(result_->assignment);
    r.set("solve_s", robust_median(walls));
    r.set("objective_ratio", result_->d_after_offload / remote.d);
    r.set("download_ratio", download / remote.download_s);
    r.info("objective_d", result_->d_after_offload, "1");
    r.info("download_ours_s", download, "s");
    r.info("pages", static_cast<double>(sys_->num_pages()), "count");
  }

  void traced_extras(Report& r, const std::vector<double>& walls) override {
    std::optional<mmr::PolicyResult> serial;
    const double t1 = time_call([&] {
      serial = mmr::run_replication_policy(*sys_, solver_options(nullptr));
    });
    r.check("solve output is byte-identical at 1 and " +
                std::to_string(pool_.thread_count()) + " threads",
            digest(serial->assignment) == digest(result_->assignment));
    r.set("core.speedup", t1 / robust_median(walls));
  }

 private:
  std::unique_ptr<mmr::SystemModel> sys_;
  std::optional<mmr::PolicyResult> result_;
  std::vector<std::uint64_t> objectives_;
};

// ---------------------------------------------------------------------------
// DES workloads: the small tier, its placement, and a calibrated load.

class DesWorkload : public Workload {
 public:
  using Workload::Workload;

  /// Generates the small tier, solves it, and calibrates the arrival rate
  /// from a pilot run so that the busiest station runs at kTargetRho.
  void setup() override {
    sim_.reset();
    placement_.reset();
    sys_.reset();
    sys_ = generate([&] {
      return std::make_unique<mmr::SystemModel>(mmr::generate_scale_workload(
          mmr::scale_params(mmr::ScaleTier::kSmall),
          mmr::mix_seed(opt_.seed, 0x5A11), {}, &pool_, kShards));
    });
    placement_ = mmr::run_replication_policy(*sys_, solver_options(&pool_));

    // The pilot keeps the main run's arrival count, so its horizon is the
    // main run's stretched by the rate ratio and utilisation scales
    // linearly between them.
    mmr::DesParams pilot = des_params(&pool_);
    pilot.arrival_rate_scale = kPilotScale;
    pilot.capture_samples = false;
    const mmr::DesMetrics p = mmr::DesSimulator(*sys_, pilot)
                                  .simulate(placement_->assignment, des_seed());
    pilot_rho_ = std::max(p.repo_utilization, p.server_utilization);
    rate_scale_ = calibrated_rate_scale(kPilotScale, p.repo_utilization,
                                        p.server_utilization, kTargetRho);
    sim_.emplace(*sys_, des_params(&pool_));
  }

 protected:
  mmr::DesParams des_params(mmr::ThreadPool* pool) const {
    mmr::DesParams params;
    params.requests_per_server = kDesRequests;
    params.arrival_rate_scale = rate_scale_;
    params.pool = pool;
    params.shards = pool != nullptr ? kShards : 0;
    params.capture_samples = true;
    return params;
  }

  std::uint64_t des_seed() const { return mmr::mix_seed(opt_.seed, 0xDE5); }

  /// Digests the last DES output, then times kSolvesBetween plain solves of
  /// the set-up's instance for solve_s.
  void between() override {
    digests_.push_back(digest(last_));
    for (int i = 0; i < kSolvesBetween; ++i) {
      std::optional<mmr::PolicyResult> result;
      solve_walls.push_back(time_call([&] {
        result = mmr::run_replication_policy(*sys_, solver_options(&pool_));
      }));
      solve_ds_.push_back(
          std::bit_cast<std::uint64_t>(result->d_after_offload));
    }
  }

  /// Outputs and checks shared by both DES workloads; `m` is a run of the
  /// calibrated DES on the setup's placement.
  void finish_des(Report& r, const mmr::DesMetrics& m) {
    const double rho = std::max(m.repo_utilization, m.server_utilization);
    r.check("DES conserves requests: arrivals = completions + rejects",
            m.arrivals == m.completions + m.rejects,
            std::to_string(m.arrivals) + " = " +
                std::to_string(m.completions) + " + " +
                std::to_string(m.rejects));
    r.check("no arrival is rejected", m.rejects == 0,
            std::to_string(m.rejects) + " rejected");
    r.check("busiest station is stable (rho < 1)", rho < 1.0,
            "rho = " + num(rho));
    const TailQuantile tail = tail_quantile(m.sojourn_samples.count());
    const double p50 = m.sojourn_samples.quantile(0.5);
    const double tail_s = m.sojourn_samples.quantile(tail.q);
    const double redirect_frac =
        static_cast<double>(m.redirects) / static_cast<double>(m.arrivals);
    if (!opt_.traced) {
      const std::string problem = placement_problem(*sys_, *placement_, {});
      r.check(kPlacementCheck, problem.empty(), problem);
      r.check("every solve returns the set-up's objective",
              std::all_of(solve_ds_.begin(), solve_ds_.end(),
                          [&](std::uint64_t d) {
                            return d == std::bit_cast<std::uint64_t>(
                                            placement_->d_after_offload);
                          }));
      // Remote cannot run at this load (it sends every object to R), so
      // the DES download time is set against the model's unloaded Remote.
      const RemoteReference remote = remote_reference(*sys_, {});
      r.set("solve_s", robust_median(solve_walls));
      r.set("objective_ratio", placement_->d_after_offload / remote.d);
      r.set("download_ratio", m.sojourn.mean() / remote.download_s);
      r.info("objective_d", placement_->d_after_offload, "1");
      r.info("download_ours_s", m.sojourn.mean(), "s");
      r.info("rho_busiest", rho, "1");
      r.info("rho_repo", m.repo_utilization, "1");
      r.info("rho_server", m.server_utilization, "1");
      r.info("pilot_rho_busiest", pilot_rho_, "1");
      r.info("arrival_rate_scale", rate_scale_, "1");
      r.info("sojourn_p50_s", p50, "s");
      r.info("sojourn_tail_s", tail_s, "s");
      r.info("sojourn_tail_q", tail.q, "1");
      r.info("sojourn_tail_beyond", static_cast<double>(tail.beyond), "count");
      r.info("arrivals", static_cast<double>(m.arrivals), "count");
      r.info("events", static_cast<double>(m.events), "count");
      r.info("redirects", static_cast<double>(m.redirects), "count");
      return;
    }
    r.set("des.rho_repo", m.repo_utilization);
    r.set("des.rho_server", m.server_utilization);
    r.set("des.repo_queue_peak", m.repo_queue_peak);
    r.set("des.queue_peak", m.queue_peak);
    r.set("des.wait_mean_s", m.wait.mean());
    r.set("des.redirect_frac", redirect_frac);
    r.set("des.sojourn_p50_s", p50);
    r.set("des.sojourn_tail_s", tail_s);
    r.set("des.sojourn_tail_q", tail.q);
    r.set("des.sojourn_tail_beyond", static_cast<double>(tail.beyond));
  }

  /// Re-runs the solve and the DES without a pool and checks both outputs
  /// are byte-identical to the pooled ones; sets the two speedups.
  /// `des_digest` and `des_wall` are a pooled DES run's digest and time.
  void traced_thread_checks(Report& r, std::uint64_t des_digest,
                            double des_wall) {
    std::optional<mmr::PolicyResult> serial;
    const double t_solve = time_call([&] {
      serial = mmr::run_replication_policy(*sys_, solver_options(nullptr));
    });
    const std::string at = " is byte-identical at 1 and " +
                           std::to_string(pool_.thread_count()) + " threads";
    r.check("solve output" + at,
            digest(serial->assignment) == digest(placement_->assignment));
    r.set("core.speedup", t_solve / robust_median(solve_walls));

    const mmr::DesSimulator serial_sim(*sys_, des_params(nullptr));
    mmr::DesMetrics serial_m;
    const double t_des = time_call([&] {
      serial_m = serial_sim.simulate(placement_->assignment, des_seed());
    });
    r.check("DES output" + at, digest(serial_m) == des_digest);
    r.set("des.speedup", t_des / des_wall);
  }

  std::unique_ptr<mmr::SystemModel> sys_;
  std::optional<mmr::PolicyResult> placement_;
  std::optional<mmr::DesSimulator> sim_;
  mmr::DesMetrics last_;               ///< the last timed call's DES output
  std::vector<std::uint64_t> digests_;  ///< of every timed call's DES output
  /// Objectives of every solve after set-up, bit patterns.
  std::vector<std::uint64_t> solve_ds_;
  double pilot_rho_ = 0;
  double rate_scale_ = 0;
};

// des-calibrated: the lean DES, collectors off.
class DesCalibrated final : public DesWorkload {
 public:
  using DesWorkload::DesWorkload;

  void call() override {
    last_ = sim_->simulate(placement_->assignment, des_seed());
    ops.add(last_.arrivals, last_.rejects);
  }

  void finish(Report& r, const std::vector<double>& walls) override {
    r.check("every DES run returns the same output", all_equal(digests_));
    finish_des(r, last_);
    const double wall = robust_median(walls);
    if (!opt_.traced) {
      r.info("des_requests_per_s", static_cast<double>(last_.arrivals) / wall,
             "1/s");
      return;
    }
    r.set("des.requests_per_s", static_cast<double>(last_.arrivals) / wall);
    r.set("des.events_per_s", static_cast<double>(last_.events) / wall);
  }

  void traced_extras(Report& r, const std::vector<double>& walls) override {
    traced_thread_checks(r, digests_.back(), robust_median(walls));
  }
};

// des-observed: solve with the audit log, the DES with every collector,
// then every artifact written and strictly re-read.

class DesObserved final : public DesWorkload {
 public:
  DesObserved(const Options& options, mmr::ThreadPool& pool)
      : DesWorkload(options, pool) {
    meta_.tool = "perfbench";
    meta_.add("workload", "des-observed").add("seed", options.seed);
  }

  void call() override {
    mmr::global_audit_log().clear();
    mmr::global_flight_log().clear();
    mmr::global_obs_log().clear();
    mmr::global_timeseries_log().clear();

    mmr::set_audit_enabled(true);
    std::optional<mmr::PolicyResult> placement;
    audited_walls_.push_back(time_call([&] {
      placement = mmr::run_replication_policy(*sys_, solver_options(&pool_));
    }));
    mmr::set_audit_enabled(false);
    solve_ds_.push_back(
        std::bit_cast<std::uint64_t>(placement->d_after_offload));

    // The trace artifact holds this call's DES spans only; a traced pass
    // keeps what came before for its layer table.
    const bool tracing = mmr::trace_enabled();
    drain_tracer(tracing ? &kept_spans : nullptr);
    mmr::set_obs_enabled(true);
    mmr::set_timeseries_enabled(true);
    mmr::set_flight_enabled(true);
    mmr::set_flight_sample_every(kFlightSample);
    mmr::set_trace_enabled(true);
    des_walls_.push_back(time_call(
        [&] { last_ = sim_->simulate(placement->assignment, des_seed()); }));
    mmr::set_trace_enabled(tracing);
    mmr::set_flight_enabled(false);
    mmr::set_timeseries_enabled(false);
    mmr::set_obs_enabled(false);
    ops.add(last_.arrivals, last_.rejects);

    write_and_parse_artifacts();
  }

  void finish(Report& r, const std::vector<double>& walls) override {
    r.check("every DES run returns the same output", all_equal(digests_));
    r.check("every artifact re-parses strictly", parse_errors_.empty(),
            parse_errors_);
    r.check("DES conservation laws hold (mmr-invariants)", invariants_ok_);
    finish_des(r, last_);
    std::uint64_t total = 0;
    for (const auto& [family, io] : io_) total += io.bytes;
    if (!opt_.traced) {
      r.info("observed_s", robust_median(walls), "s");
      r.info("audited_solve_s", robust_median(audited_walls_), "s");
      r.info("des_with_collectors_s", robust_median(des_walls_), "s");
      r.info("des_requests_per_s",
             static_cast<double>(last_.arrivals) / robust_median(des_walls_),
             "1/s");
      r.info("artifact_bytes", static_cast<double>(total), "bytes");
      r.info("obs_dropped", static_cast<double>(dropped_), "count");
      return;
    }
    r.set("io.artifact_bytes", static_cast<double>(total));
    r.set("obs.dropped", static_cast<double>(dropped_));
    for (const auto& [family, io] : io_) {
      r.set("io." + family + "_bytes", static_cast<double>(io.bytes));
      r.set("io." + family + ".write_s", robust_median(io.write_s_all));
      r.set("io." + family + ".parse_s", robust_median(io.parse_s_all));
    }
    const double wall = robust_median(des_walls_);
    r.set("des.requests_per_s", static_cast<double>(last_.arrivals) / wall);
    r.set("des.events_per_s", static_cast<double>(last_.events) / wall);
  }

  void traced_extras(Report& r, const std::vector<double>&) override {
    // Collection cost: the same DES with every collector off.
    mmr::DesMetrics lean;
    const double t_off = time_call(
        [&] { lean = sim_->simulate(placement_->assignment, des_seed()); });
    const std::uint64_t lean_digest = digest(lean);
    r.check("collectors do not change the DES output",
            lean_digest == digests_.back());
    r.set("obs.ns_per_event", (robust_median(des_walls_) - t_off) * 1e9 /
                                  static_cast<double>(last_.events));
    traced_thread_checks(r, lean_digest, t_off);
  }

 private:
  struct FamilyTimes {
    std::vector<double> write_s_all;
    std::vector<double> parse_s_all;
    std::uint64_t bytes = 0;
  };

  /// Writes one artifact, re-reads it with its strict parser, records the
  /// times and size, and deletes it. `parse` returns the declared dropped
  /// count and throws on a malformed document.
  template <typename Write, typename Parse>
  void round_trip(const std::string& family, const std::string& file,
                  Write&& write, Parse&& parse) {
    const std::string path =
        (std::filesystem::path(opt_.scratch_dir) / file).string();
    FamilyTimes& io = io_[family];
    io.write_s_all.push_back(time_call([&] { write(path); }));
    io.bytes = std::filesystem::file_size(path);
    try {
      io.parse_s_all.push_back(time_call([&] { dropped_ += parse(path); }));
    } catch (const std::exception& e) {
      io.parse_s_all.push_back(0);
      parse_errors_ += family + ": " + e.what() + "; ";
    }
    std::filesystem::remove(path);
  }

  static std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    MMR_CHECK_MSG(in, "cannot open " << path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }

  void write_and_parse_artifacts() {
    dropped_ = 0;
    round_trip(
        "audit", "audit.jsonl",
        [&](const std::string& p) {
          mmr::write_audit_file(p, mmr::global_audit_log(), meta_);
        },
        [](const std::string& p) {
          const mmr::ProvenanceDoc doc = mmr::read_provenance_file(p);
          MMR_CHECK_MSG(doc.schema == "mmr-audit", "schema " << doc.schema);
          return doc.declared_dropped;
        });
    round_trip(
        "flight", "flight.jsonl",
        [&](const std::string& p) {
          mmr::write_flight_file(p, mmr::global_flight_log(), meta_);
        },
        [](const std::string& p) {
          const mmr::ProvenanceDoc doc = mmr::read_provenance_file(p);
          MMR_CHECK_MSG(doc.schema == "mmr-flight", "schema " << doc.schema);
          return doc.declared_dropped;
        });
    round_trip(
        "sketch", "sketch.jsonl",
        [&](const std::string& p) {
          mmr::write_sketch_file(p, mmr::global_obs_log(), meta_);
        },
        [](const std::string& p) {
          return mmr::read_sketch_file(p).declared_dropped;
        });
    round_trip(
        "timeseries", "timeseries.jsonl",
        [&](const std::string& p) {
          mmr::write_timeseries_file(p, mmr::global_timeseries_log(), meta_);
        },
        [](const std::string& p) {
          return mmr::read_timeseries_file(p).declared_dropped;
        });
    invariants_ok_ = false;
    round_trip(
        "invariants", "invariants.jsonl",
        [&](const std::string& p) {
          mmr::write_invariants_file(p, mmr::global_timeseries_log(), meta_);
        },
        [&](const std::string& p) {
          const mmr::InvariantsDoc doc = mmr::read_invariants_file(p);
          invariants_ok_ = doc.declared_ok && !doc.checks.empty();
          return doc.declared_dropped;
        });
    round_trip(
        "trace", "trace.json",
        [&](const std::string& p) {
          mmr::write_trace_file(p, mmr::Tracer::instance(), meta_);
        },
        [](const std::string& p) {
          MMR_CHECK(mmr::json_parse(slurp(p)).has("traceEvents"));
          return std::uint64_t{0};
        });
    round_trip(
        "metrics", "metrics.json",
        [&](const std::string& p) {
          mmr::write_metrics_file(p, mmr::current_metrics().snapshot(),
                                  meta_);
        },
        [](const std::string& p) {
          MMR_CHECK(mmr::json_parse(slurp(p)).has("counters"));
          return std::uint64_t{0};
        });
  }

  mmr::RunMeta meta_;
  std::vector<double> audited_walls_;
  std::vector<double> des_walls_;
  std::map<std::string, FamilyTimes> io_;
  std::uint64_t dropped_ = 0;
  bool invariants_ok_ = false;
  std::string parse_errors_;
};

// ---------------------------------------------------------------------------
// paper-fig1: the paper's Figure-1 experiment at 50% storage.

class PaperFig1 final : public Workload {
 public:
  PaperFig1(const Options& options, mmr::ThreadPool& pool)
      : Workload(options, pool) {
    cfg_.runs = kFig1Runs;
    cfg_.sim.requests_per_server = kFig1Requests;
    cfg_.base_seed = mmr::mix_seed(options.seed, 0xF161);
    spec_.storage_fraction = kFig1Storage;
  }

  /// Generates the seeded Table-1 instances that run_scenario solves, so
  /// that the output check can audit the same placements: the unconstrained
  /// instance of each run with its storage cut to the scenario's share.
  void setup() override {
    resolved_.clear();
    instances_.clear();
    mmr::WorkloadParams wl = cfg_.workload;
    wl.server_proc_capacity = mmr::kUnlimited;
    wl.repo_proc_capacity = mmr::kUnlimited;
    wl.storage_fraction = 1.0;
    for (std::uint32_t run = 0; run < cfg_.runs; ++run) {
      instances_.push_back(generate([&] {
        return std::make_unique<mmr::SystemModel>(mmr::generate_workload(
            wl, mmr::mix_seed(cfg_.base_seed, 1000 + run)));
      }));
      mmr::set_storage_fraction(*instances_.back(), spec_.storage_fraction);
    }
  }

  void call() override {
    last_ = mmr::run_scenario(cfg_, spec_, &pool_);
    outputs_.push_back(fnv1a(nullptr, 0));
    for (const double v : {d(), ours(), lru(), settled(
                               last_.local.mean_response.mean()),
                           settled(last_.remote.mean_response.mean())}) {
      outputs_.back() = mix(outputs_.back(), v);
    }
    ops.add(last_.runs, last_.infeasible_runs);
  }

  /// Re-solves every run's instance at `nproc` threads, like the other
  /// workloads' solves (the output is the same at any thread count): the
  /// solve time, and the placements the scenario simulated, for the checks.
  void between() override {
    resolved_.clear();
    mmr::PolicyOptions options = cfg_.policy;
    options.pool = &pool_;
    options.shards = kShards;
    for (const auto& sys : instances_) {
      std::optional<mmr::PolicyResult> result;
      solve_walls.push_back(time_call([&] {
        result = mmr::run_replication_policy(*sys, options);
      }));
      resolved_.push_back(std::move(*result));
    }
  }

  void finish(Report& r, const std::vector<double>& walls) override {
    r.check("every scenario returns the same results", all_equal(outputs_));
    if (opt_.traced) {
      r.set("baselines.download_lru_s", lru());
      return;
    }
    mmr::RunningStats resolved_d;
    mmr::RunningStats d_ratio;
    std::string problems;
    for (std::size_t i = 0; i < instances_.size(); ++i) {
      const mmr::SystemModel& sys = *instances_[i];
      const mmr::PolicyResult& result = resolved_[i];
      const std::string problem =
          placement_problem(sys, result, cfg_.policy.weights);
      if (!problem.empty()) {
        problems += "run " + std::to_string(i) + ": " + problem + "; ";
      }
      resolved_d.add(result.d_after_offload);
      d_ratio.add(result.d_after_offload /
                  remote_reference(sys, cfg_.policy.weights).d);
    }
    r.check(std::string("every run's ") + kPlacementCheck, problems.empty(),
            problems);
    r.check("re-solved placements reproduce the scenario's mean D",
            settled(resolved_d.mean()) == d(),
            num(resolved_d.mean()) + " vs " + num(d()));
    r.set("solve_s", robust_median(solve_walls));
    r.set("objective_ratio", d_ratio.mean());
    r.set("download_ratio",
          ours() / settled(last_.remote.mean_response.mean()));
    r.info("objective_d", d(), "1");
    r.info("download_ours_s", ours(), "s");
    r.info("scenario_s", robust_median(walls), "s");
    r.info("download_lru_s", lru(), "s");
    r.info("download_local_s", last_.local.mean_response.mean(), "s");
    r.info("download_remote_s", last_.remote.mean_response.mean(), "s");
    r.info("download_unconstrained_s",
           last_.unconstrained_response.mean(), "s");
  }

  void traced_extras(Report& r, const std::vector<double>&) override {
    const mmr::SystemModel& sys = *instances_.front();
    std::optional<mmr::PolicyResult> pooled;
    std::optional<mmr::PolicyResult> serial;
    mmr::PolicyOptions options = cfg_.policy;
    options.pool = &pool_;
    options.shards = kShards;
    const double tn = time_call(
        [&] { pooled = mmr::run_replication_policy(sys, options); });
    const double t1 = time_call(
        [&] { serial = mmr::run_replication_policy(sys, cfg_.policy); });
    r.check("solve output is byte-identical at 1 and " +
                std::to_string(pool_.thread_count()) + " threads",
            digest(serial->assignment) == digest(pooled->assignment));
    r.set("core.speedup", t1 / tn);
  }

 private:
  /// run_scenario folds its runs into the means in the order they finish,
  /// so the last bits of a mean vary between calls; 12 significant digits
  /// are settled and repeat exactly at a seed.
  static double settled(double v) {
    std::ostringstream os;
    os.precision(12);
    os << v;
    return std::stod(os.str());
  }
  double d() const { return settled(last_.policy_d.mean()); }
  double ours() const { return settled(last_.ours.mean_response.mean()); }
  double lru() const { return settled(last_.lru.mean_response.mean()); }

  mmr::ExperimentConfig cfg_;
  mmr::ScenarioSpec spec_;
  std::vector<std::unique_ptr<mmr::SystemModel>> instances_;
  std::vector<mmr::PolicyResult> resolved_;  ///< last between(), per run
  mmr::ScenarioResult last_;
  std::vector<std::uint64_t> outputs_;
};

// ---------------------------------------------------------------------------
// The traced pass's layer table.

/// Library spans (and the benchmark's own `bench.gen`) per layer metric.
struct LayerSpans {
  const char* metric;
  std::vector<const char*> spans;
};

const std::vector<LayerSpans>& layer_spans() {
  static const std::vector<LayerSpans> layers = {
      {"workload.gen_s", {"bench.gen"}},
      {"core.partition_s", {"partition"}},
      {"core.storage_restore_s", {"storage_restore"}},
      {"core.processing_restore_s", {"processing_restore"}},
      {"core.offload_s", {"offload", "offload.round"}},
      {"des.servers_s", {"des.servers"}},
      {"des.repository_s", {"des.repository"}},
      {"des.score_s", {"des.score"}},
      {"sim.simulate_s", {"simulate"}},
      {"sim.simulate_lru_s", {"simulate_lru"}},
      {"runner.run_single_s", {"run_single"}},
  };
  return layers;
}

/// Library counters per layer metric.
const std::vector<std::pair<const char*, const char*>>& layer_counters() {
  static const std::vector<std::pair<const char*, const char*>> counters = {
      {"core.storage_restore.deallocations", "solver.storage.deallocations"},
      {"core.storage_restore.repartitioned_pages",
       "solver.storage.repartitioned_pages"},
      {"core.storage_restore.repartition_improvements",
       "solver.storage.repartition_improvements"},
      {"core.offload.rounds", "solver.offload.rounds"},
      {"core.offload.slots_absorbed", "solver.offload.slots_absorbed"},
      {"core.offload.swaps", "solver.offload.swaps"},
  };
  return counters;
}

/// Sets the span and counter layers. A layer is read from the timed calls
/// when they run it, and from the set-up otherwise (the DES workloads solve
/// their placement during set-up); a layer in neither reads 0.
void set_layers(Report& r, const std::vector<mmr::TraceEvent>& events,
                std::uint32_t main_tid,
                const std::map<std::string, double>& setup_counts,
                const std::map<std::string, double>& run_counts) {
  const auto runs = self_seconds_per_window(events, main_tid, "bench.run");
  const auto setups = self_seconds_per_window(events, main_tid, "bench.setup");
  const auto layer_time = [](const std::vector<std::map<std::string, double>>&
                                 windows,
                             const LayerSpans& layer) {
    std::vector<double> per_window;
    bool seen = false;
    for (const auto& sums : windows) {
      double t = 0;
      for (const char* span : layer.spans) {
        const auto it = sums.find(span);
        if (it != sums.end()) {
          t += it->second;
          seen = true;
        }
      }
      per_window.push_back(t);
    }
    return seen ? robust_median(per_window) : -1.0;
  };
  for (const LayerSpans& layer : layer_spans()) {
    double t = layer_time(runs, layer);
    if (t < 0) t = layer_time(setups, layer);
    r.set(layer.metric, std::max(t, 0.0));
  }

  const auto count = [&](const char* counter) {
    for (const auto* counts : {&run_counts, &setup_counts}) {
      const auto it = counts->find(counter);
      if (it != counts->end() && it->second > 0) return it->second;
    }
    return 0.0;
  };
  for (const auto& [metric, counter] : layer_counters()) {
    r.set(metric, count(counter));
  }
  const double repartitioned = count("solver.storage.repartitioned_pages");
  r.set("core.storage_restore.useful_frac",
        repartitioned > 0
            ? count("solver.storage.repartition_improvements") / repartitioned
            : 0.0);
  const double hits = count("sim.lru.hits");
  const double misses = count("sim.lru.misses");
  r.set("baselines.lru_hit_ratio",
        hits + misses > 0 ? hits / (hits + misses) : 0.0);
}

std::unique_ptr<Workload> make_workload(const Options& opt,
                                        mmr::ThreadPool& pool) {
  if (opt.workload == "solve-large") {
    return std::make_unique<SolveLarge>(opt, pool);
  }
  if (opt.workload == "des-calibrated") {
    return std::make_unique<DesCalibrated>(opt, pool);
  }
  if (opt.workload == "paper-fig1") {
    return std::make_unique<PaperFig1>(opt, pool);
  }
  if (opt.workload == "des-observed") {
    return std::make_unique<DesObserved>(opt, pool);
  }
  MMR_CHECK_MSG(false, "unknown workload '" << opt.workload << "'");
  return nullptr;
}

void run_untraced(const Options& opt, Workload& w, Report& r) {
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    setups.push_back(time_call([&] { w.setup(); }));
  }
  const std::vector<double> walls =
      call_for(opt.seconds, [&] { w.call(); }, [&] { w.between(); });
  w.finish(r, walls);
  r.set("setup_s", robust_median(setups));
  r.set("run_s", robust_median(walls));
  r.set("peak_rss_bytes", static_cast<double>(mmr::peak_rss_bytes()));
  r.ops() = w.ops;
  r.set("ok_frac", w.ops.ok_frac());
}

/// One traced set-up, then half the time untraced and half traced: the
/// layer table comes from the traced half, the overhead from the ratio.
void run_traced(const Options& opt, Workload& w, Report& r) {
  mmr::Tracer& tracer = mmr::Tracer::instance();
  const std::uint32_t main_tid = tracer.current_thread_tid();
  std::vector<mmr::TraceEvent> events;

  mmr::set_trace_enabled(true);
  tracer.clear();
  const mmr::MetricsSnapshot m0 = mmr::current_metrics().snapshot();
  {
    mmr::TraceSpan span("bench.setup");
    w.setup();
  }
  const mmr::MetricsSnapshot m1 = mmr::current_metrics().snapshot();
  drain_tracer(&events);

  mmr::set_trace_enabled(false);
  const std::vector<double> untraced =
      call_for(opt.seconds / 2, [&] { w.call(); }, [&] { w.between(); });
  w.kept_spans.clear();
  tracer.clear();
  // Counters of the timed calls only: the untimed solves between them
  // would count twice.
  std::map<std::string, double> run_counts;
  mmr::set_trace_enabled(true);
  const std::vector<double> traced = call_for(
      opt.seconds / 2,
      [&] {
        const mmr::MetricsSnapshot before = mmr::current_metrics().snapshot();
        w.call();
        add_counter_deltas(run_counts, before,
                           mmr::current_metrics().snapshot());
      },
      [&] { w.between(); });
  mmr::set_trace_enabled(false);
  events.insert(events.end(), w.kept_spans.begin(), w.kept_spans.end());
  drain_tracer(&events);

  for (auto& [name, n] : run_counts) n /= static_cast<double>(traced.size());
  std::map<std::string, double> setup_counts;
  add_counter_deltas(setup_counts, m0, m1);
  for (const auto& [name, n] : w.gen_counts) setup_counts[name] -= n;
  set_layers(r, events, main_tid, setup_counts, run_counts);
  r.set("trace.overhead", robust_median(traced) / robust_median(untraced));
  w.finish(r, untraced);
  w.traced_extras(r, untraced);
  r.set("model.tracked_peak_bytes",
        static_cast<double>(mmr::memacct::total_peak_bytes()));
  r.ops() = w.ops;
  r.set("failed_frac", w.ops.failed_frac());
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "solve-large", "des-calibrated", "paper-fig1", "des-observed"};
  return names;
}

void run_workload(const Options& options, Report& report) {
  MMR_CHECK_MSG(options.seconds > 0, "--seconds must be > 0");
  mmr::ThreadPool pool(0);
  const std::unique_ptr<Workload> w = make_workload(options, pool);
  if (options.traced) {
    run_traced(options, *w, report);
  } else {
    run_untraced(options, *w, report);
  }
}

}  // namespace perfbench
