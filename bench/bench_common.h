// Shared plumbing for the figure/table bench harnesses: flag parsing into an
// ExperimentConfig, repeated-measurement support, and consistent result
// formatting.
//
// Every harness accepts:
//   --runs=N        seeded repetitions averaged per point (paper: 20)
//   --requests=N    page requests per server per run (paper: 10000)
//   --seed=N        base seed
//   --threads=N     worker threads (0 = hardware)
//   --quick         shrink to runs=5, requests=2000 for a fast look
//   --metrics-out=F write metrics.json when the harness exits
//   --trace-out=F   enable tracing, write trace.json when the harness exits
//   --bench-out=F   write a BENCH_<name>.json artifact when the harness
//                   exits (io/benchfmt schema)
//   --audit-out=F   enable the solver audit log, write audit JSONL on exit
//   --flight-out=F  enable the flight recorder, write flight JSONL on exit
//   --flight-sample=N  record every Nth page arrival (default 100)
//   --timeline-out=F   start the background resource sampler, write the
//                      mmr-timeline JSONL artifact on exit
//   --timeline-interval-ms=N  sampler tick interval (default 100)
//   --progress      single-line stderr progress/ETA for the solver phases
//   --mem-budget=N  fail fast (MemBudgetError) when tracked bytes exceed N
//   --reps=N        measured repetitions of the whole harness body; each rep
//                   contributes one sample per bench series (default 1)
//   --warmup=N      extra leading repetitions discarded from bench stats
//   --sketch-out=F  enable streaming telemetry, write the mmr-sketch JSONL
//                   artifact (quantile sketches, hot set, windowed SLO)
//   --obs           enable streaming telemetry without writing the artifact
//                   (obs.* gauges + sketch-derived bench series only)
//   --window=N      base SLO window width in virtual seconds (default 60;
//                   doubles as needed to keep at most 512 windows)
//   --slo=R,S,T     SLO spec: response threshold [s], stretch threshold,
//                   attainment target (default 2.0,1.5,0.99)
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <streambuf>
#include <string>
#include <utility>

#include "io/artifacts.h"
#include "io/benchfmt.h"
#include "io/provenance.h"
#include "obs/invariants.h"
#include "obs/obs.h"
#include "obs/sketch_artifact.h"
#include "obs/timeseries.h"
#include "sim/runner.h"
#include "util/check.h"
#include "util/flags.h"
#include "util/log.h"
#include "util/memacct.h"
#include "util/metrics.h"
#include "util/table.h"
#include "util/telemetry.h"
#include "util/trace.h"

namespace mmr::bench {

namespace detail {

/// Deferred artifact emission shared by every harness. Writers run from an
/// atexit handler on the main thread, after the harness' thread pools have
/// been torn down — so every worker's trace buffer has already flushed.
struct ArtifactState {
  bool initialized = false;
  std::string metrics_path;
  std::string trace_path;
  std::string bench_path;
  std::string audit_path;
  std::string flight_path;
  std::string timeline_path;
  std::string sketch_path;
  std::string timeseries_path;
  std::string invariants_path;
  std::uint32_t reps = 1;
  std::uint32_t warmup = 0;
  RunMeta meta;
  std::chrono::steady_clock::time_point start;
  /// Metrics snapshot at the end of the previous repetition, so each rep's
  /// bench samples are deltas rather than cumulative totals.
  MetricsSnapshot last_snapshot;
};

inline ArtifactState& artifact_state() {
  static ArtifactState state;
  return state;
}

inline void write_artifacts_at_exit() {
  // An exception escaping an atexit handler is std::terminate; a bad output
  // path must not turn a finished run into an abort.
  try {
    ArtifactState& state = artifact_state();
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      state.start)
            .count();
    state.meta.add("wall_seconds", wall);
    if (!state.metrics_path.empty()) {
      write_metrics_file(state.metrics_path, current_metrics().snapshot(),
                         state.meta);
    }
    if (!state.trace_path.empty()) {
      write_trace_file(state.trace_path, Tracer::instance(), state.meta);
    }
    if (!state.bench_path.empty()) {
      write_bench_file(state.bench_path,
                       bench_collector().build(state.meta.tool, state.meta,
                                               state.warmup));
    }
    if (!state.audit_path.empty()) {
      write_audit_file(state.audit_path, global_audit_log(), state.meta);
    }
    if (!state.flight_path.empty()) {
      write_flight_file(state.flight_path, global_flight_log(), state.meta);
    }
    if (!state.timeline_path.empty()) {
      TimelineSampler& sampler = global_timeline_sampler();
      const std::uint64_t dropped = sampler.dropped();
      sampler.stop();
      write_timeline_file(state.timeline_path, sampler.snapshot(), dropped,
                          state.meta);
    }
    if (!state.sketch_path.empty()) {
      write_sketch_file(state.sketch_path, global_obs_log(), state.meta);
    }
    if (!state.timeseries_path.empty()) {
      write_timeseries_file(state.timeseries_path, global_timeseries_log(),
                            state.meta);
    }
    if (!state.invariants_path.empty()) {
      write_invariants_file(state.invariants_path, global_timeseries_log(),
                            state.meta);
    }
  } catch (const std::exception& e) {
    std::cerr << "error: failed to write run artifacts: " << e.what() << "\n";
  }
}

/// Swallows std::cout for its lifetime (repeat measurement reps re-run the
/// whole harness body; only the first rep should print its tables).
class CoutSilencer {
 public:
  explicit CoutSilencer(bool active) : active_(active) {
    if (active_) prev_ = std::cout.rdbuf(&null_buf_);
  }
  ~CoutSilencer() {
    if (active_) std::cout.rdbuf(prev_);
  }
  CoutSilencer(const CoutSilencer&) = delete;
  CoutSilencer& operator=(const CoutSilencer&) = delete;

 private:
  struct NullBuf : std::streambuf {
    int overflow(int c) override { return c; }
  };
  bool active_;
  NullBuf null_buf_;
  std::streambuf* prev_ = nullptr;
};

}  // namespace detail

/// Wires --metrics-out/--trace-out/--bench-out to artifact files written
/// when the harness exits. Called by config_from_flags exactly once per
/// process; a second call is a programming error and fails fast instead of
/// silently re-registering the atexit writer over live ArtifactState.
inline void init_artifacts(const Flags& flags, const ExperimentConfig& cfg) {
  detail::ArtifactState& state = detail::artifact_state();
  MMR_CHECK_MSG(!state.initialized,
                "bench::init_artifacts called twice (config_from_flags may "
                "only run once per process)");
  state.initialized = true;
  state.metrics_path = flags.get_string("metrics-out", "");
  state.trace_path = flags.get_string("trace-out", "");
  state.bench_path = flags.get_string("bench-out", "");
  state.audit_path = flags.get_string("audit-out", "");
  state.flight_path = flags.get_string("flight-out", "");
  state.timeline_path = flags.get_string("timeline-out", "");
  state.sketch_path = flags.get_string("sketch-out", "");
  state.timeseries_path = flags.get_string("timeseries-out", "");
  state.invariants_path = flags.get_string("invariants-out", "");
  state.reps =
      static_cast<std::uint32_t>(std::max<std::int64_t>(1, flags.get_int("reps", 1)));
  state.warmup =
      static_cast<std::uint32_t>(std::max<std::int64_t>(0, flags.get_int("warmup", 0)));
  // Telemetry knobs that work with or without artifact outputs.
  set_progress_enabled(flags.get_bool("progress", false));
  const std::int64_t budget = flags.get_int("mem-budget", 0);
  if (budget > 0) {
    memacct::set_budget_bytes(static_cast<std::uint64_t>(budget));
  }
  // Streaming telemetry: config must be in place BEFORE the first simulate
  // call creates a shard. --obs turns ingestion on without the artifact.
  if (!state.sketch_path.empty() || flags.get_bool("obs", false)) {
    ObsConfig ocfg = obs_config();
    ocfg.window_s = flags.get_double("window", ocfg.window_s);
    const std::string slo_spec = flags.get_string("slo", "");
    if (!slo_spec.empty()) ocfg.slo = parse_slo_spec(slo_spec);
    set_obs_config(ocfg);
    set_obs_enabled(true);
  }
  // Queue-dynamics collection: like --sketch-out, the window config must be
  // in place before the first DES simulate creates a shard. The invariant
  // auditor consumes the same collector, so either output enables it.
  if (!state.timeseries_path.empty() || !state.invariants_path.empty()) {
    TimeseriesConfig tscfg = timeseries_config();
    tscfg.window_s = flags.get_double("ts-window", tscfg.window_s);
    tscfg.max_windows = static_cast<std::uint64_t>(flags.get_int(
        "ts-max-windows", static_cast<std::int64_t>(tscfg.max_windows)));
    set_timeseries_config(tscfg);
    set_timeseries_enabled(true);
  }
  if (state.metrics_path.empty() && state.trace_path.empty() &&
      state.bench_path.empty() && state.audit_path.empty() &&
      state.flight_path.empty() && state.timeline_path.empty() &&
      state.sketch_path.empty() && state.timeseries_path.empty() &&
      state.invariants_path.empty()) {
    return;
  }
  if (!state.trace_path.empty()) set_trace_enabled(true);
  if (!state.audit_path.empty()) set_audit_enabled(true);
  if (!state.flight_path.empty()) {
    set_flight_enabled(true);
    set_flight_sample_every(
        static_cast<std::uint32_t>(flags.get_int("flight-sample", 100)));
  }
  if (!state.timeline_path.empty()) {
    TimelineOptions topt;
    topt.interval_ms = static_cast<std::uint32_t>(
        std::max<std::int64_t>(1, flags.get_int("timeline-interval-ms", 100)));
    global_timeline_sampler().start(topt);
  }
  state.start = std::chrono::steady_clock::now();
  std::string tool = flags.program_name();
  const std::size_t slash = tool.find_last_of('/');
  if (slash != std::string::npos) tool = tool.substr(slash + 1);
  state.meta.tool = tool;
  state.meta.add("runs", static_cast<std::uint64_t>(cfg.runs))
      .add("requests_per_server",
           static_cast<std::uint64_t>(cfg.sim.requests_per_server))
      .add("base_seed", cfg.base_seed)
      .add("threads", static_cast<std::uint64_t>(cfg.threads))
      .add("reps", static_cast<std::uint64_t>(state.reps))
      .add("warmup", static_cast<std::uint64_t>(state.warmup));
  if (!state.flight_path.empty()) {
    state.meta.add("flight_sample",
                   static_cast<std::uint64_t>(flight_sample_every()));
  }
  if (!state.sketch_path.empty()) {
    const ObsConfig ocfg = obs_config();
    state.meta.add("sketch_alpha", ocfg.alpha)
        .add("sketch_window_s", ocfg.window_s);
  }
  if (!state.timeseries_path.empty() || !state.invariants_path.empty()) {
    state.meta.add("ts_window_s", timeseries_config().window_s);
  }
  if (budget > 0) {
    state.meta.add("mem_budget", static_cast<std::uint64_t>(budget));
  }
  std::atexit(detail::write_artifacts_at_exit);
}

inline ExperimentConfig config_from_flags(const Flags& flags) {
  ExperimentConfig cfg;
  cfg.runs = static_cast<std::uint32_t>(flags.get_int("runs", 20));
  cfg.sim.requests_per_server =
      static_cast<std::uint32_t>(flags.get_int("requests", 10000));
  cfg.base_seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  cfg.threads = static_cast<std::uint32_t>(flags.get_int("threads", 0));
  if (flags.get_bool("quick", false)) {
    cfg.runs = static_cast<std::uint32_t>(flags.get_int("runs", 5));
    cfg.sim.requests_per_server =
        static_cast<std::uint32_t>(flags.get_int("requests", 2000));
  }
  // Non-convergence is reported in the result tables ("[N unrestored]");
  // keep per-run warnings out of the bench output unless asked for.
  set_log_level(flags.get_bool("verbose", false) ? LogLevel::kInfo
                                                 : LogLevel::kError);
  init_artifacts(flags, cfg);
  return cfg;
}

inline Flags standard_flags(int argc, const char* const* argv) {
  Flags flags = Flags::parse(argc, argv);
  flags.describe("runs", "seeded repetitions per point (default 20)")
      .describe("requests", "page requests per server (default 10000)")
      .describe("seed", "base seed (default 42)")
      .describe("threads", "worker threads, 0 = hardware (default 0)")
      .describe("quick", "fast mode: runs=5, requests=2000")
      .describe("verbose", "enable info logging")
      .describe("metrics-out", "write metrics.json to this path on exit")
      .describe("trace-out",
                "enable tracing; write Chrome trace.json to this path on exit")
      .describe("bench-out",
                "write a BENCH_<name>.json benchmark artifact on exit")
      .describe("audit-out",
                "enable the solver audit log; write audit JSONL on exit")
      .describe("flight-out",
                "enable the flight recorder; write flight JSONL on exit")
      .describe("flight-sample",
                "flight recorder samples every Nth page arrival (default 100)")
      .describe("timeline-out",
                "start the resource sampler; write mmr-timeline JSONL on exit")
      .describe("timeline-interval-ms",
                "resource sampler tick interval (default 100)")
      .describe("progress", "single-line stderr progress/ETA per solver phase")
      .describe("mem-budget",
                "abort (exit 3) when tracked memory exceeds this many bytes")
      .describe("reps",
                "measured repetitions of the harness body (default 1); "
                "output prints once, every rep samples the bench series")
      .describe("warmup",
                "extra leading repetitions discarded from bench stats")
      .describe("sketch-out",
                "enable streaming telemetry; write mmr-sketch JSONL on exit")
      .describe("obs",
                "enable streaming telemetry without writing the artifact")
      .describe("window",
                "base SLO window width in virtual seconds (default 60; "
                "doubles to keep at most 512 windows)")
      .describe("slo",
                "SLO spec RESP_S,STRETCH_X,TARGET (default 2.0,1.5,0.99)")
      .describe("timeseries-out",
                "enable DES queue-dynamics collection; write mmr-timeseries "
                "JSONL on exit")
      .describe("ts-window",
                "queue-dynamics base window width in virtual seconds "
                "(default 60)")
      .describe("ts-max-windows",
                "cells per station before windows coarsen (default 512, "
                "0 = never)")
      .describe("invariants-out",
                "audit DES conservation laws; write mmr-invariants JSONL on "
                "exit");
  return flags;
}

/// Runs the harness body --warmup + --reps times (default once). Every
/// repetition samples the process bench series:
///   harness.wall_s — wall time of the body,
///   harness.cpu_user_s / harness.cpu_sys_s — rusage CPU-time deltas,
///   harness.peak_rss_bytes — process high-water RSS after the rep,
///   plus per-rep metrics deltas (timer.*, gauge.*, hist.*.pNN) via
///   record_metrics_delta, which is where solver wall-time, final D and
///   response-time percentiles enter the BENCH artifact.
/// Output is printed by the first repetition only. Returns the harness exit
/// code (always 0; kept as the return value so mains can `return` it).
template <typename Body>
inline int run_measured(Body&& body) {
  detail::ArtifactState& state = detail::artifact_state();
  const bool collect = !state.bench_path.empty();
  const std::uint32_t total =
      collect ? state.warmup + state.reps : 1;
  if (collect) state.last_snapshot = current_metrics().snapshot();
  for (std::uint32_t rep = 0; rep < total; ++rep) {
    detail::CoutSilencer quiet(rep > 0);
    const CpuTimes cpu0 = process_cpu_times();
    const auto t0 = std::chrono::steady_clock::now();
    body();
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const CpuTimes cpu1 = process_cpu_times();
    // Main-thread only, before the snapshot: the sketch-derived obs.*
    // gauges must land in this rep's metrics delta deterministically
    // (gauge merge order is thread-dependent for worker-set gauges).
    if (obs_enabled()) set_obs_gauges();
    if (collect) {
      bench_collector().record("harness.wall_s", "s", wall);
      bench_collector().record("harness.cpu_user_s", "s",
                               cpu1.user_s - cpu0.user_s);
      bench_collector().record("harness.cpu_sys_s", "s",
                               cpu1.sys_s - cpu0.sys_s);
      // High-water mark, not a delta: rusage peaks never decrease, so the
      // series is flat across reps once the footprint is established.
      bench_collector().record("harness.peak_rss_bytes", "B",
                               static_cast<double>(peak_rss_bytes()));
      const MetricsSnapshot cur = current_metrics().snapshot();
      record_metrics_delta(bench_collector(), state.last_snapshot, cur);
      state.last_snapshot = std::move(cur);
    }
  }
  return 0;
}

/// "+33.5% ± 2.1%" — mean relative increase with the 95% CI half-width.
inline std::string rel_cell(const RunningStats& s) {
  if (s.empty()) return "-";
  return format_percent(s.mean()) + " ± " +
         format_double(s.ci95_halfwidth() * 100.0, 1) + "%";
}

}  // namespace mmr::bench
