#include "obs/artifact_sink.h"

#include <algorithm>

#include "io/provenance.h"
#include "obs/invariants.h"
#include "obs/obs.h"
#include "obs/sketch_artifact.h"
#include "obs/timeseries.h"
#include "util/memacct.h"
#include "util/metrics.h"
#include "util/telemetry.h"
#include "util/trace.h"

namespace mmr {

ArtifactSink::ArtifactSink(const Flags& flags)
    : metrics_(flags.get_string("metrics-out", "")),
      trace_(flags.get_string("trace-out", "")),
      audit_(flags.get_string("audit-out", "")),
      flight_(flags.get_string("flight-out", "")),
      timeline_(flags.get_string("timeline-out", "")),
      sketch_(flags.get_string("sketch-out", "")),
      timeseries_(flags.get_string("timeseries-out", "")),
      invariants_(flags.get_string("invariants-out", "")) {
  set_progress_enabled(flags.get_bool("progress", false));
  const std::int64_t budget = flags.get_int("mem-budget", 0);
  if (budget > 0) {
    mem_budget_ = static_cast<std::uint64_t>(budget);
    memacct::set_budget_bytes(mem_budget_);
  }
  // The SLO settings apply to every obs shard, whether the sketch artifact
  // or a harness (--obs, CLI simulate) turned ingestion on.
  ObsConfig ocfg = obs_config();
  ocfg.window_s = flags.get_double("window", ocfg.window_s);
  const std::string slo_spec = flags.get_string("slo", "");
  if (!slo_spec.empty()) ocfg.slo = parse_slo_spec(slo_spec);
  set_obs_config(ocfg);
  if (!sketch_.empty()) set_obs_enabled(true);
  // The invariant auditor consumes the queue-dynamics collector, so either
  // output enables it.
  if (!timeseries_.empty() || !invariants_.empty()) {
    TimeseriesConfig tscfg = timeseries_config();
    tscfg.window_s = flags.get_double("ts-window", tscfg.window_s);
    tscfg.max_windows = static_cast<std::uint64_t>(flags.get_int(
        "ts-max-windows", static_cast<std::int64_t>(tscfg.max_windows)));
    set_timeseries_config(tscfg);
    set_timeseries_enabled(true);
  }
  if (!trace_.empty()) set_trace_enabled(true);
  if (!audit_.empty()) set_audit_enabled(true);
  if (!flight_.empty()) {
    set_flight_enabled(true);
    set_flight_sample_every(
        static_cast<std::uint32_t>(flags.get_int("flight-sample", 100)));
  }
  if (!timeline_.empty()) {
    TimelineOptions topt;
    topt.interval_ms = static_cast<std::uint32_t>(std::max<std::int64_t>(
        1, flags.get_int("timeline-interval-ms", 100)));
    global_timeline_sampler().start(topt);
  }
}

bool ArtifactSink::any() const {
  return !metrics_.empty() || !trace_.empty() || !audit_.empty() ||
         !flight_.empty() || !timeline_.empty() || !sketch_.empty() ||
         !timeseries_.empty() || !invariants_.empty();
}

void ArtifactSink::describe(RunMeta& meta) const {
  if (!flight_.empty()) {
    meta.add("flight_sample",
             static_cast<std::uint64_t>(flight_sample_every()));
  }
  if (!sketch_.empty()) {
    const ObsConfig ocfg = obs_config();
    meta.add("sketch_alpha", ocfg.alpha).add("sketch_window_s", ocfg.window_s);
  }
  if (!timeseries_.empty() || !invariants_.empty()) {
    meta.add("ts_window_s", timeseries_config().window_s);
  }
  if (mem_budget_ > 0) meta.add("mem_budget", mem_budget_);
}

void ArtifactSink::write(const RunMeta& meta) const {
  if (!metrics_.empty()) {
    write_metrics_file(metrics_, current_metrics().snapshot(), meta);
  }
  if (!trace_.empty()) write_trace_file(trace_, Tracer::instance(), meta);
  if (!audit_.empty()) write_audit_file(audit_, global_audit_log(), meta);
  if (!flight_.empty()) write_flight_file(flight_, global_flight_log(), meta);
  if (!timeline_.empty()) {
    TimelineSampler& sampler = global_timeline_sampler();
    const std::uint64_t dropped = sampler.dropped();
    sampler.stop();
    write_timeline_file(timeline_, sampler.snapshot(), dropped, meta);
  }
  if (!sketch_.empty()) write_sketch_file(sketch_, global_obs_log(), meta);
  if (!timeseries_.empty()) {
    write_timeseries_file(timeseries_, global_timeseries_log(), meta);
  }
  if (!invariants_.empty()) {
    write_invariants_file(invariants_, global_timeseries_log(), meta);
  }
}

}  // namespace mmr
