// The run-artifact flags every harness shares (bench/bench_common.h and
// examples/mmrepl_cli.cpp), read and acted on in one place:
//
//   --metrics-out=F --trace-out=F          metrics.json / Chrome trace.json
//   --audit-out=F --flight-out=F [--flight-sample=N]       mmr-audit/flight
//   --timeline-out=F [--timeline-interval-ms=N]            mmr-timeline
//   --sketch-out=F [--window=N] [--slo=R,S,T]              mmr-sketch
//   --timeseries-out=F --invariants-out=F
//       [--ts-window=S] [--ts-max-windows=N]     mmr-timeseries/invariants
//   --progress --mem-budget=N              stderr progress, memacct budget
//
// Constructing an ArtifactSink turns on every collector a requested output
// needs and applies the window/SLO settings — before the first solve or
// simulate creates a shard. write() emits every requested file at the end
// of the run, in a fixed order.
#pragma once

#include <cstdint>
#include <string>

#include "io/artifacts.h"
#include "util/flags.h"

namespace mmr {

class ArtifactSink {
 public:
  ArtifactSink() = default;
  explicit ArtifactSink(const Flags& flags);

  /// True when any --*-out path was given.
  bool any() const;

  /// Appends the collector settings the outputs were produced with to
  /// `meta`: flight_sample, sketch_alpha + sketch_window_s, ts_window_s and
  /// mem_budget, each only when its output or budget is on.
  void describe(RunMeta& meta) const;

  /// Writes every requested artifact (metrics, trace, audit, flight,
  /// timeline, sketch, timeseries, invariants), stopping the timeline
  /// sampler first. Throws CheckError when a file cannot be written.
  void write(const RunMeta& meta) const;

 private:
  std::string metrics_;
  std::string trace_;
  std::string audit_;
  std::string flight_;
  std::string timeline_;
  std::string sketch_;
  std::string timeseries_;
  std::string invariants_;
  std::uint64_t mem_budget_ = 0;
};

}  // namespace mmr
