// Conservation-law auditor for the discrete-event simulator
// (docs/OBSERVABILITY.md "Watching the queues").
//
// The timeseries collector (obs/timeseries.h) keeps two independent
// measurements of the same queueing run: per-job accounting (time in
// station, admission counts) and time-integral accounting (the occupancy
// area, window busy time). A correct simulator ties them together through
// classic conservation laws, so auditing them is a cheap end-to-end check
// on the whole event-loop/Station machinery:
//
//   little          L·T = Σ(time in station): the occupancy time-integral
//                   equals the summed sojourns of admitted jobs — Little's
//                   law L = λW with both sides multiplied by the horizon.
//   flow            offered = admitted + redirected + rejected per station,
//                   and arrivals = completions + rejects for the whole run.
//   drain           admitted = served per station (the event loops run to
//                   empty, so nothing is left in flight).
//   utilization     window-spread busy time and the Station's own
//                   busy_seconds() agree when both are expressed as
//                   utilization of horizon × slots.
//   monotone_time   no station ever observed virtual time going backwards.
//
// audit_timeseries() evaluates every law for every (policy, mode) group and
// station; the verdicts serialize as the `mmr-invariants` JSONL artifact
// (schema in docs/FORMATS.md) that `mmr_report` renders and CI gates on.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "io/artifacts.h"
#include "io/jsonl.h"
#include "obs/timeseries.h"
#include "util/json.h"

namespace mmr {

struct InvariantTolerances {
  /// Relative slack for Little's law (pure fp-summation noise: both sides
  /// are sums of the same per-job terms in different orders).
  double little_rel = 1e-6;
  /// Relative slack for the busy/utilization cross-check.
  double busy_rel = 1e-6;
};

/// One law evaluated for one station (or for the whole run when
/// `per_station` is false). `error` is |observed - expected| normalized by
/// max(1, |expected|); the verdict is `error <= tolerance`.
struct InvariantCheck {
  std::string policy;
  FlightMode mode = FlightMode::kDes;
  std::string law;
  bool per_station = false;
  std::int32_t station = 0;  ///< kRepositoryStation for R; unused otherwise
  double expected = 0;
  double observed = 0;
  double error = 0;
  double tolerance = 0;
  bool ok = true;
};

struct InvariantsReport {
  std::vector<InvariantCheck> checks;
  std::uint64_t violations = 0;
  bool all_ok() const { return violations == 0; }
};

/// Evaluates every conservation law for every group, in canonical
/// (group, station, law) order — deterministic bytes downstream.
InvariantsReport audit_timeseries(const std::vector<TimeseriesShard>& groups,
                                  const InvariantTolerances& tol = {});

// ---------------------------------------------------------------------------
// mmr-invariants artifact (schema in docs/FORMATS.md).

/// mmr-invariants schema version the writer emits and the parser accepts.
inline constexpr int kInvariantsVersion = 1;

void write_invariants_jsonl(std::ostream& os, const InvariantsReport& report,
                            const InvariantTolerances& tol,
                            const RunMeta& meta);

/// Snapshots the global timeseries log, audits it and writes the verdicts;
/// creates/truncates `path`.
void write_invariants_file(const std::string& path, const TimeseriesLog& log,
                           const RunMeta& meta,
                           const InvariantTolerances& tol = {});

/// Parsed mmr-invariants document: the one family that keeps its record
/// lines, a bounded few (one per law, station and group).
struct InvariantsDoc : JsonlDoc {
  std::vector<JsonValue> checks;  ///< the "check" lines, in file order
  std::uint64_t declared_violations = 0;
  bool declared_ok = true;
};

/// Strict parse: the io/jsonl.h envelope and record fields, then that each
/// line's verdict matches its own error/tolerance and that the summary's
/// violation count and verdict match the failed lines. Throws CheckError on
/// violation.
InvariantsDoc parse_invariants_jsonl(const std::string& text,
                                     const JsonlVisitor& on_record = {});
inline InvariantsDoc read_invariants_file(const std::string& path,
                                          const JsonlVisitor& on_record = {}) {
  return parse_invariants_jsonl(read_artifact_file(path), on_record);
}

}  // namespace mmr
