#include "obs/invariants.h"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "util/check.h"

namespace mmr {

namespace {

/// |observed - expected| normalized by max(1, |expected|): relative error
/// for large quantities, absolute for counts near zero. The parser
/// recomputes this with the same expression, so round-tripped verdicts
/// reproduce exactly.
double check_error(double expected, double observed) {
  return std::abs(observed - expected) / std::max(1.0, std::abs(expected));
}

InvariantCheck make_check(const TimeseriesShard& group, const char* law,
                          double expected, double observed,
                          double tolerance) {
  InvariantCheck c;
  c.policy = group.policy;
  c.mode = group.mode;
  c.law = law;
  c.expected = expected;
  c.observed = observed;
  c.error = check_error(expected, observed);
  c.tolerance = tolerance;
  c.ok = c.error <= tolerance;
  return c;
}

InvariantCheck station_check(const TimeseriesShard& group,
                             std::int32_t station, const char* law,
                             double expected, double observed,
                             double tolerance) {
  InvariantCheck c = make_check(group, law, expected, observed, tolerance);
  c.per_station = true;
  c.station = station;
  return c;
}

}  // namespace

InvariantsReport audit_timeseries(const std::vector<TimeseriesShard>& groups,
                                  const InvariantTolerances& tol) {
  InvariantsReport report;
  for (const TimeseriesShard& group : groups) {
    for (std::size_t i = 0; i < group.stations.size(); ++i) {
      const StationSeries& s = group.stations[i];
      const std::int32_t id = i + 1 == group.stations.size()
                                  ? kRepositoryStation
                                  : static_cast<std::int32_t>(i);
      report.checks.push_back(station_check(
          group, id, "little", s.time_in_station_s, s.occupancy_area_s,
          tol.little_rel));
      report.checks.push_back(station_check(
          group, id, "flow", static_cast<double>(s.arrivals),
          static_cast<double>(s.admitted + s.redirected + s.rejected), 0.0));
      report.checks.push_back(station_check(
          group, id, "drain", static_cast<double>(s.admitted),
          static_cast<double>(s.served), 0.0));
      report.checks.push_back(station_check(
          group, id, "monotone_time", 0.0,
          static_cast<double>(s.time_violations), 0.0));
    }
    // Run-level flow: every page arrival either completes or is rejected.
    report.checks.push_back(make_check(
        group, "flow", static_cast<double>(group.des_arrivals),
        static_cast<double>(group.des_completions + group.des_rejects),
        0.0));
    // Busy-time vs utilization: the window-spread busy seconds and the
    // Stations' own busy_seconds() must describe the same utilization of
    // horizon × slots. (Optional fetches at remote stations are part of
    // both sides; the comparison is between the two measurement paths.)
    const std::uint32_t n = group.num_servers();
    double station_busy = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      station_busy += group.stations[i].busy_spread_s;
    }
    const double server_cap = group.horizon_s * static_cast<double>(n) *
                              static_cast<double>(group.server_concurrency);
    report.checks.push_back(make_check(
        group, "utilization_servers",
        server_cap > 0 ? group.des_server_busy_s / server_cap : 0.0,
        server_cap > 0 ? station_busy / server_cap : 0.0, tol.busy_rel));
    const double repo_cap =
        group.horizon_s * static_cast<double>(group.repo_concurrency);
    report.checks.push_back(make_check(
        group, "utilization_repo",
        repo_cap > 0 ? group.des_repo_busy_s / repo_cap : 0.0,
        repo_cap > 0 ? group.repository().busy_spread_s / repo_cap : 0.0,
        tol.busy_rel));
  }
  for (const InvariantCheck& c : report.checks) {
    if (!c.ok) ++report.violations;
  }
  return report;
}

// ---------------------------------------------------------------------------
// Writer.

void write_invariants_jsonl(std::ostream& os, const InvariantsReport& report,
                            const InvariantTolerances& tol,
                            const RunMeta& meta) {
  write_jsonl_header(os, "mmr-invariants", kInvariantsVersion, meta,
                     [&](JsonWriter& w) {
                       w.kv("little_rel", tol.little_rel);
                       w.kv("busy_rel", tol.busy_rel);
                     });
  for (const InvariantCheck& c : report.checks) {
    write_jsonl_record(os, "check", [&](JsonWriter& w) {
      w.kv("policy", c.policy);
      w.kv("mode", flight_mode_name(c.mode));
      w.kv("law", c.law);
      if (c.per_station) w.kv("station", static_cast<std::int64_t>(c.station));
      w.kv("expected", c.expected);
      w.kv("observed", c.observed);
      w.kv("error", c.error);
      w.kv("tolerance", c.tolerance);
      w.kv("ok", c.ok);
    });
  }
  write_jsonl_summary(os, "events", report.checks.size(), 0,
                      [&](JsonWriter& w) {
                        w.kv("violations", report.violations);
                        w.kv("ok", report.all_ok());
                      });
}

void write_invariants_file(const std::string& path, const TimeseriesLog& log,
                           const RunMeta& meta,
                           const InvariantTolerances& tol) {
  const InvariantsReport report = audit_timeseries(log.snapshot(), tol);
  write_artifact_file(path, [&](std::ostream& os) {
    write_invariants_jsonl(os, report, tol, meta);
  });
}

// ---------------------------------------------------------------------------
// Parser.

InvariantsDoc parse_invariants_jsonl(const std::string& text,
                                     const JsonlVisitor& on_record) {
  static const JsonlFormat kFormat[] = {{
      .schema = "mmr-invariants",
      .version = kInvariantsVersion,
      .header_fields = {"little_rel", "busy_rel"},
      .record_fields = {"policy", "mode"},
      .records = {{"check",
                   {"law", "expected", "observed", "error", "tolerance",
                    "ok"}}},
  }};
  InvariantsDoc doc;
  std::uint64_t failed = 0;
  JsonlHooks hooks;
  hooks.record = [&](const JsonValue& v, std::size_t line_no) {
    const std::string where =
        "invariants check line " + std::to_string(line_no);
    const std::string& law = v.at("law").str_v;
    MMR_CHECK_MSG(law == "little" || law == "flow" || law == "drain" ||
                      law == "monotone_time" || law == "utilization_servers" ||
                      law == "utilization_repo",
                  where + " has unknown law '" + law + "'");
    const double err =
        check_error(v.at("expected").num_v, v.at("observed").num_v);
    MMR_CHECK_MSG(v.at("error").num_v == err,
                  where + " error disagrees with expected/observed");
    MMR_CHECK_MSG(v.at("ok").bool_v == (err <= v.at("tolerance").num_v),
                  where + " verdict disagrees with its error/tolerance");
    if (!v.at("ok").bool_v) ++failed;
    doc.checks.push_back(v);
    if (on_record) on_record(v);
  };
  hooks.summary = [&](const JsonValue& v) {
    doc.declared_violations =
        static_cast<std::uint64_t>(v.at("violations").num_v);
    doc.declared_ok = v.at("ok").bool_v;
    MMR_CHECK_MSG(doc.declared_violations == failed,
                  "invariants summary declares " +
                      std::to_string(doc.declared_violations) +
                      " violations but " + std::to_string(failed) +
                      " check lines failed");
    MMR_CHECK_MSG(doc.declared_ok == (failed == 0),
                  "invariants summary verdict disagrees with its checks");
  };
  parse_jsonl(text, kFormat, doc, hooks);
  return doc;
}

}  // namespace mmr
