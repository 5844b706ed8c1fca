// mmr_report — join a run's observability artifacts into one report
// (docs/OBSERVABILITY.md "Run reports").
//
//   mmr_report [--metrics=metrics.json] [--trace=trace.json]
//              [--audit=audit.jsonl] [--flight=flight.jsonl]
//              [--timeline=timeline.jsonl] [--sketch=sketch.jsonl]
//              [--scale=BENCH_scale.json]
//       [--policy=ours]    restrict audit/flight sections to one policy
//                          label; falls back to all events when no event
//                          carries the label
//       [--top=10]         rows in the slowest-pages and trace tables
//       [--format=text]    text (aligned ASCII) or md (pipe tables)
//       [--out=F]          write the report to a file instead of stdout
//
// Sections render only when the corresponding artifact is supplied: run
// summary and solver phase/objective breakdowns from metrics.json, the
// per-server Eq. 8/9/10 headroom table, off-loading negotiation and
// replication-degree distribution from the audit log, the top-k slowest
// pages with local-vs-repository attribution from the flight log, the
// hottest spans from trace.json, the resource timeline (RSS trajectory,
// tracked-memory peaks, phase occupancy, hardware counters) from the
// mmr-timeline artifact, the streaming-telemetry sections (tail
// trajectory, hot objects, SLO attainment) from the mmr-sketch artifact,
// and the scale trajectory (solve time and memory vs instance size) from a
// bench/scale_suite BENCH_scale.json.
// A NAMED artifact that is missing or empty is an error, not a silently
// skipped section. Exit codes: 0 = report rendered, 2 = usage or I/O
// error.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "io/artifacts.h"
#include "io/benchfmt.h"
#include "io/provenance.h"
#include "obs/invariants.h"
#include "obs/sketch_artifact.h"
#include "obs/timeseries.h"
#include "util/check.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/table.h"

namespace {

using namespace mmr;

// ---------------------------------------------------------------------------
// Output shim: one code path renders both plain text and Markdown.

class ReportWriter {
 public:
  ReportWriter(std::ostream& os, bool markdown) : os_(os), md_(markdown) {}

  void title(const std::string& text) {
    if (md_) {
      os_ << "# " << text << "\n\n";
    } else {
      os_ << text << '\n' << std::string(text.size(), '=') << "\n\n";
    }
  }

  void section(const std::string& text) {
    if (md_) {
      os_ << "## " << text << "\n\n";
    } else {
      os_ << "-- " << text << " --\n\n";
    }
  }

  void para(const std::string& text) { os_ << text << "\n\n"; }

  void table(const std::vector<std::string>& header,
             const std::vector<std::vector<std::string>>& rows) {
    if (rows.empty()) {
      para("(no data)");
      return;
    }
    if (md_) {
      auto pipe_row = [&](const std::vector<std::string>& cells) {
        os_ << '|';
        for (const std::string& c : cells) os_ << ' ' << c << " |";
        os_ << '\n';
      };
      pipe_row(header);
      os_ << '|';
      for (std::size_t i = 0; i < header.size(); ++i) os_ << " --- |";
      os_ << '\n';
      for (const auto& row : rows) pipe_row(row);
      os_ << '\n';
    } else {
      TextTable t(header);
      for (const auto& row : rows) t.add_row(row);
      os_ << t.to_ascii() << '\n';
    }
  }

 private:
  std::ostream& os_;
  bool md_;
};

// ---------------------------------------------------------------------------
// JsonValue field helpers (absent fields get defaults, null-aware).

double num_or(const JsonValue& v, const std::string& key, double dflt) {
  if (!v.has(key)) return dflt;
  const JsonValue& f = v.at(key);
  return f.type == JsonValue::Type::kNumber ? f.num_v : dflt;
}

std::string str_or(const JsonValue& v, const std::string& key,
                   const std::string& dflt) {
  if (!v.has(key)) return dflt;
  const JsonValue& f = v.at(key);
  return f.type == JsonValue::Type::kString ? f.str_v : dflt;
}

bool is_null_field(const JsonValue& v, const std::string& key) {
  return !v.has(key) || v.at(key).is_null();
}

/// Renders a parsed JSON scalar back to a short display string.
std::string scalar_to_string(const JsonValue& v) {
  switch (v.type) {
    case JsonValue::Type::kNull: return "null";
    case JsonValue::Type::kBool: return v.bool_v ? "true" : "false";
    case JsonValue::Type::kNumber: {
      if (v.num_v == std::floor(v.num_v) && std::abs(v.num_v) < 1e15) {
        return std::to_string(static_cast<std::int64_t>(v.num_v));
      }
      return format_double(v.num_v, 3);
    }
    case JsonValue::Type::kString: return v.str_v;
    default: return "...";
  }
}

std::string server_name(double server) {
  return server < 0 ? "R" : "S" + std::to_string(static_cast<int>(server));
}

/// Splits a provenance doc's events by the requested policy label. When no
/// event carries the label the full set is returned (with a note), so the
/// report degrades gracefully on artifacts from unlabeled tools.
std::vector<const JsonValue*> filter_policy(const ProvenanceDoc& doc,
                                            const std::string& policy,
                                            ReportWriter& out) {
  std::vector<const JsonValue*> matched;
  for (const JsonValue& e : doc.events) {
    if (str_or(e, "policy", "") == policy) matched.push_back(&e);
  }
  if (!matched.empty()) return matched;
  std::vector<const JsonValue*> all;
  all.reserve(doc.events.size());
  for (const JsonValue& e : doc.events) all.push_back(&e);
  if (!all.empty() && !policy.empty()) {
    out.para("(no events labeled '" + policy + "'; showing all policies)");
  }
  return all;
}

// ---------------------------------------------------------------------------
// metrics.json sections

void render_run_summary(const JsonValue& metrics, ReportWriter& out) {
  out.section("Run summary");
  if (!metrics.has("run_meta")) {
    out.para("(metrics.json has no run_meta block)");
    return;
  }
  const JsonValue& meta = metrics.at("run_meta");
  std::vector<std::vector<std::string>> rows;
  for (const auto& [key, value] : meta.obj) {
    rows.push_back({key, scalar_to_string(value)});
  }
  out.table({"field", "value"}, rows);
}

void render_phase_breakdown(const JsonValue& metrics, ReportWriter& out) {
  out.section("Solver phase times");
  if (!metrics.has("timers")) {
    out.para("(metrics.json has no timers block)");
    return;
  }
  const JsonValue& timers = metrics.at("timers");
  static const char* kPhases[] = {"solver.partition", "solver.storage_restore",
                                  "solver.processing_restore",
                                  "solver.offload", "solver.local_search"};
  double sum = 0;
  for (const char* name : kPhases) {
    if (timers.has(name)) sum += num_or(timers.at(name), "total_s", 0);
  }
  std::vector<std::vector<std::string>> rows;
  for (const char* name : kPhases) {
    if (!timers.has(name)) continue;
    const JsonValue& t = timers.at(name);
    const double total = num_or(t, "total_s", 0);
    rows.push_back(
        {name, std::to_string(static_cast<std::uint64_t>(
                   num_or(t, "count", 0))),
         format_double(total, 4), format_double(num_or(t, "mean_s", 0), 6),
         sum > 0 ? format_percent(total / sum, 1) : "-"});
  }
  if (rows.empty()) {
    out.para("(no solver.* timers recorded)");
    return;
  }
  out.table({"phase", "count", "total [s]", "mean [s]", "share"}, rows);
}

void render_objective_trajectory(const JsonValue& metrics, ReportWriter& out) {
  out.section("Objective trajectory (D after each phase)");
  if (!metrics.has("gauges")) {
    out.para("(metrics.json has no gauges block)");
    return;
  }
  const JsonValue& gauges = metrics.at("gauges");
  static const char* kStages[] = {
      "solver.d_after_partition", "solver.d_after_storage",
      "solver.d_after_processing", "solver.d_after_offload"};
  std::vector<std::vector<std::string>> rows;
  for (const char* name : kStages) {
    if (!gauges.has(name)) continue;
    const JsonValue& g = gauges.at(name);
    rows.push_back({name, format_double(num_or(g, "mean", 0), 2),
                    format_double(num_or(g, "min", 0), 2),
                    format_double(num_or(g, "max", 0), 2)});
  }
  if (rows.empty()) {
    out.para("(no solver.d_after_* gauges recorded)");
    return;
  }
  out.table({"stage", "mean", "min", "max"}, rows);
}

void render_memory_gauges(const JsonValue& metrics, ReportWriter& out) {
  out.section("Tracked memory (memory.* gauges)");
  if (!metrics.has("gauges")) {
    out.para("(metrics.json has no gauges block)");
    return;
  }
  const JsonValue& gauges = metrics.at("gauges");
  std::vector<std::vector<std::string>> rows;
  for (const auto& [name, g] : gauges.obj) {
    if (name.rfind("memory.", 0) != 0) continue;
    rows.push_back({name,
                    std::to_string(static_cast<std::uint64_t>(
                        num_or(g, "count", 0))),
                    format_bytes(num_or(g, "mean", 0)),
                    format_bytes(num_or(g, "max", 0))});
  }
  if (rows.empty()) {
    out.para("(no memory.* gauges recorded)");
    return;
  }
  out.table({"category", "observations", "mean", "max"}, rows);
}

/// Discrete-event queueing summary (sim/des.h). Rendered only when the run
/// recorded des.* counters, so reports for the closed-form modes are
/// unchanged.
void render_queueing(const JsonValue& metrics, ReportWriter& out) {
  if (!metrics.has("counters") || !metrics.at("counters").has("des.arrivals")) {
    return;
  }
  out.section("Queueing");
  const JsonValue& counters = metrics.at("counters");
  auto counter = [&](const std::string& name) {
    return counters.has(name) ? counters.at(name).num_v : 0.0;
  };
  const double arrivals = counter("des.arrivals");
  const double rejects = counter("des.rejects");
  const double redirects = counter("des.redirects");
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"arrivals", format_double(arrivals, 0)});
  rows.push_back({"completions", format_double(counter("des.completions"), 0)});
  rows.push_back(
      {"reject rate",
       arrivals > 0 ? format_percent(rejects / arrivals) : "-"});
  rows.push_back(
      {"redirect rate",
       arrivals > 0 ? format_percent(redirects / arrivals) : "-"});
  rows.push_back(
      {"repository jobs", format_double(counter("des.repo_jobs"), 0)});
  rows.push_back(
      {"optional fetches", format_double(counter("des.optional_fetches"), 0)});
  rows.push_back(
      {"kernel events", format_double(counter("des.events"), 0)});
  if (metrics.has("gauges")) {
    const JsonValue& gauges = metrics.at("gauges");
    auto gauge_max = [&](const std::string& name) {
      return gauges.has(name) ? num_or(gauges.at(name), "max", 0) : 0.0;
    };
    rows.push_back(
        {"server utilization", format_percent(gauge_max("des.utilization.server"))});
    rows.push_back(
        {"repository utilization", format_percent(gauge_max("des.utilization.repo"))});
    rows.push_back({"peak server queue depth",
                    format_double(gauge_max("des.queue_peak.server"), 0)});
    rows.push_back({"peak repository queue depth",
                    format_double(gauge_max("des.queue_peak.repo"), 0)});
    rows.push_back({"virtual-time horizon [s]",
                    format_double(gauge_max("des.horizon_s"), 1)});
  }
  out.table({"metric", "value"}, rows);
}

// ---------------------------------------------------------------------------
// timeline section

void render_timeline(const TimelineDoc& doc, ReportWriter& out) {
  out.section("Resource timeline");
  if (doc.samples.empty()) {
    out.para("(timeline has no samples)");
    return;
  }
  const JsonValue& first = doc.samples.front();
  const JsonValue& last = doc.samples.back();
  const double span_ms = num_or(last, "t_ms", 0) - num_or(first, "t_ms", 0);
  double rss_peak = 0;
  for (const JsonValue& smp : doc.samples) {
    rss_peak = std::max(rss_peak, num_or(smp, "rss_bytes", 0));
  }
  std::ostringstream head;
  head << doc.samples.size() << " samples over "
       << format_double(span_ms / 1000.0, 2) << " s (interval "
       << doc.interval_ms << " ms";
  if (doc.declared_dropped > 0) {
    head << ", " << doc.declared_dropped << " dropped at the cap";
  }
  head << "). RSS " << format_bytes(num_or(first, "rss_bytes", 0)) << " -> "
       << format_bytes(rss_peak) << " peak -> "
       << format_bytes(num_or(last, "rss_bytes", 0))
       << " end; process high-water "
       << format_bytes(num_or(last, "peak_rss_bytes", 0)) << ".";
  out.para(head.str());

  // Tracked-category peaks come from the final sample's mem_peak stanza
  // (monotone, so the last sample holds the run-wide high-water marks).
  if (last.has("mem_peak")) {
    std::vector<std::vector<std::string>> rows;
    for (const auto& [cat, v] : last.at("mem_peak").obj) {
      const double cur =
          last.has("mem") ? num_or(last.at("mem"), cat, 0) : 0;
      rows.push_back({cat, format_bytes(cur),
                      v.type == JsonValue::Type::kNumber
                          ? format_bytes(v.num_v)
                          : "-"});
    }
    out.table({"tracked category", "final", "peak"}, rows);
  }

  // Phase occupancy: share of samples caught inside each phase.
  std::map<std::string, std::uint64_t> phase_samples;
  for (const JsonValue& smp : doc.samples) {
    ++phase_samples[str_or(smp, "phase", "idle")];
  }
  std::vector<std::vector<std::string>> prow;
  for (const auto& [phase, n] : phase_samples) {
    prow.push_back({phase, std::to_string(n),
                    format_percent(static_cast<double>(n) /
                                       static_cast<double>(doc.samples.size()),
                                   1)});
  }
  out.table({"phase", "samples", "occupancy"}, prow);

  if (!doc.counters_available) {
    out.para("(hardware perf counters unavailable in this environment)");
    return;
  }
  if (doc.phase_perf.type != JsonValue::Type::kObject ||
      doc.phase_perf.obj.empty()) {
    out.para("(no per-phase counter totals in the summary)");
    return;
  }
  std::vector<std::vector<std::string>> crow;
  for (const auto& [phase, v] : doc.phase_perf.obj) {
    const double cycles = num_or(v, "cycles", 0);
    const double instr = num_or(v, "instructions", 0);
    crow.push_back(
        {phase,
         std::to_string(static_cast<std::uint64_t>(num_or(v, "entries", 0))),
         format_double(cycles / 1e6, 1), format_double(instr / 1e6, 1),
         cycles > 0 ? format_double(instr / cycles, 2) : "-",
         format_double(num_or(v, "cache_misses", 0) / 1e3, 1),
         format_double(num_or(v, "branch_misses", 0) / 1e3, 1)});
  }
  out.table({"phase", "entries", "cycles [M]", "instructions [M]", "IPC",
             "cache miss [k]", "branch miss [k]"},
            crow);
}

// ---------------------------------------------------------------------------
// audit sections

/// Per-server Eq. 8/9/10 headroom after the last recorded solver phase of
/// each run, aggregated across runs (worst case = min headroom).
void render_headroom(const std::vector<const JsonValue*>& events,
                     ReportWriter& out) {
  out.section("Constraint headroom (Eq. 8/9/10, final solver phase)");
  // phase name -> pipeline position, for "last phase" selection.
  std::map<std::string, int> phase_rank;
  for (std::uint8_t p = 0; p < kAuditPhaseCount; ++p) {
    phase_rank[kAuditPhaseNames[p]] = p;
  }
  // (run, policy) -> max phase rank seen.
  std::map<std::pair<std::uint64_t, std::string>, int> last_phase;
  for (const JsonValue* e : events) {
    if (str_or(*e, "type", "") != "headroom") continue;
    const auto key = std::make_pair(
        static_cast<std::uint64_t>(num_or(*e, "run", 0)),
        str_or(*e, "policy", ""));
    const int rank = phase_rank[str_or(*e, "phase", "")];
    auto [it, inserted] = last_phase.emplace(key, rank);
    if (!inserted) it->second = std::max(it->second, rank);
  }
  if (last_phase.empty()) {
    out.para("(no headroom stamps in the audit log)");
    return;
  }

  struct Agg {
    int runs = 0;
    double proc_load_sum = 0;
    double proc_headroom_min = kUnlimited;
    bool proc_limited = false;
    double storage_used_sum = 0;
    double storage_headroom_min = kUnlimited;
    bool has_storage = false;
  };
  std::map<double, Agg> by_server;  // -1 = repository
  for (const JsonValue* e : events) {
    if (str_or(*e, "type", "") != "headroom") continue;
    const auto key = std::make_pair(
        static_cast<std::uint64_t>(num_or(*e, "run", 0)),
        str_or(*e, "policy", ""));
    if (phase_rank[str_or(*e, "phase", "")] != last_phase[key]) continue;
    Agg& a = by_server[num_or(*e, "server", -1)];
    ++a.runs;
    a.proc_load_sum += num_or(*e, "proc_load", 0);
    if (!is_null_field(*e, "proc_headroom")) {
      a.proc_limited = true;
      a.proc_headroom_min =
          std::min(a.proc_headroom_min, num_or(*e, "proc_headroom", 0));
    }
    if (e->has("storage_headroom")) {
      a.has_storage = true;
      a.storage_used_sum += num_or(*e, "storage_used", 0);
      a.storage_headroom_min =
          std::min(a.storage_headroom_min, num_or(*e, "storage_headroom", 0));
    }
  }

  std::vector<std::vector<std::string>> rows;
  for (const auto& [server, a] : by_server) {
    const double n = a.runs > 0 ? a.runs : 1;
    rows.push_back(
        {server_name(server), std::to_string(a.runs),
         format_double(a.proc_load_sum / n, 2),
         a.proc_limited ? format_double(a.proc_headroom_min, 2) : "unlimited",
         a.has_storage ? format_bytes(a.storage_used_sum / n) : "-",
         a.has_storage ? format_bytes(a.storage_headroom_min) : "-"});
  }
  // Repository row (server "R", sorted first as -1) reads better last.
  if (!rows.empty() && rows.front()[0] == "R") {
    std::rotate(rows.begin(), rows.begin() + 1, rows.end());
  }
  out.table({"server", "runs", "mean proc load [req/s]",
             "min proc headroom [req/s]", "mean storage used",
             "min storage headroom"},
            rows);
}

void render_solver_decisions(const std::vector<const JsonValue*>& events,
                             ReportWriter& out) {
  out.section("Solver decisions");
  std::uint64_t partitions = 0, local = 0, evictions = 0, unmarks = 0;
  double bytes_evicted = 0;
  for (const JsonValue* e : events) {
    const std::string type = str_or(*e, "type", "");
    if (type == "partition") {
      ++partitions;
      if (e->has("local") && e->at("local").bool_v) ++local;
    } else if (type == "evict") {
      ++evictions;
      bytes_evicted += num_or(*e, "bytes", 0);
    } else if (type == "unmark") {
      ++unmarks;
    }
  }
  std::ostringstream os;
  os << partitions << " partition decisions";
  if (partitions > 0) {
    os << " (" << format_percent(static_cast<double>(local) /
                                     static_cast<double>(partitions),
                                 1)
       << " placed local)";
  }
  os << ", " << evictions << " storage evictions ("
     << format_bytes(bytes_evicted) << " freed), " << unmarks
     << " processing unmarks.";
  out.para(os.str());
}

void render_offload(const std::vector<const JsonValue*>& events,
                    ReportWriter& out) {
  out.section("Repository off-loading (Eq. 9 negotiation)");
  // (run, policy) -> rounds; answers aggregated over everything shown.
  std::map<std::pair<std::uint64_t, std::string>, int> rounds_per_run;
  double requested = 0, achieved = 0;
  std::uint64_t answers = 0, saturated = 0;
  std::vector<std::vector<std::string>> rows;
  for (const JsonValue* e : events) {
    const std::string type = str_or(*e, "type", "");
    if (type == "offload_round") {
      const auto key = std::make_pair(
          static_cast<std::uint64_t>(num_or(*e, "run", 0)),
          str_or(*e, "policy", ""));
      ++rounds_per_run[key];
      if (rows.size() < 20) {
        rows.push_back(
            {std::to_string(static_cast<std::uint64_t>(num_or(*e, "run", 0))),
             std::to_string(static_cast<int>(num_or(*e, "round", 0))),
             format_double(num_or(*e, "repo_load_before", 0), 2),
             format_double(num_or(*e, "deficit", 0), 2),
             std::to_string(static_cast<int>(num_or(*e, "l1", 0))),
             std::to_string(static_cast<int>(num_or(*e, "l2", 0))),
             std::to_string(static_cast<int>(num_or(*e, "l3", 0)))});
      }
    } else if (type == "offload_answer") {
      ++answers;
      requested += num_or(*e, "requested", 0);
      achieved += num_or(*e, "achieved", 0);
      if (e->has("moved_to_l3") && e->at("moved_to_l3").bool_v) ++saturated;
    }
  }
  if (rounds_per_run.empty()) {
    out.para("(off-loading never triggered)");
    return;
  }
  std::ostringstream os;
  os << rounds_per_run.size() << " run(s) negotiated; " << answers
     << " server answers absorbed " << format_double(achieved, 2) << " of "
     << format_double(requested, 2) << " req/s requested, " << saturated
     << " server(s) saturated into L3.";
  out.para(os.str());
  out.table({"run", "round", "repo load", "deficit", "L1", "L2", "L3"}, rows);
}

void render_replica_degrees(const std::vector<const JsonValue*>& events,
                            ReportWriter& out) {
  out.section("Replication degree distribution");
  // degree -> (objects, bytes); normalized by run·policy groups so the table
  // reads as "per solve" even when the artifact holds many runs.
  std::set<std::pair<std::uint64_t, std::string>> groups;
  std::map<int, std::pair<std::uint64_t, double>> by_degree;
  for (const JsonValue* e : events) {
    if (str_or(*e, "type", "") != "replica") continue;
    groups.emplace(static_cast<std::uint64_t>(num_or(*e, "run", 0)),
                   str_or(*e, "policy", ""));
    auto& [count, bytes] = by_degree[static_cast<int>(num_or(*e, "degree", 0))];
    ++count;
    bytes += num_or(*e, "bytes", 0);
  }
  if (by_degree.empty()) {
    out.para("(no replica-degree events in the audit log)");
    return;
  }
  const double n = groups.empty() ? 1 : static_cast<double>(groups.size());
  std::vector<std::vector<std::string>> rows;
  for (const auto& [degree, agg] : by_degree) {
    rows.push_back({std::to_string(degree),
                    format_double(static_cast<double>(agg.first) / n, 1),
                    format_bytes(agg.second / n)});
  }
  out.para("Averaged over " +
           std::to_string(static_cast<std::uint64_t>(n)) +
           " solve(s); objects with no local copy are not recorded.");
  out.table({"replicas", "objects (mean/solve)", "bytes (mean/solve)"}, rows);
}

// ---------------------------------------------------------------------------
// flight section

void render_slowest_pages(const std::vector<const JsonValue*>& events,
                          std::size_t top, ReportWriter& out) {
  out.section("Slowest pages (flight recorder)");
  struct PageAgg {
    std::uint64_t samples = 0;
    double response_sum = 0;
    double response_max = 0;
    double t_local_sum = 0;
    double t_remote_sum = 0;
    std::uint64_t remote_bound = 0;
    double server = -1;
  };
  std::map<std::pair<std::string, std::uint64_t>, PageAgg> by_page;
  std::uint64_t total = 0;
  for (const JsonValue* e : events) {
    if (str_or(*e, "type", "") != "request") continue;
    ++total;
    const auto key = std::make_pair(
        str_or(*e, "mode", ""),
        static_cast<std::uint64_t>(num_or(*e, "page", 0)));
    PageAgg& a = by_page[key];
    ++a.samples;
    const double response = num_or(*e, "response", 0);
    a.response_sum += response;
    a.response_max = std::max(a.response_max, response);
    a.t_local_sum += num_or(*e, "t_local", 0);
    a.t_remote_sum += num_or(*e, "t_remote", 0);
    if (str_or(*e, "bound", "local") == "remote") ++a.remote_bound;
    a.server = num_or(*e, "server", -1);
  }
  if (by_page.empty()) {
    out.para("(no request records in the flight log)");
    return;
  }

  std::vector<std::pair<std::pair<std::string, std::uint64_t>, PageAgg>>
      ranked(by_page.begin(), by_page.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    const double ma = a.second.response_sum / a.second.samples;
    const double mb = b.second.response_sum / b.second.samples;
    if (ma != mb) return ma > mb;
    return a.first < b.first;  // deterministic tie-break
  });
  if (ranked.size() > top) ranked.resize(top);

  std::vector<std::vector<std::string>> rows;
  for (const auto& [key, a] : ranked) {
    const double n = static_cast<double>(a.samples);
    rows.push_back(
        {std::to_string(key.second), key.first, server_name(a.server),
         std::to_string(a.samples), format_double(a.response_sum / n, 3),
         format_double(a.response_max, 3),
         format_double(a.t_local_sum / n, 3),
         format_double(a.t_remote_sum / n, 3),
         format_percent(static_cast<double>(a.remote_bound) / n, 0)});
  }
  out.para(std::to_string(total) + " sampled requests, " +
           std::to_string(by_page.size()) + " distinct (mode, page) groups.");
  out.table({"page", "mode", "host", "samples", "mean resp [s]",
             "max resp [s]", "mean local [s]", "mean repo [s]",
             "remote-bound"},
            rows);
}

// ---------------------------------------------------------------------------
// trace section

void render_trace(const JsonValue& trace, std::size_t top, ReportWriter& out) {
  out.section("Hottest trace spans");
  if (!trace.has("traceEvents")) {
    out.para("(trace.json has no traceEvents array)");
    return;
  }
  struct SpanAgg {
    std::uint64_t count = 0;
    double total_us = 0;
  };
  std::map<std::string, SpanAgg> by_name;
  for (const JsonValue& e : trace.at("traceEvents").arr) {
    SpanAgg& a = by_name[str_or(e, "name", "?")];
    ++a.count;
    a.total_us += num_or(e, "dur", 0);
  }
  if (by_name.empty()) {
    out.para("(no spans recorded)");
    return;
  }
  std::vector<std::pair<std::string, SpanAgg>> ranked(by_name.begin(),
                                                      by_name.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.second.total_us != b.second.total_us) {
      return a.second.total_us > b.second.total_us;
    }
    return a.first < b.first;
  });
  if (ranked.size() > top) ranked.resize(top);
  std::vector<std::vector<std::string>> rows;
  for (const auto& [name, a] : ranked) {
    rows.push_back({name, std::to_string(a.count),
                    format_double(a.total_us / 1000.0, 2),
                    format_double(a.total_us / 1000.0 /
                                      static_cast<double>(a.count),
                                  3)});
  }
  out.table({"span", "count", "total [ms]", "mean [ms]"}, rows);
}

// ---------------------------------------------------------------------------
// sketch sections (streaming telemetry)

std::string group_label(const JsonValue& e) {
  const std::string policy = str_or(e, "policy", "");
  return (policy.empty() ? "-" : policy) + "/" + str_or(e, "mode", "?");
}

/// Per-group quantile summary plus the per-window p99 trajectory.
void render_tail_trajectory(const SketchDoc& doc, std::size_t top,
                            ReportWriter& out) {
  out.section("Tail trajectory (streaming sketches)");
  std::vector<std::vector<std::string>> qrows;
  for (const JsonValue* e : doc.of_type("sketch")) {
    qrows.push_back(
        {group_label(*e), str_or(*e, "metric", "?"),
         std::to_string(static_cast<std::uint64_t>(num_or(*e, "count", 0))),
         format_double(num_or(*e, "p50", 0), 3),
         format_double(num_or(*e, "p90", 0), 3),
         format_double(num_or(*e, "p99", 0), 3),
         format_double(num_or(*e, "p999", 0), 3),
         format_double(num_or(*e, "max", 0), 3)});
  }
  if (qrows.empty()) {
    out.para("(no sketch lines in the artifact)");
    return;
  }
  out.table({"policy/mode", "metric", "requests", "p50", "p90", "p99",
             "p999", "max"},
            qrows);

  // Per-window p99: how the tail evolves over virtual time, capped at
  // `top` windows per group (windows are in file order = ascending time).
  std::map<std::string, std::size_t> shown;
  std::map<std::string, std::size_t> total;
  for (const JsonValue* e : doc.of_type("window")) ++total[group_label(*e)];
  std::vector<std::vector<std::string>> wrows;
  for (const JsonValue* e : doc.of_type("window")) {
    if (shown[group_label(*e)] >= top) continue;
    ++shown[group_label(*e)];
    wrows.push_back(
        {group_label(*e),
         std::to_string(static_cast<std::uint64_t>(num_or(*e, "index", 0))),
         format_double(num_or(*e, "t_start_s", 0), 1),
         format_double(num_or(*e, "window_s", 0), 0),
         std::to_string(
             static_cast<std::uint64_t>(num_or(*e, "requests", 0))),
         format_double(num_or(*e, "p99_s", 0), 3),
         format_percent(num_or(*e, "attainment", 1), 2),
         format_double(num_or(*e, "burn", 0), 2)});
  }
  if (wrows.empty()) {
    out.para("(no window rows in the artifact)");
    return;
  }
  std::size_t omitted = 0;
  for (const auto& [label, n] : total) omitted += n - shown[label];
  if (omitted > 0) {
    out.para("First " + std::to_string(top) +
             " windows per group shown (" + std::to_string(omitted) +
             " more omitted; raise --top for the full trajectory).");
  }
  out.table({"policy/mode", "window", "t [s]", "width [s]", "requests",
             "p99 [s]", "attainment", "burn"},
            wrows);
}

void render_hot_objects(const SketchDoc& doc, std::size_t top,
                        ReportWriter& out) {
  out.section("Hot objects (SpaceSaving heavy hitters)");
  std::vector<std::vector<std::string>> rows;
  std::map<std::string, std::size_t> shown;
  for (const JsonValue* e : doc.of_type("hot")) {
    if (shown[group_label(*e)] >= top) continue;
    ++shown[group_label(*e)];
    rows.push_back(
        {group_label(*e),
         std::to_string(static_cast<std::uint64_t>(num_or(*e, "rank", 0))),
         std::to_string(static_cast<std::uint64_t>(num_or(*e, "page", 0))),
         server_name(num_or(*e, "server", -1)),
         std::to_string(static_cast<std::uint64_t>(num_or(*e, "count", 0))),
         std::to_string(static_cast<std::uint64_t>(num_or(*e, "error", 0))),
         format_double(num_or(*e, "miss_cost_s", 0), 2)});
  }
  if (rows.empty()) {
    out.para("(no hot-set lines in the artifact)");
    return;
  }
  out.para("SpaceSaving estimates: a row's true request count lies in "
           "[count - error, count]; miss cost is the summed "
           "repository-pipeline seconds its requests paid.");
  out.table({"policy/mode", "rank", "page", "host", "count", "error",
             "miss cost [s]"},
            rows);
}

void render_slo(const SketchDoc& doc, ReportWriter& out) {
  out.section("SLO attainment");
  if (doc.header.has("slo")) {
    const JsonValue& slo = doc.header.at("slo");
    out.para("SLO: response <= " +
             format_double(num_or(slo, "response_s", 0), 2) +
             " s AND stretch <= " +
             format_double(num_or(slo, "stretch_x", 0), 2) + "x, target " +
             format_percent(num_or(slo, "target", 0), 1) +
             " per window. Windows start at " +
             format_double(num_or(doc.header, "window_s", 0), 0) +
             " s and double to stay within " +
             format_double(num_or(doc.header, "max_windows", 0), 0) +
             " per group; each group's own width is listed. Burn 1.0 = "
             "failing exactly at the sustainable rate.");
  }
  std::vector<std::vector<std::string>> rows;
  for (const JsonValue* e : doc.of_type("slo")) {
    rows.push_back(
        {group_label(*e),
         std::to_string(
             static_cast<std::uint64_t>(num_or(*e, "windows", 0))),
         format_double(num_or(*e, "window_s", 0), 0),
         std::to_string(
             static_cast<std::uint64_t>(num_or(*e, "requests", 0))),
         format_percent(num_or(*e, "attainment", 1), 2),
         format_double(num_or(*e, "worst_burn_1", 0), 2),
         format_double(num_or(*e, "worst_burn_6", 0), 2)});
  }
  if (rows.empty()) {
    out.para("(no slo lines in the artifact)");
    return;
  }
  out.table({"policy/mode", "windows", "width [s]", "requests",
             "attainment", "worst burn (1w)", "worst burn (6w)"},
            rows);
}

// ---------------------------------------------------------------------------
// queue-dynamics sections (mmr-timeseries + mmr-invariants)

/// Per-station queue dynamics from the DES: utilization occupancy, peak
/// depth and saturation onset per station, and the overflow timeline.
void render_queue_dynamics(const TimeseriesDoc& doc, std::size_t top,
                           ReportWriter& out) {
  out.section("Queue dynamics (per-station time series)");
  const auto series = doc.of_type("series");
  if (series.empty()) {
    out.para("(no series lines in the artifact)");
    return;
  }
  out.para("Virtual-time windows, base width " +
           format_double(doc.window_s, 0) +
           " s (long-horizon stations coarsen in power-of-two steps); "
           "stations are the site servers plus the repository (R).");

  // Group overview from the series lines.
  std::vector<std::vector<std::string>> grows;
  for (const JsonValue* s : series) {
    grows.push_back(
        {group_label(*s),
         std::to_string(static_cast<std::uint64_t>(num_or(*s, "runs", 1))),
         std::to_string(
             static_cast<std::uint64_t>(num_or(*s, "stations", 0))),
         std::to_string(
             static_cast<std::uint64_t>(num_or(*s, "arrivals", 0))),
         std::to_string(
             static_cast<std::uint64_t>(num_or(*s, "completions", 0))),
         std::to_string(
             static_cast<std::uint64_t>(num_or(*s, "rejects", 0))),
         std::to_string(
             static_cast<std::uint64_t>(num_or(*s, "redirects", 0))),
         format_double(num_or(*s, "horizon_s", 0), 1)});
  }
  out.table({"policy/mode", "runs", "stations", "arrivals", "completions",
             "rejects", "redirects", "horizon [s]"},
            grows);

  // Per-station aggregation over the window lines: peak depth, when the
  // station first queued (saturation onset) and its busy-time occupancy.
  struct StationAgg {
    double peak_depth = 0;
    double peak_t = 0;
    double first_queue_t = -1;
    double busy = 0;
    double redirected = 0;
    double rejected = 0;
    std::uint64_t windows = 0;
  };
  std::map<std::pair<std::string, double>, StationAgg> by_station;
  for (const JsonValue* w : doc.of_type("window")) {
    StationAgg& a =
        by_station[{group_label(*w), num_or(*w, "station", 0)}];
    ++a.windows;
    const double depth = num_or(*w, "depth_max", 0);
    const double t = num_or(*w, "t_start_s", 0);
    if (depth > a.peak_depth) {
      a.peak_depth = depth;
      a.peak_t = t;
    }
    if (depth > 0 && (a.first_queue_t < 0 || t < a.first_queue_t)) {
      a.first_queue_t = t;
    }
    a.busy += num_or(*w, "busy_s", 0);
    a.redirected += num_or(*w, "redirected", 0);
    a.rejected += num_or(*w, "rejected", 0);
  }
  // slots × horizon × runs per group, for the occupancy denominator.
  std::map<std::string, const JsonValue*> group_hdr;
  for (const JsonValue* s : series) group_hdr[group_label(*s)] = s;
  const auto utilization = [&](const std::string& label, double station,
                               double busy) {
    const JsonValue* s = group_hdr[label];
    if (s == nullptr) return 0.0;
    const double slots = station < 0 ? num_or(*s, "repo_concurrency", 1)
                                     : num_or(*s, "server_concurrency", 1);
    const double cap = num_or(*s, "horizon_s", 0) * slots *
                       std::max(1.0, num_or(*s, "runs", 1));
    return cap > 0 ? busy / cap : 0.0;
  };

  std::vector<std::pair<std::pair<std::string, double>, StationAgg>> ranked(
      by_station.begin(), by_station.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.second.peak_depth != b.second.peak_depth) {
      return a.second.peak_depth > b.second.peak_depth;
    }
    if (a.second.busy != b.second.busy) return a.second.busy > b.second.busy;
    return a.first < b.first;  // deterministic tie-break
  });
  if (ranked.size() > top) ranked.resize(top);
  std::vector<std::vector<std::string>> srows;
  for (const auto& [key, a] : ranked) {
    srows.push_back(
        {key.first, server_name(key.second),
         format_percent(utilization(key.first, key.second, a.busy)),
         format_double(a.peak_depth, 0), format_double(a.peak_t, 1),
         a.first_queue_t < 0 ? "-" : format_double(a.first_queue_t, 1),
         format_double(a.redirected, 0), format_double(a.rejected, 0)});
  }
  out.para("Busiest " + std::to_string(srows.size()) + " of " +
           std::to_string(by_station.size()) +
           " stations by peak queue depth; 'first queue [s]' is the window "
           "where queueing began (saturation onset).");
  out.table({"policy/mode", "station", "utilization", "peak depth",
             "at t [s]", "first queue [s]", "redirected", "rejected"},
            srows);

  // Overflow timeline: every window that redirected or rejected work.
  std::vector<std::vector<std::string>> orows;
  std::size_t overflow_windows = 0;
  for (const JsonValue* w : doc.of_type("window")) {
    const double red = num_or(*w, "redirected", 0);
    const double rej = num_or(*w, "rejected", 0);
    if (red <= 0 && rej <= 0) continue;
    ++overflow_windows;
    if (orows.size() >= top) continue;
    orows.push_back(
        {group_label(*w), server_name(num_or(*w, "station", 0)),
         format_double(num_or(*w, "t_start_s", 0), 1),
         format_double(num_or(*w, "depth_max", 0), 0),
         format_percent(num_or(*w, "util", 0)), format_double(red, 0),
         format_double(rej, 0)});
  }
  if (orows.empty()) {
    out.para("No window overflowed: every request was admitted locally.");
  } else {
    out.para(std::to_string(overflow_windows) +
             " window(s) overflowed; first " +
             std::to_string(orows.size()) + " shown in virtual-time order.");
    out.table({"policy/mode", "station", "t [s]", "depth max", "util",
               "redirected", "rejected"},
              orows);
  }
}

/// Conservation-law verdicts from the mmr-invariants artifact.
void render_invariants(const InvariantsDoc& doc, std::size_t top,
                       ReportWriter& out) {
  out.section("Conservation-law audit");
  if (doc.checks.empty()) {
    out.para("(no check lines in the artifact)");
    return;
  }
  struct LawAgg {
    std::uint64_t checks = 0;
    std::uint64_t violations = 0;
    double max_error = 0;
    double tolerance = 0;
  };
  std::map<std::pair<std::string, std::string>, LawAgg> by_law;
  for (const JsonValue& c : doc.checks) {
    LawAgg& a = by_law[{group_label(c), str_or(c, "law", "?")}];
    ++a.checks;
    if (!c.at("ok").bool_v) ++a.violations;
    a.max_error = std::max(a.max_error, num_or(c, "error", 0));
    a.tolerance = num_or(c, "tolerance", 0);
  }
  std::vector<std::vector<std::string>> rows;
  for (const auto& [key, a] : by_law) {
    rows.push_back({key.first, key.second, std::to_string(a.checks),
                    std::to_string(a.violations),
                    format_double(a.max_error, 9),
                    format_double(a.tolerance, 9)});
  }
  out.table({"policy/mode", "law", "checks", "violations", "max error",
             "tolerance"},
            rows);
  if (doc.declared_violations == 0) {
    out.para("All " + std::to_string(doc.checks.size()) +
             " conservation-law checks hold: Little's law, flow "
             "conservation, queue drain, busy/utilization consistency and "
             "monotone virtual time.");
    return;
  }
  out.para("VIOLATIONS: " + std::to_string(doc.declared_violations) + " of " +
           std::to_string(doc.checks.size()) +
           " checks failed; first offenders below.");
  std::vector<std::vector<std::string>> vrows;
  for (const JsonValue& c : doc.checks) {
    if (c.at("ok").bool_v || vrows.size() >= top) continue;
    vrows.push_back(
        {group_label(c), str_or(c, "law", "?"),
         is_null_field(c, "station") ? std::string("run")
                                     : server_name(num_or(c, "station", 0)),
         format_double(num_or(c, "expected", 0), 6),
         format_double(num_or(c, "observed", 0), 6),
         format_double(num_or(c, "error", 0), 9)});
  }
  out.table({"policy/mode", "law", "station", "expected", "observed",
             "error"},
            vrows);
}

// ---------------------------------------------------------------------------
// scale section (bench/scale_suite BENCH artifact)

/// Solve time and memory footprint vs instance size, one row per scale
/// tier. The artifact is a generic BENCH document; the tiers are recovered
/// from the "scale.<tier>.*" series names, rendered in the canonical
/// small/medium/large order with any other tiers appended alphabetically.
void render_scale_trajectory(const BenchArtifact& bench, ReportWriter& out) {
  out.section("Scale trajectory (bench/scale_suite)");
  std::set<std::string> seen;
  for (const BenchMeasurement& m : bench.measurements) {
    if (m.name.rfind("scale.", 0) != 0) continue;
    const std::size_t dot = m.name.find('.', 6);
    if (dot != std::string::npos) seen.insert(m.name.substr(6, dot - 6));
  }
  std::vector<std::string> tiers;
  const auto add_tier = [&](const std::string& tier) {
    if (std::find(tiers.begin(), tiers.end(), tier) == tiers.end()) {
      tiers.push_back(tier);
    }
  };
  for (const char* canon : {"small", "medium", "large"}) {
    if (seen.count(canon) > 0) add_tier(canon);
  }
  for (const std::string& tier : seen) add_tier(tier);
  if (tiers.empty()) {
    out.para("(no scale.<tier>.* series in the artifact)");
    return;
  }

  const auto mean_of = [&](const std::string& tier, const char* series) {
    const BenchMeasurement* m =
        bench.find("scale." + tier + "." + series);
    return m != nullptr ? m->stats.mean : 0.0;
  };
  out.para("From " + bench.tool + " @ " + bench.git_describe + " (" +
           bench.timestamp_utc + ").");
  double first_solve = 0;
  std::vector<std::vector<std::string>> rows;
  for (const std::string& tier : tiers) {
    const BenchMeasurement* solve =
        bench.find("scale." + tier + ".solve_wall_s");
    const double solve_s = solve != nullptr ? solve->stats.mean : 0.0;
    if (rows.empty()) first_solve = solve_s;
    rows.push_back(
        {tier,
         solve != nullptr ? std::to_string(solve->stats.count) : "0",
         format_double(mean_of(tier, "gen_wall_s"), 3),
         format_double(solve_s, 3),
         first_solve > 0 ? format_double(solve_s / first_solve, 1) + "x"
                         : "-",
         format_bytes(mean_of(tier, "tracked_peak_bytes")),
         format_bytes(mean_of(tier, "peak_rss_bytes")),
         format_double(mean_of(tier, "d_final"), 0)});
  }
  out.table({"tier", "reps", "gen [s]", "solve [s]", "vs first",
             "tracked peak", "peak RSS", "objective D"},
            rows);
  out.para("Tracked peak is the memacct high-water mark, rebased per tier "
           "(deterministic for a given instance); peak RSS is the OS "
           "high-water mark, so each row includes every tier that ran "
           "before it.");
}

// ---------------------------------------------------------------------------

/// Reads a NAMED artifact strictly: a path the user asked for must exist
/// and hold data — silently rendering a partial report would hide a broken
/// producer. The thrown message is the report's one-line error.
std::string read_artifact_text(const std::string& path) {
  std::ifstream is(path);
  MMR_CHECK_MSG(is.good(),
                "artifact '" + path + "' is missing or unreadable");
  std::ostringstream buffer;
  buffer << is.rdbuf();
  std::string text = buffer.str();
  MMR_CHECK_MSG(
      text.find_first_not_of(" \t\r\n") != std::string::npos,
      "artifact '" + path + "' is empty");
  return text;
}

JsonValue read_json_file(const std::string& path) {
  return json_parse(read_artifact_text(path));
}

/// Truncation never passes silently: a collector that dropped records at
/// its cap gets a WARNING paragraph in the report and a warning line on
/// stderr, so scripted callers see it without parsing the report.
void warn_dropped(ReportWriter& out, const std::string& log,
                  std::uint64_t dropped, const std::string& unit,
                  const std::string& consequence) {
  if (dropped == 0) return;
  const std::string msg = "the " + log + " log dropped " +
                          std::to_string(dropped) + " " + unit +
                          " at its cap; " + consequence + ".";
  out.para("WARNING: " + msg);
  std::cerr << "warning: " << msg << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mmr;
  Flags flags = Flags::parse(argc, argv);
  flags.describe("metrics", "metrics.json path")
      .describe("trace", "Chrome trace.json path")
      .describe("audit", "solver audit JSONL path")
      .describe("flight", "flight recorder JSONL path")
      .describe("timeline", "mmr-timeline resource sampler JSONL path")
      .describe("sketch", "mmr-sketch streaming telemetry JSONL path")
      .describe("timeseries", "mmr-timeseries queue-dynamics JSONL path")
      .describe("invariants", "mmr-invariants conservation-audit JSONL path")
      .describe("scale", "bench/scale_suite BENCH_scale.json path")
      .describe("policy", "policy label for audit/flight sections "
                          "(default 'ours')")
      .describe("top", "rows in the slowest-pages / trace / sketch tables "
                       "(default 10)")
      .describe("format", "'text' (default) or 'md'")
      .describe("out", "write the report to this path instead of stdout");
  const std::string usage =
      "usage: mmr_report [--metrics=F] [--trace=F] [--audit=F] [--flight=F] "
      "[--timeline=F] [--sketch=F] [--timeseries=F] [--invariants=F] "
      "[--scale=F] [--policy=ours] [--top=10] [--format=text|md] [--out=F]\n";
  if (flags.help_requested()) {
    std::cout << usage << flags.help();
    return 0;
  }

  const std::string metrics_path = flags.get_string("metrics", "");
  const std::string trace_path = flags.get_string("trace", "");
  const std::string audit_path = flags.get_string("audit", "");
  const std::string flight_path = flags.get_string("flight", "");
  const std::string timeline_path = flags.get_string("timeline", "");
  const std::string sketch_path = flags.get_string("sketch", "");
  const std::string timeseries_path = flags.get_string("timeseries", "");
  const std::string invariants_path = flags.get_string("invariants", "");
  const std::string scale_path = flags.get_string("scale", "");
  if (metrics_path.empty() && trace_path.empty() && audit_path.empty() &&
      flight_path.empty() && timeline_path.empty() && sketch_path.empty() &&
      timeseries_path.empty() && invariants_path.empty() &&
      scale_path.empty()) {
    std::cerr << "error: no artifacts given\n" << usage;
    return 2;
  }
  const std::string format = flags.get_string("format", "text");
  if (format != "text" && format != "md") {
    std::cerr << "error: unknown --format '" << format << "'\n" << usage;
    return 2;
  }
  const std::string policy = flags.get_string("policy", "ours");
  const std::size_t top = static_cast<std::size_t>(
      std::max<std::int64_t>(1, flags.get_int("top", 10)));

  try {
    std::ostringstream body;
    ReportWriter out(body, format == "md");
    out.title("mmrepl run report");

    if (!metrics_path.empty()) {
      const JsonValue metrics = read_json_file(metrics_path);
      render_run_summary(metrics, out);
      render_phase_breakdown(metrics, out);
      render_objective_trajectory(metrics, out);
      render_memory_gauges(metrics, out);
      render_queueing(metrics, out);
    }
    if (!audit_path.empty()) {
      const ProvenanceDoc doc =
          parse_provenance_jsonl(read_artifact_text(audit_path));
      MMR_CHECK_MSG(doc.schema == "mmr-audit",
                    "'" + audit_path + "' is a " + doc.schema +
                        " artifact, expected mmr-audit");
      warn_dropped(out, "audit", doc.declared_dropped, "events",
                   "sections below undercount");
      const auto events = filter_policy(doc, policy, out);
      render_headroom(events, out);
      render_solver_decisions(events, out);
      render_offload(events, out);
      render_replica_degrees(events, out);
    }
    if (!flight_path.empty()) {
      const ProvenanceDoc doc =
          parse_provenance_jsonl(read_artifact_text(flight_path));
      MMR_CHECK_MSG(doc.schema == "mmr-flight",
                    "'" + flight_path + "' is a " + doc.schema +
                        " artifact, expected mmr-flight");
      warn_dropped(out, "flight", doc.declared_dropped, "records",
                   "the table below undercounts");
      const auto events = filter_policy(doc, policy, out);
      render_slowest_pages(events, top, out);
    }
    if (!trace_path.empty()) {
      render_trace(read_json_file(trace_path), top, out);
    }
    if (!timeline_path.empty()) {
      render_timeline(parse_timeline_jsonl(read_artifact_text(timeline_path)),
                      out);
    }
    if (!sketch_path.empty()) {
      const SketchDoc doc =
          parse_sketch_jsonl(read_artifact_text(sketch_path));
      warn_dropped(out, "telemetry", doc.declared_dropped, "shards",
                   "sections below undercount");
      render_tail_trajectory(doc, top, out);
      render_hot_objects(doc, top, out);
      render_slo(doc, out);
    }
    if (!timeseries_path.empty()) {
      const TimeseriesDoc doc =
          parse_timeseries_jsonl(read_artifact_text(timeseries_path));
      warn_dropped(out, "timeseries", doc.declared_dropped, "shards",
                   "sections below undercount");
      render_queue_dynamics(doc, top, out);
    }
    if (!invariants_path.empty()) {
      render_invariants(
          parse_invariants_jsonl(read_artifact_text(invariants_path)), top,
          out);
    }
    if (!scale_path.empty()) {
      render_scale_trajectory(parse_bench_json(read_artifact_text(scale_path)),
                              out);
    }

    const std::string out_path = flags.get_string("out", "");
    if (out_path.empty()) {
      std::cout << body.str();
    } else {
      std::ofstream os(out_path);
      if (!os.good()) {
        std::cerr << "error: cannot open '" << out_path << "' for writing\n";
        return 2;
      }
      os << body.str();
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
