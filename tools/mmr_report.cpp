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
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "io/artifacts.h"
#include "io/benchfmt.h"
#include "io/jsonl.h"
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

  /// A table, or the `empty` note when there are no rows.
  void table(const std::vector<std::string>& header,
             const std::vector<std::vector<std::string>>& rows,
             const std::string& empty = "(no data)") {
    if (rows.empty()) {
      para(empty);
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

/// An integral field as display text.
std::string int_or(const JsonValue& v, const std::string& key, double dflt) {
  return std::to_string(static_cast<std::int64_t>(num_or(v, key, dflt)));
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

/// (run, policy): one solve in an artifact that holds many.
using RunKey = std::pair<std::uint64_t, std::string>;

RunKey run_key(const JsonValue& e) {
  return {static_cast<std::uint64_t>(num_or(e, "run", 0)),
          str_or(e, "policy", "")};
}

// ---------------------------------------------------------------------------
// metrics.json sections

/// The metrics.json block `key`, or null after a note that it is missing.
const JsonValue* metrics_block(const JsonValue& metrics,
                               const std::string& key, ReportWriter& out) {
  if (metrics.has(key)) return &metrics.at(key);
  out.para("(metrics.json has no " + key + " block)");
  return nullptr;
}

void render_run_summary(const JsonValue& metrics, ReportWriter& out) {
  out.section("Run summary");
  const JsonValue* meta = metrics_block(metrics, "run_meta", out);
  if (meta == nullptr) return;
  std::vector<std::vector<std::string>> rows;
  for (const auto& [key, value] : meta->obj) {
    rows.push_back({key, scalar_to_string(value)});
  }
  out.table({"field", "value"}, rows);
}

void render_phase_breakdown(const JsonValue& metrics, ReportWriter& out) {
  out.section("Solver phase times");
  const JsonValue* timers = metrics_block(metrics, "timers", out);
  if (timers == nullptr) return;
  static const char* kPhases[] = {"solver.partition", "solver.storage_restore",
                                  "solver.processing_restore",
                                  "solver.offload", "solver.local_search"};
  double sum = 0;
  for (const char* name : kPhases) {
    if (timers->has(name)) sum += num_or(timers->at(name), "total_s", 0);
  }
  std::vector<std::vector<std::string>> rows;
  for (const char* name : kPhases) {
    if (!timers->has(name)) continue;
    const JsonValue& t = timers->at(name);
    const double total = num_or(t, "total_s", 0);
    rows.push_back(
        {name, int_or(t, "count", 0), format_double(total, 4),
         format_double(num_or(t, "mean_s", 0), 6),
         sum > 0 ? format_percent(total / sum, 1) : "-"});
  }
  out.table({"phase", "count", "total [s]", "mean [s]", "share"}, rows,
            "(no solver.* timers recorded)");
}

void render_objective_trajectory(const JsonValue& metrics, ReportWriter& out) {
  out.section("Objective trajectory (D after each phase)");
  const JsonValue* gauges = metrics_block(metrics, "gauges", out);
  if (gauges == nullptr) return;
  static const char* kStages[] = {
      "solver.d_after_partition", "solver.d_after_storage",
      "solver.d_after_processing", "solver.d_after_offload"};
  std::vector<std::vector<std::string>> rows;
  for (const char* name : kStages) {
    if (!gauges->has(name)) continue;
    const JsonValue& g = gauges->at(name);
    rows.push_back({name, format_double(num_or(g, "mean", 0), 2),
                    format_double(num_or(g, "min", 0), 2),
                    format_double(num_or(g, "max", 0), 2)});
  }
  out.table({"stage", "mean", "min", "max"}, rows,
            "(no solver.d_after_* gauges recorded)");
}

void render_memory_gauges(const JsonValue& metrics, ReportWriter& out) {
  out.section("Tracked memory (memory.* gauges)");
  const JsonValue* gauges = metrics_block(metrics, "gauges", out);
  if (gauges == nullptr) return;
  std::vector<std::vector<std::string>> rows;
  for (const auto& [name, g] : gauges->obj) {
    if (name.rfind("memory.", 0) != 0) continue;
    rows.push_back({name, int_or(g, "count", 0),
                    format_bytes(num_or(g, "mean", 0)),
                    format_bytes(num_or(g, "max", 0))});
  }
  out.table({"category", "observations", "mean", "max"}, rows,
            "(no memory.* gauges recorded)");
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

/// The sample lines folded: first and last sample, RSS peak, phase counts.
struct TimelineFold {
  std::uint64_t samples = 0;
  JsonValue first, last;
  double rss_peak = 0;
  std::map<std::string, std::uint64_t> phase_samples;

  void add(const JsonValue& smp) {
    if (samples++ == 0) first = smp;
    last = smp;
    rss_peak = std::max(rss_peak, num_or(smp, "rss_bytes", 0));
    ++phase_samples[str_or(smp, "phase", "idle")];
  }
};

void render_timeline(const TimelineDoc& doc, const TimelineFold& fold,
                     ReportWriter& out) {
  out.section("Resource timeline");
  if (fold.samples == 0) {
    out.para("(timeline has no samples)");
    return;
  }
  const JsonValue& first = fold.first;
  const JsonValue& last = fold.last;
  const double span_ms = num_or(last, "t_ms", 0) - num_or(first, "t_ms", 0);
  std::ostringstream head;
  head << fold.samples << " samples over "
       << format_double(span_ms / 1000.0, 2) << " s (interval "
       << doc.interval_ms << " ms";
  if (doc.declared_dropped > 0) {
    head << ", " << doc.declared_dropped << " dropped at the cap";
  }
  head << "). RSS " << format_bytes(num_or(first, "rss_bytes", 0)) << " -> "
       << format_bytes(fold.rss_peak) << " peak -> "
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
  std::vector<std::vector<std::string>> prow;
  for (const auto& [phase, n] : fold.phase_samples) {
    prow.push_back({phase, std::to_string(n),
                    format_percent(static_cast<double>(n) /
                                       static_cast<double>(fold.samples),
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
        {phase, int_or(v, "entries", 0), format_double(cycles / 1e6, 1),
         format_double(instr / 1e6, 1),
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

/// The audit log's four sections, folded over its records in one pass.
struct AuditFold {
  std::uint64_t records = 0;
  /// Headroom stamps (kUnlimited: no such limit); the section shows each
  /// run's last phase only.
  struct Headroom {
    RunKey run;
    int rank;  ///< pipeline position of the phase
    double server, proc_load, proc_headroom, storage_used, storage_headroom;
  };
  std::vector<Headroom> headroom;
  std::map<RunKey, int> last_phase;  ///< max phase rank per run
  std::uint64_t partitions = 0, local = 0, evictions = 0, unmarks = 0;
  double bytes_evicted = 0;
  // Off-loading: rounds per run; answers aggregated over everything shown.
  std::map<RunKey, int> rounds_per_run;
  double requested = 0, achieved = 0;
  std::uint64_t answers = 0, saturated = 0;
  std::vector<std::vector<std::string>> round_rows;
  // Replication degree -> (objects, bytes), and the solves they came from.
  std::set<RunKey> replica_runs;
  std::map<int, std::pair<std::uint64_t, double>> by_degree;

  void add(const JsonValue& e) {
    ++records;
    const std::string& type = e.at("type").str_v;
    if (type == "partition") {
      ++partitions;
      if (e.has("local") && e.at("local").bool_v) ++local;
    } else if (type == "evict") {
      ++evictions;
      bytes_evicted += num_or(e, "bytes", 0);
    } else if (type == "unmark") {
      ++unmarks;
    } else if (type == "headroom") {
      // Unknown phase names rank with the first phase.
      const std::string phase = str_or(e, "phase", "");
      int rank = 0;
      for (std::uint8_t p = 0; p < kAuditPhaseCount; ++p) {
        if (phase == kAuditPhaseNames[p]) rank = p;
      }
      auto [it, inserted] = last_phase.emplace(run_key(e), rank);
      if (!inserted) it->second = std::max(it->second, rank);
      headroom.push_back(
          {it->first, rank, num_or(e, "server", -1), num_or(e, "proc_load", 0),
           is_null_field(e, "proc_headroom") ? kUnlimited
                                             : num_or(e, "proc_headroom", 0),
           num_or(e, "storage_used", 0),
           e.has("storage_headroom") ? num_or(e, "storage_headroom", 0)
                                     : kUnlimited});
    } else if (type == "offload_round") {
      ++rounds_per_run[run_key(e)];
      if (round_rows.size() < 20) {
        round_rows.push_back(
            {int_or(e, "run", 0), int_or(e, "round", 0),
             format_double(num_or(e, "repo_load_before", 0), 2),
             format_double(num_or(e, "deficit", 0), 2), int_or(e, "l1", 0),
             int_or(e, "l2", 0), int_or(e, "l3", 0)});
      }
    } else if (type == "offload_answer") {
      ++answers;
      requested += num_or(e, "requested", 0);
      achieved += num_or(e, "achieved", 0);
      if (e.has("moved_to_l3") && e.at("moved_to_l3").bool_v) ++saturated;
    } else if (type == "replica") {
      replica_runs.insert(run_key(e));
      auto& [count, bytes] =
          by_degree[static_cast<int>(num_or(e, "degree", 0))];
      ++count;
      bytes += num_or(e, "bytes", 0);
    }
  }
};

/// Per-server Eq. 8/9/10 headroom after the last recorded solver phase of
/// each run, aggregated across runs (worst case = min headroom).
void render_headroom(const AuditFold& audit, ReportWriter& out) {
  out.section("Constraint headroom (Eq. 8/9/10, final solver phase)");
  if (audit.headroom.empty()) {
    out.para("(no headroom stamps in the audit log)");
    return;
  }

  struct Agg {  // a min that stays kUnlimited: no run had the limit
    int runs = 0;
    double proc_load_sum = 0;
    double proc_headroom_min = kUnlimited;
    double storage_used_sum = 0;
    double storage_headroom_min = kUnlimited;
  };
  std::map<double, Agg> by_server;  // -1 = repository
  for (const AuditFold::Headroom& h : audit.headroom) {
    if (h.rank != audit.last_phase.at(h.run)) continue;
    Agg& a = by_server[h.server];
    ++a.runs;
    a.proc_load_sum += h.proc_load;
    a.proc_headroom_min = std::min(a.proc_headroom_min, h.proc_headroom);
    if (h.storage_headroom == kUnlimited) continue;
    a.storage_used_sum += h.storage_used;
    a.storage_headroom_min =
        std::min(a.storage_headroom_min, h.storage_headroom);
  }
  std::vector<std::vector<std::string>> rows;
  for (const auto& [server, a] : by_server) {
    const double n = a.runs > 0 ? a.runs : 1;
    const bool proc_limited = a.proc_headroom_min != kUnlimited;
    const bool has_storage = a.storage_headroom_min != kUnlimited;
    rows.push_back(
        {server_name(server), std::to_string(a.runs),
         format_double(a.proc_load_sum / n, 2),
         proc_limited ? format_double(a.proc_headroom_min, 2) : "unlimited",
         has_storage ? format_bytes(a.storage_used_sum / n) : "-",
         has_storage ? format_bytes(a.storage_headroom_min) : "-"});
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

void render_solver_decisions(const AuditFold& audit, ReportWriter& out) {
  out.section("Solver decisions");
  std::ostringstream os;
  os << audit.partitions << " partition decisions";
  if (audit.partitions > 0) {
    os << " (" << format_percent(static_cast<double>(audit.local) /
                                     static_cast<double>(audit.partitions),
                                 1)
       << " placed local)";
  }
  os << ", " << audit.evictions << " storage evictions ("
     << format_bytes(audit.bytes_evicted) << " freed), " << audit.unmarks
     << " processing unmarks.";
  out.para(os.str());
}

void render_offload(const AuditFold& audit, ReportWriter& out) {
  out.section("Repository off-loading (Eq. 9 negotiation)");
  if (audit.rounds_per_run.empty()) {
    out.para("(off-loading never triggered)");
    return;
  }
  std::ostringstream os;
  os << audit.rounds_per_run.size() << " run(s) negotiated; " << audit.answers
     << " server answers absorbed " << format_double(audit.achieved, 2)
     << " of " << format_double(audit.requested, 2) << " req/s requested, "
     << audit.saturated << " server(s) saturated into L3.";
  out.para(os.str());
  out.table({"run", "round", "repo load", "deficit", "L1", "L2", "L3"},
            audit.round_rows);
}

void render_replica_degrees(const AuditFold& audit, ReportWriter& out) {
  out.section("Replication degree distribution");
  if (audit.by_degree.empty()) {
    out.para("(no replica-degree events in the audit log)");
    return;
  }
  // Normalized by run·policy groups so the table reads as "per solve" even
  // when the artifact holds many runs.
  const double n = static_cast<double>(audit.replica_runs.size());
  std::vector<std::vector<std::string>> rows;
  for (const auto& [degree, agg] : audit.by_degree) {
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

/// Flight records folded per (mode, page).
struct FlightFold {
  struct PageAgg {
    std::uint64_t samples = 0;
    double response_sum = 0;
    double response_max = 0;
    double t_local_sum = 0;
    double t_remote_sum = 0;
    std::uint64_t remote_bound = 0;
    double server = -1;
  };
  std::uint64_t records = 0;
  std::map<std::pair<std::string, std::uint64_t>, PageAgg> by_page;

  void add(const JsonValue& e) {
    ++records;
    PageAgg& a = by_page[{str_or(e, "mode", ""),
                          static_cast<std::uint64_t>(num_or(e, "page", 0))}];
    ++a.samples;
    const double response = num_or(e, "response", 0);
    a.response_sum += response;
    a.response_max = std::max(a.response_max, response);
    a.t_local_sum += num_or(e, "t_local", 0);
    a.t_remote_sum += num_or(e, "t_remote", 0);
    if (str_or(e, "bound", "local") == "remote") ++a.remote_bound;
    a.server = num_or(e, "server", -1);
  }
};

void render_slowest_pages(const FlightFold& flight, std::size_t top,
                          ReportWriter& out) {
  out.section("Slowest pages (flight recorder)");
  if (flight.by_page.empty()) {
    out.para("(no request records in the flight log)");
    return;
  }

  std::vector<std::pair<std::pair<std::string, std::uint64_t>,
                        FlightFold::PageAgg>>
      ranked(flight.by_page.begin(), flight.by_page.end());
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
  out.para(std::to_string(flight.records) + " sampled requests, " +
           std::to_string(flight.by_page.size()) +
           " distinct (mode, page) groups.");
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
  out.table({"span", "count", "total [ms]", "mean [ms]"}, rows,
            "(no spans recorded)");
}

// ---------------------------------------------------------------------------
// sketch sections (streaming telemetry)

std::string group_label(const JsonValue& e) {
  const std::string policy = str_or(e, "policy", "");
  return (policy.empty() ? "-" : policy) + "/" + str_or(e, "mode", "?");
}

/// The sketch artifact's rows, at most `top` windows and hot objects a group.
struct SketchFold {
  std::vector<std::vector<std::string>> quantile_rows, window_rows, hot_rows,
      slo_rows;
  std::map<std::string, std::size_t> windows_shown, hot_shown;
  std::size_t windows_omitted = 0;

  void add(const JsonValue& e, std::size_t top) {
    const std::string& type = e.at("type").str_v;
    const std::string label = group_label(e);
    if (type == "sketch") {
      quantile_rows.push_back(
          {label, str_or(e, "metric", "?"), int_or(e, "count", 0),
           format_double(num_or(e, "p50", 0), 3),
           format_double(num_or(e, "p90", 0), 3),
           format_double(num_or(e, "p99", 0), 3),
           format_double(num_or(e, "p999", 0), 3),
           format_double(num_or(e, "max", 0), 3)});
    } else if (type == "window") {
      // Windows are in file order = ascending virtual time.
      if (windows_shown[label] >= top) {
        ++windows_omitted;
        return;
      }
      ++windows_shown[label];
      window_rows.push_back(
          {label, int_or(e, "index", 0),
           format_double(num_or(e, "t_start_s", 0), 1),
           format_double(num_or(e, "window_s", 0), 0),
           int_or(e, "requests", 0), format_double(num_or(e, "p99_s", 0), 3),
           format_percent(num_or(e, "attainment", 1), 2),
           format_double(num_or(e, "burn", 0), 2)});
    } else if (type == "hot") {
      if (hot_shown[label] >= top) return;
      ++hot_shown[label];
      hot_rows.push_back({label, int_or(e, "rank", 0), int_or(e, "page", 0),
                          server_name(num_or(e, "server", -1)),
                          int_or(e, "count", 0), int_or(e, "error", 0),
                          format_double(num_or(e, "miss_cost_s", 0), 2)});
    } else if (type == "slo") {
      slo_rows.push_back(
          {label, int_or(e, "windows", 0),
           format_double(num_or(e, "window_s", 0), 0),
           int_or(e, "requests", 0),
           format_percent(num_or(e, "attainment", 1), 2),
           format_double(num_or(e, "worst_burn_1", 0), 2),
           format_double(num_or(e, "worst_burn_6", 0), 2)});
    }
  }
};

/// Per-group quantile summary plus the per-window p99 trajectory.
void render_tail_trajectory(const SketchFold& sketch, std::size_t top,
                            ReportWriter& out) {
  out.section("Tail trajectory (streaming sketches)");
  if (sketch.quantile_rows.empty()) {
    out.para("(no sketch lines in the artifact)");
    return;
  }
  out.table({"policy/mode", "metric", "requests", "p50", "p90", "p99",
             "p999", "max"},
            sketch.quantile_rows);
  if (sketch.window_rows.empty()) {
    out.para("(no window rows in the artifact)");
    return;
  }
  if (sketch.windows_omitted > 0) {
    out.para("First " + std::to_string(top) + " windows per group shown (" +
             std::to_string(sketch.windows_omitted) +
             " more omitted; raise --top for the full trajectory).");
  }
  out.table({"policy/mode", "window", "t [s]", "width [s]", "requests",
             "p99 [s]", "attainment", "burn"},
            sketch.window_rows);
}

void render_hot_objects(const SketchFold& sketch, ReportWriter& out) {
  out.section("Hot objects (SpaceSaving heavy hitters)");
  if (sketch.hot_rows.empty()) {
    out.para("(no hot-set lines in the artifact)");
    return;
  }
  out.para("SpaceSaving estimates: a row's true request count lies in "
           "[count - error, count]; miss cost is the summed "
           "repository-pipeline seconds its requests paid.");
  out.table({"policy/mode", "rank", "page", "host", "count", "error",
             "miss cost [s]"},
            sketch.hot_rows);
}

void render_slo(const SketchDoc& doc, const SketchFold& sketch,
                ReportWriter& out) {
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
  out.table({"policy/mode", "windows", "width [s]", "requests",
             "attainment", "worst burn (1w)", "worst burn (6w)"},
            sketch.slo_rows, "(no slo lines in the artifact)");
}

// ---------------------------------------------------------------------------
// queue-dynamics sections (mmr-timeseries + mmr-invariants)

/// The timeseries records folded per group and per station.
struct TimeseriesFold {
  std::vector<std::vector<std::string>> series_rows;
  /// Per group, from its last series line: slots × horizon × runs of the
  /// repository and of a server, the occupancy denominators.
  std::map<std::string, std::pair<double, double>> capacity;
  /// Peak depth, when the station first queued (saturation onset) and its
  /// busy-time occupancy.
  struct StationAgg {
    double peak_depth = 0;
    double peak_t = 0;
    double first_queue_t = -1;
    double busy = 0;
    double redirected = 0;
    double rejected = 0;
  };
  std::map<std::pair<std::string, double>, StationAgg> by_station;
  /// Every window that redirected or rejected work; the first `top` shown.
  std::vector<std::vector<std::string>> overflow_rows;
  std::size_t overflow_windows = 0;

  void add(const JsonValue& e, std::size_t top) {
    const std::string& type = e.at("type").str_v;
    if (type == "series") {
      series_rows.push_back(
          {group_label(e), int_or(e, "runs", 1), int_or(e, "stations", 0),
           int_or(e, "arrivals", 0), int_or(e, "completions", 0),
           int_or(e, "rejects", 0), int_or(e, "redirects", 0),
           format_double(num_or(e, "horizon_s", 0), 1)});
      const double horizon = num_or(e, "horizon_s", 0);
      const double runs = std::max(1.0, num_or(e, "runs", 1));
      capacity[group_label(e)] = {
          horizon * num_or(e, "repo_concurrency", 1) * runs,
          horizon * num_or(e, "server_concurrency", 1) * runs};
    } else if (type == "window") {
      StationAgg& a = by_station[{group_label(e), num_or(e, "station", 0)}];
      const double depth = num_or(e, "depth_max", 0);
      const double t = num_or(e, "t_start_s", 0);
      if (depth > a.peak_depth) {
        a.peak_depth = depth;
        a.peak_t = t;
      }
      if (depth > 0 && (a.first_queue_t < 0 || t < a.first_queue_t)) {
        a.first_queue_t = t;
      }
      const double red = num_or(e, "redirected", 0);
      const double rej = num_or(e, "rejected", 0);
      a.busy += num_or(e, "busy_s", 0);
      a.redirected += red;
      a.rejected += rej;
      if (red <= 0 && rej <= 0) return;
      ++overflow_windows;
      if (overflow_rows.size() >= top) return;
      overflow_rows.push_back(
          {group_label(e), server_name(num_or(e, "station", 0)),
           format_double(t, 1), format_double(depth, 0),
           format_percent(num_or(e, "util", 0)), format_double(red, 0),
           format_double(rej, 0)});
    }
  }
};

/// Per-station queue dynamics from the DES: utilization occupancy, peak
/// depth and saturation onset per station, and the overflow timeline.
void render_queue_dynamics(const TimeseriesDoc& doc, const TimeseriesFold& ts,
                           std::size_t top, ReportWriter& out) {
  out.section("Queue dynamics (per-station time series)");
  if (ts.series_rows.empty()) {
    out.para("(no series lines in the artifact)");
    return;
  }
  out.para("Virtual-time windows, base width " +
           format_double(doc.window_s, 0) +
           " s (long-horizon stations coarsen in power-of-two steps); "
           "stations are the site servers plus the repository (R).");
  out.table({"policy/mode", "runs", "stations", "arrivals", "completions",
             "rejects", "redirects", "horizon [s]"},
            ts.series_rows);

  const auto utilization = [&](const std::string& label, double station,
                               double busy) {
    const auto it = ts.capacity.find(label);
    if (it == ts.capacity.end()) return 0.0;
    const double cap = station < 0 ? it->second.first : it->second.second;
    return cap > 0 ? busy / cap : 0.0;
  };
  std::vector<std::pair<std::pair<std::string, double>,
                        TimeseriesFold::StationAgg>>
      ranked(ts.by_station.begin(), ts.by_station.end());
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
           std::to_string(ts.by_station.size()) +
           " stations by peak queue depth; 'first queue [s]' is the window "
           "where queueing began (saturation onset).");
  out.table({"policy/mode", "station", "utilization", "peak depth",
             "at t [s]", "first queue [s]", "redirected", "rejected"},
            srows);

  // Overflow timeline: every window that redirected or rejected work.
  if (ts.overflow_rows.empty()) {
    out.para("No window overflowed: every request was admitted locally.");
  } else {
    out.para(std::to_string(ts.overflow_windows) +
             " window(s) overflowed; first " +
             std::to_string(ts.overflow_rows.size()) +
             " shown in virtual-time order.");
    out.table({"policy/mode", "station", "t [s]", "depth max", "util",
               "redirected", "rejected"},
              ts.overflow_rows);
  }
}

/// Conservation-law verdicts per (group, law) and the first `top` violations.
struct InvariantsFold {
  std::uint64_t checks = 0;
  struct LawAgg {
    std::uint64_t checks = 0;
    std::uint64_t violations = 0;
    double max_error = 0;
    double tolerance = 0;
  };
  std::map<std::pair<std::string, std::string>, LawAgg> by_law;
  std::vector<std::vector<std::string>> violation_rows;

  void add(const JsonValue& c, std::size_t top) {
    ++checks;
    LawAgg& a = by_law[{group_label(c), str_or(c, "law", "?")}];
    ++a.checks;
    a.max_error = std::max(a.max_error, num_or(c, "error", 0));
    a.tolerance = num_or(c, "tolerance", 0);
    if (c.at("ok").bool_v) return;
    ++a.violations;
    if (violation_rows.size() >= top) return;
    violation_rows.push_back(
        {group_label(c), str_or(c, "law", "?"),
         is_null_field(c, "station") ? std::string("run")
                                     : server_name(num_or(c, "station", 0)),
         format_double(num_or(c, "expected", 0), 6),
         format_double(num_or(c, "observed", 0), 6),
         format_double(num_or(c, "error", 0), 9)});
  }
};

void render_invariants(const InvariantsDoc& doc, const InvariantsFold& inv,
                       ReportWriter& out) {
  out.section("Conservation-law audit");
  if (inv.checks == 0) {
    out.para("(no check lines in the artifact)");
    return;
  }
  std::vector<std::vector<std::string>> rows;
  for (const auto& [key, a] : inv.by_law) {
    rows.push_back({key.first, key.second, std::to_string(a.checks),
                    std::to_string(a.violations),
                    format_double(a.max_error, 9),
                    format_double(a.tolerance, 9)});
  }
  out.table({"policy/mode", "law", "checks", "violations", "max error",
             "tolerance"},
            rows);
  if (doc.declared_violations == 0) {
    out.para("All " + std::to_string(inv.checks) +
             " conservation-law checks hold: Little's law, flow "
             "conservation, queue drain, busy/utilization consistency and "
             "monotone virtual time.");
    return;
  }
  out.para("VIOLATIONS: " + std::to_string(doc.declared_violations) + " of " +
           std::to_string(inv.checks) +
           " checks failed; first offenders below.");
  out.table({"policy/mode", "law", "station", "expected", "observed",
             "error"},
            inv.violation_rows);
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
  for (const char* canon : {"small", "medium", "large"}) {
    if (seen.erase(canon) > 0) tiers.push_back(canon);
  }
  tiers.insert(tiers.end(), seen.begin(), seen.end());
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

/// A path the user asked for must exist and hold data — silently rendering
/// a partial report would hide a broken producer. read_artifact_file's
/// message ("missing or unreadable" / "is empty") is the report's one-line
/// error, as it is for the JSONL readers.
JsonValue read_json_file(const std::string& path) {
  return json_parse(read_artifact_file(path));
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

/// Reads the mmr-`log` artifact at `path` in one pass, folding every record
/// and, apart, those labeled `policy`, and warns if the log was truncated.
/// Returns the labeled fold, or the full one with a note when no record
/// carries the label: the report degrades gracefully on unlabeled artifacts.
template <typename Fold>
Fold read_provenance(const std::string& path, const std::string& log,
                     const std::string& policy, const std::string& unit,
                     const std::string& consequence, ReportWriter& out) {
  Fold all, matched;
  const ProvenanceDoc doc = read_provenance_file(path, [&](const JsonValue& e) {
    all.add(e);
    if (str_or(e, "policy", "") == policy) matched.add(e);
  });
  MMR_CHECK_MSG(doc.schema == "mmr-" + log,
                "'" + path + "' is a " + doc.schema +
                    " artifact, expected mmr-" + log);
  warn_dropped(out, log, doc.declared_dropped, unit, consequence);
  if (matched.records > 0) return matched;
  if (all.records > 0 && !policy.empty()) {
    out.para("(no events labeled '" + policy + "'; showing all policies)");
  }
  return all;
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
      const auto audit = read_provenance<AuditFold>(
          audit_path, "audit", policy, "events", "sections below undercount",
          out);
      render_headroom(audit, out);
      render_solver_decisions(audit, out);
      render_offload(audit, out);
      render_replica_degrees(audit, out);
    }
    if (!flight_path.empty()) {
      const auto flight = read_provenance<FlightFold>(
          flight_path, "flight", policy, "records",
          "the table below undercounts", out);
      render_slowest_pages(flight, top, out);
    }
    if (!trace_path.empty()) {
      render_trace(read_json_file(trace_path), top, out);
    }
    if (!timeline_path.empty()) {
      TimelineFold fold;
      const TimelineDoc doc = read_timeline_file(
          timeline_path, [&](const JsonValue& e) { fold.add(e); });
      warn_dropped(out, "timeline", doc.declared_dropped, "samples",
                   "the section below undercounts");
      render_timeline(doc, fold, out);
    }
    if (!sketch_path.empty()) {
      SketchFold fold;
      const SketchDoc doc = read_sketch_file(
          sketch_path, [&](const JsonValue& e) { fold.add(e, top); });
      warn_dropped(out, "telemetry", doc.declared_dropped, "shards",
                   "sections below undercount");
      render_tail_trajectory(fold, top, out);
      render_hot_objects(fold, out);
      render_slo(doc, fold, out);
    }
    if (!timeseries_path.empty()) {
      TimeseriesFold fold;
      const TimeseriesDoc doc = read_timeseries_file(
          timeseries_path, [&](const JsonValue& e) { fold.add(e, top); });
      warn_dropped(out, "timeseries", doc.declared_dropped, "shards",
                   "sections below undercount");
      render_queue_dynamics(doc, fold, top, out);
    }
    if (!invariants_path.empty()) {
      InvariantsFold fold;
      const InvariantsDoc doc = read_invariants_file(
          invariants_path, [&](const JsonValue& e) { fold.add(e, top); });
      render_invariants(doc, fold, out);
    }
    if (!scale_path.empty()) {
      render_scale_trajectory(read_bench_file(scale_path), out);
    }

    const std::string out_path = flags.get_string("out", "");
    if (out_path.empty()) {
      std::cout << body.str();
    } else {
      write_artifact_file(out_path,
                          [&](std::ostream& os) { os << body.str(); });
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
