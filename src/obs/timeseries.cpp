#include "obs/timeseries.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <mutex>
#include <ostream>
#include <sstream>
#include <tuple>

#include "util/check.h"
#include "util/memacct.h"

namespace mmr {

namespace {

std::atomic<bool> g_timeseries_enabled{false};

std::mutex& config_mutex() {
  static std::mutex* m = new std::mutex();
  return *m;
}

TimeseriesConfig& mutable_config() {
  static TimeseriesConfig* cfg = new TimeseriesConfig();
  return *cfg;
}

}  // namespace

bool timeseries_enabled() {
  return g_timeseries_enabled.load(std::memory_order_relaxed);
}

void set_timeseries_enabled(bool enabled) {
  g_timeseries_enabled.store(enabled, std::memory_order_relaxed);
}

TimeseriesConfig timeseries_config() {
  std::lock_guard<std::mutex> lock(config_mutex());
  return mutable_config();
}

void set_timeseries_config(const TimeseriesConfig& config) {
  MMR_CHECK_MSG(config.window_s > 0, "timeseries window_s must be > 0");
  MMR_CHECK_MSG(config.max_windows == 0 || config.max_windows >= 2,
                "timeseries max_windows must be 0 (unlimited) or >= 2");
  std::lock_guard<std::mutex> lock(config_mutex());
  mutable_config() = config;
}

void StationSeries::materialize() const {
  if (busy_tail_.empty()) return;
  const double width = windows_.window_s();
  std::int64_t covering = 0;
  for (std::size_t w = 0; w < busy_tail_.size(); ++w) {
    covering += busy_cover_[w];
    const double add =
        busy_tail_[w] +
        (covering > 0 ? static_cast<double>(covering) * width : 0.0);
    if (add > 0) windows_.cell_at(w).busy_s += add;
  }
  // The ±1 coverage deltas pair up inside the scratch extent, so coverage
  // returns to zero and no busy time extends past it.
  busy_tail_.clear();
  busy_cover_.clear();
}

void StationSeries::merge(const StationSeries& other) {
  materialize();
  other.materialize();
  windows_.merge(other.windows_);
  arrivals += other.arrivals;
  served += other.served;
  redirected += other.redirected;
  rejected += other.rejected;
  admitted += other.admitted;
  occupancy_area_s += other.occupancy_area_s;
  time_in_station_s += other.time_in_station_s;
  busy_spread_s += other.busy_spread_s;
  time_violations += other.time_violations;
  if (other.last_t_ > last_t_) last_t_ = other.last_t_;
}

std::size_t StationSeries::approx_bytes() const {
  return sizeof(*this) + windows_.node_bytes() +
         busy_tail_.capacity() * sizeof(double) +
         busy_cover_.capacity() * sizeof(std::int64_t);
}

TimeseriesShard::TimeseriesShard(const TimeseriesConfig& config,
                                 std::uint32_t num_servers)
    : window_s(config.window_s), stations(num_servers + 1) {
  for (StationSeries& s : stations) {
    s.reset(config.window_s, config.max_windows);
  }
}

void TimeseriesShard::merge(const TimeseriesShard& other) {
  MMR_CHECK_MSG(stations.size() == other.stations.size(),
                "cannot merge timeseries shards with different station "
                "counts");
  for (std::size_t i = 0; i < stations.size(); ++i) {
    stations[i].merge(other.stations[i]);
  }
  runs += other.runs;
  horizon_s += other.horizon_s;
  des_arrivals += other.des_arrivals;
  des_completions += other.des_completions;
  des_rejects += other.des_rejects;
  des_redirects += other.des_redirects;
  des_server_busy_s += other.des_server_busy_s;
  des_repo_busy_s += other.des_repo_busy_s;
  server_concurrency = std::max(server_concurrency, other.server_concurrency);
  repo_concurrency = std::max(repo_concurrency, other.repo_concurrency);
}

std::size_t TimeseriesShard::approx_bytes() const {
  std::size_t bytes = sizeof(*this) + policy.capacity();
  for (const StationSeries& s : stations) bytes += s.approx_bytes();
  return bytes;
}

struct TimeseriesLog::Impl {
  mutable std::mutex mutex;
  std::vector<TimeseriesShard> shards;
  std::uint64_t dropped = 0;
  std::uint64_t held_bytes = 0;
  std::size_t max_shards = 100000;
};

TimeseriesLog::Impl& TimeseriesLog::impl() const {
  // Leaked on purpose: the global log must outlive static destructors.
  static Impl* impl = new Impl();
  return *impl;
}

void TimeseriesLog::add(TimeseriesShard&& shard) {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mutex);
  if (i.shards.size() >= i.max_shards) {
    ++i.dropped;
    return;
  }
  const std::size_t bytes = shard.approx_bytes();
  memacct::charge(memacct::Category::kObsTimeseries, bytes);
  i.held_bytes += bytes;
  i.shards.push_back(std::move(shard));
}

void TimeseriesLog::clear() {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mutex);
  memacct::release(memacct::Category::kObsTimeseries, i.held_bytes);
  i.held_bytes = 0;
  i.shards.clear();
  i.dropped = 0;
}

std::size_t TimeseriesLog::size() const {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mutex);
  return i.shards.size();
}

std::uint64_t TimeseriesLog::dropped() const {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mutex);
  return i.dropped;
}

void TimeseriesLog::set_max_shards(std::size_t max_shards) {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mutex);
  i.max_shards = max_shards;
}

std::vector<TimeseriesShard> TimeseriesLog::snapshot() const {
  Impl& i = impl();
  std::vector<TimeseriesShard> shards;
  {
    std::lock_guard<std::mutex> lock(i.mutex);
    shards = i.shards;
  }
  std::stable_sort(shards.begin(), shards.end(),
                   [](const TimeseriesShard& a, const TimeseriesShard& b) {
                     return std::tie(a.policy, a.mode, a.run) <
                            std::tie(b.policy, b.mode, b.run);
                   });
  std::vector<TimeseriesShard> groups;
  for (TimeseriesShard& shard : shards) {
    if (!groups.empty() && groups.back().policy == shard.policy &&
        groups.back().mode == shard.mode) {
      groups.back().merge(shard);
    } else {
      groups.push_back(std::move(shard));
    }
  }
  return groups;
}

TimeseriesLog& global_timeseries_log() {
  static TimeseriesLog* log = new TimeseriesLog();
  return *log;
}

// ---------------------------------------------------------------------------
// Writer.

namespace {

void write_ts_header(std::ostream& os, const TimeseriesConfig& config,
                     const RunMeta& meta) {
  JsonWriter w(os);
  w.begin_object();
  w.kv("schema", "mmr-timeseries");
  w.kv("version", std::int64_t{1});
  w.kv("window_s", config.window_s);
  w.kv("max_windows", config.max_windows);
  w.key("run_meta").begin_object();
  w.kv("tool", meta.tool);
  w.kv("git_describe", build_git_describe());
  for (const auto& [key, raw] : meta.fields) w.key(key).raw(raw);
  w.end_object();
  w.end_object();
  os << '\n';
}

void write_ts_prefix(JsonWriter& w, const char* type,
                     const TimeseriesShard& group) {
  w.kv("type", type);
  w.kv("policy", group.policy);
  w.kv("mode", flight_mode_name(group.mode));
}

std::int32_t station_id(const TimeseriesShard& group, std::size_t index) {
  return index + 1 == group.stations.size()
             ? kRepositoryStation
             : static_cast<std::int32_t>(index);
}

std::uint64_t write_series_line(std::ostream& os,
                                const TimeseriesShard& group) {
  JsonWriter w(os);
  w.begin_object();
  write_ts_prefix(w, "series", group);
  w.kv("runs", group.runs);
  w.kv("stations", static_cast<std::uint64_t>(group.stations.size()));
  w.kv("server_concurrency",
       static_cast<std::uint64_t>(group.server_concurrency));
  w.kv("repo_concurrency", static_cast<std::uint64_t>(group.repo_concurrency));
  w.kv("horizon_s", group.horizon_s);
  w.kv("arrivals", group.des_arrivals);
  w.kv("completions", group.des_completions);
  w.kv("rejects", group.des_rejects);
  w.kv("redirects", group.des_redirects);
  w.kv("server_busy_s", group.des_server_busy_s);
  w.kv("repo_busy_s", group.des_repo_busy_s);
  w.end_object();
  os << '\n';
  return 1;
}

std::uint64_t write_station_line(std::ostream& os,
                                 const TimeseriesShard& group,
                                 std::size_t index) {
  const StationSeries& s = group.stations[index];
  JsonWriter w(os);
  w.begin_object();
  write_ts_prefix(w, "station", group);
  w.kv("station", static_cast<std::int64_t>(station_id(group, index)));
  w.kv("window_s", s.window_s());
  w.kv("arrivals", s.arrivals);
  w.kv("served", s.served);
  w.kv("redirected", s.redirected);
  w.kv("rejected", s.rejected);
  w.kv("admitted", s.admitted);
  w.kv("busy_s", s.busy_spread_s);
  w.kv("time_in_station_s", s.time_in_station_s);
  w.kv("occupancy_area_s", s.occupancy_area_s);
  w.kv("time_violations", s.time_violations);
  w.end_object();
  os << '\n';
  return 1;
}

std::uint64_t write_window_lines(std::ostream& os,
                                 const TimeseriesShard& group,
                                 std::size_t index) {
  const StationSeries& s = group.stations[index];
  const std::uint32_t slots = index + 1 == group.stations.size()
                                  ? group.repo_concurrency
                                  : group.server_concurrency;
  // Station width, not the base: coarsened stations have wider windows.
  const double capacity = s.window_s() * static_cast<double>(slots) *
                          static_cast<double>(group.runs);
  for (const auto& [win, c] : s.cells()) {
    JsonWriter w(os);
    w.begin_object();
    write_ts_prefix(w, "window", group);
    w.kv("station", static_cast<std::int64_t>(station_id(group, index)));
    w.kv("window", win);
    w.kv("t_start_s", static_cast<double>(win) * s.window_s());
    w.kv("arrivals", c.arrivals);
    w.kv("served", c.served);
    w.kv("redirected", c.redirected);
    w.kv("rejected", c.rejected);
    w.kv("depth_max", static_cast<std::uint64_t>(c.depth_max));
    w.kv("depth_mean", c.depth_samples > 0
                           ? c.depth_sum / static_cast<double>(c.depth_samples)
                           : 0.0);
    w.kv("inflight_max", static_cast<std::uint64_t>(c.inflight_max));
    w.kv("busy_s", c.busy_s);
    w.kv("util", capacity > 0 ? c.busy_s / capacity : 0.0);
    w.end_object();
    os << '\n';
  }
  return s.cells().size();
}

void write_to_file(const std::string& path,
                   const std::function<void(std::ostream&)>& body) {
  std::ofstream os(path);
  MMR_CHECK_MSG(os.good(), "cannot open '" + path + "' for writing");
  body(os);
  os.flush();
  MMR_CHECK_MSG(os.good(), "write to '" + path + "' failed");
}

}  // namespace

void write_timeseries_jsonl(std::ostream& os,
                            const std::vector<TimeseriesShard>& groups,
                            const TimeseriesConfig& config,
                            std::uint64_t dropped, const RunMeta& meta) {
  write_ts_header(os, config, meta);
  std::uint64_t events = 0;
  for (const TimeseriesShard& group : groups) {
    events += write_series_line(os, group);
    for (std::size_t i = 0; i < group.stations.size(); ++i) {
      events += write_station_line(os, group, i);
      events += write_window_lines(os, group, i);
    }
  }
  JsonWriter w(os);
  w.begin_object();
  w.kv("type", "summary");
  w.kv("events", events);
  w.kv("dropped", dropped);
  w.end_object();
  os << '\n';
}

void write_timeseries_file(const std::string& path, const TimeseriesLog& log,
                           const RunMeta& meta) {
  const std::vector<TimeseriesShard> groups = log.snapshot();
  const std::uint64_t dropped = log.dropped();
  write_to_file(path, [&](std::ostream& os) {
    write_timeseries_jsonl(os, groups, timeseries_config(), dropped, meta);
  });
}

// ---------------------------------------------------------------------------
// Parser.

std::vector<const JsonValue*> TimeseriesDoc::of_type(
    const std::string& type) const {
  std::vector<const JsonValue*> out;
  for (const JsonValue& e : events) {
    if (e.at("type").str_v == type) out.push_back(&e);
  }
  return out;
}

namespace {

/// Running totals of the window lines under the current station line,
/// checked against the station's own totals when the group closes.
struct StationTally {
  bool open = false;
  std::size_t line_no = 0;
  double station = 0;
  double window_s = 0;  ///< this station's (possibly coarsened) width
  std::string policy;
  std::string mode;
  std::uint64_t arrivals = 0;
  std::uint64_t served = 0;
  std::uint64_t redirected = 0;
  std::uint64_t rejected = 0;
  double busy_s = 0;
  double declared_arrivals = 0;
  double declared_served = 0;
  double declared_redirected = 0;
  double declared_rejected = 0;
  double declared_busy_s = 0;
  bool have_window = false;
  double last_window = 0;
};

void require_fields(const JsonValue& v, std::size_t line_no, const char* what,
                    std::initializer_list<const char*> fields) {
  for (const char* field : fields) {
    MMR_CHECK_MSG(v.has(field), std::string(what) + " line " +
                                    std::to_string(line_no) + " lacks the '" +
                                    field + "' field");
  }
}

void close_station(const StationTally& tally) {
  if (!tally.open) return;
  const std::string where =
      "timeseries station line " + std::to_string(tally.line_no);
  MMR_CHECK_MSG(static_cast<double>(tally.arrivals) ==
                    tally.declared_arrivals,
                where + " declares " +
                    std::to_string(tally.declared_arrivals) +
                    " arrivals but its windows sum to " +
                    std::to_string(tally.arrivals));
  MMR_CHECK_MSG(static_cast<double>(tally.served) == tally.declared_served,
                where + " served total disagrees with its windows");
  MMR_CHECK_MSG(static_cast<double>(tally.redirected) ==
                    tally.declared_redirected,
                where + " redirected total disagrees with its windows");
  MMR_CHECK_MSG(static_cast<double>(tally.rejected) ==
                    tally.declared_rejected,
                where + " rejected total disagrees with its windows");
  const double tol = 1e-6 * std::max(1.0, tally.declared_busy_s);
  MMR_CHECK_MSG(std::abs(tally.busy_s - tally.declared_busy_s) <= tol,
                where + " busy_s disagrees with its windows");
}

}  // namespace

TimeseriesDoc parse_timeseries_jsonl(const std::string& text) {
  TimeseriesDoc doc;
  std::istringstream is(text);
  std::string line;
  bool have_header = false;
  std::size_t line_no = 0;
  StationTally tally;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    JsonValue v = json_parse(line);
    MMR_CHECK_MSG(v.is_object(), "timeseries line " +
                                     std::to_string(line_no) +
                                     " is not a JSON object");
    if (!have_header) {
      MMR_CHECK_MSG(v.has("schema"),
                    "timeseries header line lacks a 'schema' field");
      doc.schema = v.at("schema").str_v;
      MMR_CHECK_MSG(doc.schema == "mmr-timeseries",
                    "unknown timeseries schema '" + doc.schema + "'");
      doc.version = static_cast<int>(v.at("version").num_v);
      MMR_CHECK_MSG(v.has("window_s"),
                    "timeseries header lacks the 'window_s' field");
      doc.window_s = v.at("window_s").num_v;
      MMR_CHECK_MSG(doc.window_s > 0, "timeseries window_s must be > 0");
      doc.header = std::move(v);
      have_header = true;
      continue;
    }
    MMR_CHECK_MSG(v.has("type"), "timeseries line " +
                                     std::to_string(line_no) +
                                     " lacks a 'type' field");
    const std::string& type = v.at("type").str_v;
    if (type == "summary") {
      MMR_CHECK_MSG(!doc.has_summary, "duplicate timeseries summary line");
      close_station(tally);
      tally.open = false;
      doc.has_summary = true;
      doc.declared_events = static_cast<std::uint64_t>(v.at("events").num_v);
      doc.declared_dropped =
          static_cast<std::uint64_t>(v.at("dropped").num_v);
      continue;
    }
    MMR_CHECK_MSG(!doc.has_summary,
                  "timeseries event after the summary line");
    if (type == "series") {
      require_fields(v, line_no, "timeseries series",
                     {"policy", "mode", "runs", "stations", "horizon_s",
                      "arrivals", "completions", "rejects", "redirects"});
      close_station(tally);
      tally.open = false;
    } else if (type == "station") {
      require_fields(v, line_no, "timeseries station",
                     {"policy", "mode", "station", "window_s", "arrivals",
                      "served", "redirected", "rejected", "admitted",
                      "busy_s", "time_in_station_s", "occupancy_area_s",
                      "time_violations"});
      close_station(tally);
      tally = StationTally{};
      tally.open = true;
      tally.line_no = line_no;
      tally.station = v.at("station").num_v;
      tally.window_s = v.at("window_s").num_v;
      // Coarsening only ever doubles, so a station width must be the base
      // width times a power of two.
      double base = doc.window_s;
      while (base < tally.window_s) base *= 2;
      MMR_CHECK_MSG(base == tally.window_s,
                    "timeseries station line " + std::to_string(line_no) +
                        " width is not a power-of-two multiple of the "
                        "header window_s");
      tally.policy = v.at("policy").str_v;
      tally.mode = v.at("mode").str_v;
      tally.declared_arrivals = v.at("arrivals").num_v;
      tally.declared_served = v.at("served").num_v;
      tally.declared_redirected = v.at("redirected").num_v;
      tally.declared_rejected = v.at("rejected").num_v;
      tally.declared_busy_s = v.at("busy_s").num_v;
    } else if (type == "window") {
      require_fields(v, line_no, "timeseries window",
                     {"policy", "mode", "station", "window", "t_start_s",
                      "arrivals", "served", "redirected", "rejected",
                      "depth_max", "depth_mean", "inflight_max", "busy_s",
                      "util"});
      const std::string where =
          "timeseries window line " + std::to_string(line_no);
      MMR_CHECK_MSG(tally.open && v.at("station").num_v == tally.station &&
                        v.at("policy").str_v == tally.policy &&
                        v.at("mode").str_v == tally.mode,
                    where + " does not follow its station line");
      const double win = v.at("window").num_v;
      MMR_CHECK_MSG(!tally.have_window || win > tally.last_window,
                    where + " is out of window order");
      tally.have_window = true;
      tally.last_window = win;
      MMR_CHECK_MSG(v.at("t_start_s").num_v == win * tally.window_s,
                    where + " t_start_s disagrees with its window index");
      MMR_CHECK_MSG(v.at("depth_mean").num_v <= v.at("depth_max").num_v,
                    where + " depth_mean exceeds depth_max");
      MMR_CHECK_MSG(v.at("busy_s").num_v >= 0 && v.at("util").num_v >= 0,
                    where + " has a negative busy/util value");
      tally.arrivals += static_cast<std::uint64_t>(v.at("arrivals").num_v);
      tally.served += static_cast<std::uint64_t>(v.at("served").num_v);
      tally.redirected +=
          static_cast<std::uint64_t>(v.at("redirected").num_v);
      tally.rejected += static_cast<std::uint64_t>(v.at("rejected").num_v);
      tally.busy_s += v.at("busy_s").num_v;
    } else {
      MMR_CHECK_MSG(false, "unknown timeseries event type '" + type +
                               "' on line " + std::to_string(line_no));
    }
    doc.events.push_back(std::move(v));
  }
  MMR_CHECK_MSG(have_header, "timeseries document has no header line");
  MMR_CHECK_MSG(doc.has_summary, "timeseries document has no summary line");
  MMR_CHECK_MSG(doc.declared_events == doc.events.size(),
                "timeseries summary declares " +
                    std::to_string(doc.declared_events) + " events but " +
                    std::to_string(doc.events.size()) + " are present");
  return doc;
}

TimeseriesDoc read_timeseries_file(const std::string& path) {
  std::ifstream is(path);
  MMR_CHECK_MSG(is.good(), "cannot open '" + path + "' for reading");
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return parse_timeseries_jsonl(buffer.str());
}

}  // namespace mmr
