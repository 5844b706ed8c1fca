#include "obs/timeseries.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <ostream>
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

void write_ts_prefix(JsonWriter& w, const TimeseriesShard& group) {
  w.kv("policy", group.policy);
  w.kv("mode", flight_mode_name(group.mode));
}

std::int32_t station_id(const TimeseriesShard& group, std::size_t index) {
  return index + 1 == group.stations.size()
             ? kRepositoryStation
             : static_cast<std::int32_t>(index);
}

void write_series_line(std::ostream& os, const TimeseriesShard& group) {
  write_jsonl_record(os, "series", [&](JsonWriter& w) {
    write_ts_prefix(w, group);
    w.kv("runs", group.runs);
    w.kv("stations", static_cast<std::uint64_t>(group.stations.size()));
    w.kv("server_concurrency",
         static_cast<std::uint64_t>(group.server_concurrency));
    w.kv("repo_concurrency",
         static_cast<std::uint64_t>(group.repo_concurrency));
    w.kv("horizon_s", group.horizon_s);
    w.kv("arrivals", group.des_arrivals);
    w.kv("completions", group.des_completions);
    w.kv("rejects", group.des_rejects);
    w.kv("redirects", group.des_redirects);
    w.kv("server_busy_s", group.des_server_busy_s);
    w.kv("repo_busy_s", group.des_repo_busy_s);
  });
}

/// Writes one station's totals line and its window lines; returns the
/// number of lines written.
std::uint64_t write_station_lines(std::ostream& os,
                                  const TimeseriesShard& group,
                                  std::size_t index) {
  const StationSeries& s = group.stations[index];
  const auto station = static_cast<std::int64_t>(station_id(group, index));
  write_jsonl_record(os, "station", [&](JsonWriter& w) {
    write_ts_prefix(w, group);
    w.kv("station", station);
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
  });
  const std::uint32_t slots = index + 1 == group.stations.size()
                                  ? group.repo_concurrency
                                  : group.server_concurrency;
  // Station width, not the base: coarsened stations have wider windows.
  const double capacity = s.window_s() * static_cast<double>(slots) *
                          static_cast<double>(group.runs);
  for (const auto& [win, c] : s.cells()) {
    write_jsonl_record(os, "window", [&](JsonWriter& w) {
      write_ts_prefix(w, group);
      w.kv("station", station);
      w.kv("window", win);
      w.kv("t_start_s", static_cast<double>(win) * s.window_s());
      w.kv("arrivals", c.arrivals);
      w.kv("served", c.served);
      w.kv("redirected", c.redirected);
      w.kv("rejected", c.rejected);
      w.kv("depth_max", static_cast<std::uint64_t>(c.depth_max));
      w.kv("depth_mean",
           c.depth_samples > 0
               ? c.depth_sum / static_cast<double>(c.depth_samples)
               : 0.0);
      w.kv("inflight_max", static_cast<std::uint64_t>(c.inflight_max));
      w.kv("busy_s", c.busy_s);
      w.kv("util", capacity > 0 ? c.busy_s / capacity : 0.0);
    });
  }
  return 1 + s.cells().size();
}

}  // namespace

void write_timeseries_jsonl(std::ostream& os,
                            const std::vector<TimeseriesShard>& groups,
                            const TimeseriesConfig& config,
                            std::uint64_t dropped, const RunMeta& meta) {
  write_jsonl_header(os, "mmr-timeseries", kTimeseriesVersion, meta,
                     [&](JsonWriter& w) {
                       w.kv("window_s", config.window_s);
                       w.kv("max_windows", config.max_windows);
                     });
  std::uint64_t events = 0;
  for (const TimeseriesShard& group : groups) {
    write_series_line(os, group);
    ++events;
    for (std::size_t i = 0; i < group.stations.size(); ++i) {
      events += write_station_lines(os, group, i);
    }
  }
  write_jsonl_summary(os, "events", events, dropped);
}

void write_timeseries_file(const std::string& path, const TimeseriesLog& log,
                           const RunMeta& meta) {
  const std::vector<TimeseriesShard> groups = log.snapshot();
  const std::uint64_t dropped = log.dropped();
  write_artifact_file(path, [&](std::ostream& os) {
    write_timeseries_jsonl(os, groups, timeseries_config(), dropped, meta);
  });
}

// ---------------------------------------------------------------------------
// Parser.

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

/// Checks one station/series/window line against the running tally.
void check_record(const JsonValue& v, std::size_t line_no, double base_s,
                  StationTally& tally) {
  const std::string& type = v.at("type").str_v;
  if (type == "series") {
    close_station(tally);
    tally.open = false;
  } else if (type == "station") {
    close_station(tally);
    tally = StationTally{};
    tally.open = true;
    tally.line_no = line_no;
    tally.station = v.at("station").num_v;
    tally.window_s = v.at("window_s").num_v;
    // Coarsening only ever doubles, so a station width must be the base
    // width times a power of two.
    double base = base_s;
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
  } else {  // window
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
    tally.redirected += static_cast<std::uint64_t>(v.at("redirected").num_v);
    tally.rejected += static_cast<std::uint64_t>(v.at("rejected").num_v);
    tally.busy_s += v.at("busy_s").num_v;
  }
}

}  // namespace

TimeseriesDoc parse_timeseries_jsonl(const std::string& text) {
  static const JsonlFormat kFormat[] = {{
      .schema = "mmr-timeseries",
      .version = kTimeseriesVersion,
      .header_fields = {"window_s", "max_windows"},
      .record_fields = {"policy", "mode"},
      .records =
          {{"series",
            {"runs", "stations", "server_concurrency", "repo_concurrency",
             "horizon_s", "arrivals", "completions", "rejects", "redirects",
             "server_busy_s", "repo_busy_s"}},
           {"station",
            {"station", "window_s", "arrivals", "served", "redirected",
             "rejected", "admitted", "busy_s", "time_in_station_s",
             "occupancy_area_s", "time_violations"}},
           {"window",
            {"station", "window", "t_start_s", "arrivals", "served",
             "redirected", "rejected", "depth_max", "depth_mean",
             "inflight_max", "busy_s", "util"}}},
  }};
  TimeseriesDoc doc;
  StationTally tally;
  JsonlHooks hooks;
  hooks.header = [&](const JsonValue& v) {
    doc.window_s = v.at("window_s").num_v;
    MMR_CHECK_MSG(doc.window_s > 0, "timeseries window_s must be > 0");
  };
  hooks.record = [&](const JsonValue& v, std::size_t line_no) {
    check_record(v, line_no, doc.window_s, tally);
  };
  hooks.summary = [&](const JsonValue&) { close_station(tally); };
  parse_jsonl(text, kFormat, doc, hooks);
  return doc;
}

TimeseriesDoc read_timeseries_file(const std::string& path) {
  return parse_timeseries_jsonl(read_artifact_file(path));
}

}  // namespace mmr
