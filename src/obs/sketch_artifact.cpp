#include "obs/sketch_artifact.h"

#include <ostream>

#include "util/check.h"

namespace mmr {

namespace {

void write_group_prefix(JsonWriter& w, const ObsShard& group) {
  w.kv("policy", group.policy);
  w.kv("mode", flight_mode_name(group.mode));
}

void write_sketch_line(std::ostream& os, const ObsShard& group,
                       const char* metric, const QuantileSketch& sketch) {
  write_jsonl_record(os, "sketch", [&](JsonWriter& w) {
    write_group_prefix(w, group);
    w.kv("metric", metric);
    w.kv("count", sketch.count());
    w.kv("zero", sketch.zero_count());
    w.kv("sum", sketch.sum());
    w.kv("min", sketch.min());
    w.kv("max", sketch.max());
    w.kv("collapses", sketch.collapses());
    if (!sketch.empty()) {
      w.kv("p50", sketch.quantile(0.50));
      w.kv("p90", sketch.quantile(0.90));
      w.kv("p99", sketch.quantile(0.99));
      w.kv("p999", sketch.quantile(0.999));
    }
    w.key("buckets").begin_array();
    for (const auto& [index, count] : sketch.buckets()) {
      w.begin_array();
      w.value(std::int64_t{index});
      w.value(count);
      w.end_array();
    }
    w.end_array();
  });
}

/// Writes one (policy, mode) group; returns its record count.
std::uint64_t write_group(std::ostream& os, const ObsShard& group) {
  write_sketch_line(os, group, "response", group.response);
  write_sketch_line(os, group, "stretch", group.stretch);
  std::uint64_t rank = 0;
  for (const SpaceSavingTracker::Entry& e : group.hot.top()) {
    write_jsonl_record(os, "hot", [&](JsonWriter& w) {
      write_group_prefix(w, group);
      w.kv("rank", ++rank);
      w.kv("page", std::uint64_t{hot_key_page(e.key)});
      w.kv("server", std::uint64_t{hot_key_server(e.key)});
      w.kv("count", e.count);
      w.kv("error", e.error);
      w.kv("miss_cost_s", e.weight);
    });
  }
  const SloReport report = group.windows.evaluate();
  for (const SloWindowRow& row : report.windows) {
    write_jsonl_record(os, "window", [&](JsonWriter& w) {
      write_group_prefix(w, group);
      w.kv("index", row.index);
      w.kv("t_start_s", row.t_start_s);
      w.kv("window_s", report.window_s);
      w.kv("requests", row.total);
      w.kv("good", row.good);
      w.kv("attainment", row.attainment);
      w.kv("burn", row.burn);
      w.kv("p99_s", row.p99_s);
    });
  }
  write_jsonl_record(os, "slo", [&](JsonWriter& w) {
    write_group_prefix(w, group);
    w.kv("windows", static_cast<std::uint64_t>(report.windows.size()));
    w.kv("window_s", report.window_s);
    w.kv("requests", report.total);
    w.kv("good", report.good);
    w.kv("attainment", report.attainment);
    w.kv("worst_burn_1", report.worst_burn_1);
    w.kv("worst_burn_6", report.worst_burn_6);
  });
  return 3 + rank + report.windows.size();
}

}  // namespace

void write_sketch_jsonl(std::ostream& os, const std::vector<ObsShard>& groups,
                        const ObsConfig& config, std::uint64_t dropped,
                        const RunMeta& meta) {
  write_jsonl_header(os, "mmr-sketch", kSketchVersion, meta,
                     [&](JsonWriter& w) {
                       w.kv("alpha", config.alpha);
                       w.kv("gamma",
                            (1.0 + config.alpha) / (1.0 - config.alpha));
                       w.kv("max_buckets", std::uint64_t{config.max_buckets});
                       w.kv("hot_capacity",
                            std::uint64_t{config.hot_capacity});
                       w.kv("window_s", config.window_s);
                       w.kv("max_windows", kDefaultMaxWindows);
                       w.key("slo").begin_object();
                       w.kv("response_s", config.slo.response_s);
                       w.kv("stretch_x", config.slo.stretch_x);
                       w.kv("target", config.slo.target);
                       w.end_object();
                     });
  std::uint64_t events = 0;
  for (const ObsShard& group : groups) events += write_group(os, group);
  write_jsonl_summary(os, "events", events, dropped);
}

void write_sketch_file(const std::string& path, const ObsLog& log,
                       const RunMeta& meta) {
  const std::vector<ObsShard> groups = log.snapshot();
  const std::uint64_t dropped = log.dropped();
  write_artifact_file(path, [&](std::ostream& os) {
    write_sketch_jsonl(os, groups, obs_config(), dropped, meta);
  });
}

namespace {

void check_sketch_event(const JsonValue& v, const std::string& where) {
  const auto count = static_cast<std::uint64_t>(v.at("count").num_v);
  std::uint64_t mass = static_cast<std::uint64_t>(v.at("zero").num_v);
  for (const JsonValue& pair : v.at("buckets").arr) {
    MMR_CHECK_MSG(pair.arr.size() == 2,
                  where + " has a malformed bucket pair");
    mass += static_cast<std::uint64_t>(pair.arr[1].num_v);
  }
  MMR_CHECK_MSG(mass == count,
                where + " bucket counts sum to " + std::to_string(mass) +
                    " but count is " + std::to_string(count));
}

/// The window rows of the (policy, mode) group being read, checked against
/// the header's base width and cap and closed by the group's slo line.
struct WindowGroup {
  double base_s = 0;
  std::uint64_t max_windows = 0;
  bool open = false;
  std::string policy;
  std::string mode;
  double window_s = 0;
  std::uint64_t rows = 0;
  double last_index = 0;

  /// Coarsening only ever doubles, so a group width must be base × 2^k.
  void check_width(double width, const std::string& where) const {
    double w = base_s;
    while (w < width) w *= 2;
    MMR_CHECK_MSG(w == width, where + " width " + std::to_string(width) +
                                  " is not the header window_s times a "
                                  "power of two");
  }

  void window(const JsonValue& v, const std::string& where) {
    const double index = v.at("index").num_v;
    const double width = v.at("window_s").num_v;
    if (!open) {
      check_width(width, where);
      open = true;
      policy = v.at("policy").str_v;
      mode = v.at("mode").str_v;
      window_s = width;
      rows = 0;
    } else {
      MMR_CHECK_MSG(v.at("policy").str_v == policy &&
                        v.at("mode").str_v == mode,
                    where + " starts a new group before the previous "
                            "group's slo line");
      MMR_CHECK_MSG(width == window_s,
                    where + " width differs from its group's earlier rows");
      MMR_CHECK_MSG(index > last_index,
                    where + " is out of ascending index order");
    }
    // With ascending indices this also keeps a group within max_windows
    // rows.
    MMR_CHECK_MSG(index < static_cast<double>(max_windows),
                  where + " index is past the header's max_windows");
    last_index = index;
    ++rows;
    MMR_CHECK_MSG(v.at("t_start_s").num_v == index * width,
                  where + " t_start_s is not index x window_s");
    MMR_CHECK_MSG(v.at("good").num_v <= v.at("requests").num_v,
                  where + " reports more good requests than requests");
  }

  void slo(const JsonValue& v, const std::string& where) {
    const double width = v.at("window_s").num_v;
    check_width(width, where);
    if (open) {
      MMR_CHECK_MSG(v.at("policy").str_v == policy &&
                        v.at("mode").str_v == mode && width == window_s,
                    where + " does not match its group's window rows");
    }
    MMR_CHECK_MSG(static_cast<std::uint64_t>(v.at("windows").num_v) ==
                      (open ? rows : 0),
                  where + " window count disagrees with its window rows");
    open = false;
  }
};

}  // namespace

SketchDoc parse_sketch_jsonl(const std::string& text) {
  static const JsonlFormat kFormat[] = {{
      .schema = "mmr-sketch",
      .version = kSketchVersion,
      .header_fields = {"alpha", "window_s", "max_windows", "slo"},
      .record_fields = {"policy", "mode"},
      .records =
          {{"sketch",
            {"metric", "count", "zero", "sum", "min", "max", "collapses",
             "buckets"}},
           {"hot", {"rank", "page", "server", "count", "error", "miss_cost_s"}},
           {"window",
            {"index", "t_start_s", "window_s", "requests", "good",
             "attainment", "burn", "p99_s"}},
           {"slo",
            {"windows", "window_s", "requests", "good", "attainment",
             "worst_burn_1", "worst_burn_6"}}},
  }};
  SketchDoc doc;
  WindowGroup windows;
  JsonlHooks hooks;
  hooks.header = [&](const JsonValue& v) {
    windows.base_s = v.at("window_s").num_v;
    MMR_CHECK_MSG(windows.base_s > 0, "sketch window_s must be > 0");
    MMR_CHECK_MSG(v.at("max_windows").num_v >= 1,
                  "sketch max_windows must be >= 1");
    windows.max_windows = static_cast<std::uint64_t>(v.at("max_windows").num_v);
  };
  hooks.record = [&](const JsonValue& v, std::size_t line_no) {
    const std::string& type = v.at("type").str_v;
    const std::string where = type + " line " + std::to_string(line_no);
    if (type == "sketch") {
      check_sketch_event(v, where);
    } else if (type == "window") {
      windows.window(v, where);
    } else if (type == "slo") {
      windows.slo(v, where);
    }
  };
  hooks.summary = [&](const JsonValue&) {
    MMR_CHECK_MSG(!windows.open,
                  "sketch window rows lack their group's slo line");
  };
  parse_jsonl(text, kFormat, doc, hooks);
  return doc;
}

SketchDoc read_sketch_file(const std::string& path) {
  return parse_sketch_jsonl(read_artifact_file(path));
}

}  // namespace mmr
