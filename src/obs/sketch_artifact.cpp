#include "obs/sketch_artifact.h"

#include <fstream>
#include <functional>
#include <initializer_list>
#include <ostream>
#include <sstream>

#include "util/check.h"

namespace mmr {

namespace {

void write_header(std::ostream& os, const ObsConfig& config,
                  const RunMeta& meta) {
  JsonWriter w(os);
  w.begin_object();
  w.kv("schema", "mmr-sketch");
  w.kv("version", std::int64_t{kSketchVersion});
  w.kv("alpha", config.alpha);
  w.kv("gamma", (1.0 + config.alpha) / (1.0 - config.alpha));
  w.kv("max_buckets", std::uint64_t{config.max_buckets});
  w.kv("hot_capacity", std::uint64_t{config.hot_capacity});
  w.kv("window_s", config.window_s);
  w.kv("max_windows", kDefaultMaxWindows);
  w.key("slo").begin_object();
  w.kv("response_s", config.slo.response_s);
  w.kv("stretch_x", config.slo.stretch_x);
  w.kv("target", config.slo.target);
  w.end_object();
  w.key("run_meta").begin_object();
  w.kv("tool", meta.tool);
  w.kv("git_describe", build_git_describe());
  for (const auto& [key, raw] : meta.fields) w.key(key).raw(raw);
  w.end_object();
  w.end_object();
  os << '\n';
}

void write_group_prefix(JsonWriter& w, const char* type,
                        const ObsShard& group) {
  w.kv("type", type);
  w.kv("policy", group.policy);
  w.kv("mode", flight_mode_name(group.mode));
}

std::uint64_t write_sketch_line(std::ostream& os, const ObsShard& group,
                                const char* metric,
                                const QuantileSketch& sketch) {
  JsonWriter w(os);
  w.begin_object();
  write_group_prefix(w, "sketch", group);
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
  w.end_object();
  os << '\n';
  return 1;
}

std::uint64_t write_hot_lines(std::ostream& os, const ObsShard& group) {
  std::uint64_t lines = 0;
  std::uint64_t rank = 0;
  for (const SpaceSavingTracker::Entry& e : group.hot.top()) {
    JsonWriter w(os);
    w.begin_object();
    write_group_prefix(w, "hot", group);
    w.kv("rank", ++rank);
    w.kv("page", std::uint64_t{hot_key_page(e.key)});
    w.kv("server", std::uint64_t{hot_key_server(e.key)});
    w.kv("count", e.count);
    w.kv("error", e.error);
    w.kv("miss_cost_s", e.weight);
    w.end_object();
    os << '\n';
    ++lines;
  }
  return lines;
}

std::uint64_t write_window_lines(std::ostream& os, const ObsShard& group,
                                 const SloReport& report) {
  for (const SloWindowRow& row : report.windows) {
    JsonWriter w(os);
    w.begin_object();
    write_group_prefix(w, "window", group);
    w.kv("index", row.index);
    w.kv("t_start_s", row.t_start_s);
    w.kv("window_s", report.window_s);
    w.kv("requests", row.total);
    w.kv("good", row.good);
    w.kv("attainment", row.attainment);
    w.kv("burn", row.burn);
    w.kv("p99_s", row.p99_s);
    w.end_object();
    os << '\n';
  }
  return report.windows.size();
}

std::uint64_t write_slo_line(std::ostream& os, const ObsShard& group,
                             const SloReport& report) {
  JsonWriter w(os);
  w.begin_object();
  write_group_prefix(w, "slo", group);
  w.kv("windows", static_cast<std::uint64_t>(report.windows.size()));
  w.kv("window_s", report.window_s);
  w.kv("requests", report.total);
  w.kv("good", report.good);
  w.kv("attainment", report.attainment);
  w.kv("worst_burn_1", report.worst_burn_1);
  w.kv("worst_burn_6", report.worst_burn_6);
  w.end_object();
  os << '\n';
  return 1;
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

void write_sketch_jsonl(std::ostream& os, const std::vector<ObsShard>& groups,
                        const ObsConfig& config, std::uint64_t dropped,
                        const RunMeta& meta) {
  write_header(os, config, meta);
  std::uint64_t events = 0;
  for (const ObsShard& group : groups) {
    events += write_sketch_line(os, group, "response", group.response);
    events += write_sketch_line(os, group, "stretch", group.stretch);
    events += write_hot_lines(os, group);
    const SloReport report = group.windows.evaluate();
    events += write_window_lines(os, group, report);
    events += write_slo_line(os, group, report);
  }
  JsonWriter w(os);
  w.begin_object();
  w.kv("type", "summary");
  w.kv("events", events);
  w.kv("dropped", dropped);
  w.end_object();
  os << '\n';
}

void write_sketch_file(const std::string& path, const ObsLog& log,
                       const RunMeta& meta) {
  const std::vector<ObsShard> groups = log.snapshot();
  const std::uint64_t dropped = log.dropped();
  write_to_file(path, [&](std::ostream& os) {
    write_sketch_jsonl(os, groups, obs_config(), dropped, meta);
  });
}

std::vector<const JsonValue*> SketchDoc::of_type(
    const std::string& type) const {
  std::vector<const JsonValue*> out;
  for (const JsonValue& e : events) {
    if (e.at("type").str_v == type) out.push_back(&e);
  }
  return out;
}

namespace {

void require_fields(const JsonValue& v, const std::string& where,
                    std::initializer_list<const char*> fields) {
  for (const char* field : fields) {
    MMR_CHECK_MSG(v.has(field), where + " lacks the '" + field + "' field");
  }
}

void check_sketch_event(const JsonValue& v, std::size_t line_no) {
  const std::string where = "sketch line " + std::to_string(line_no);
  require_fields(v, where,
                 {"policy", "mode", "metric", "count", "zero", "sum", "min",
                  "max", "buckets"});
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
    require_fields(v, where,
                   {"policy", "mode", "index", "t_start_s", "window_s",
                    "requests", "good", "attainment"});
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
    require_fields(v, where, {"policy", "mode", "windows", "window_s"});
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
  SketchDoc doc;
  std::istringstream is(text);
  std::string line;
  bool have_header = false;
  std::size_t line_no = 0;
  WindowGroup windows;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    JsonValue v = json_parse(line);
    MMR_CHECK_MSG(v.is_object(), "sketch line " + std::to_string(line_no) +
                                     " is not a JSON object");
    if (!have_header) {
      MMR_CHECK_MSG(v.has("schema"),
                    "sketch header line lacks a 'schema' field");
      doc.schema = v.at("schema").str_v;
      MMR_CHECK_MSG(doc.schema == "mmr-sketch",
                    "unknown sketch schema '" + doc.schema + "'");
      doc.version = static_cast<int>(v.at("version").num_v);
      MMR_CHECK_MSG(doc.version == kSketchVersion,
                    "unsupported sketch version " +
                        std::to_string(doc.version) + " (expected " +
                        std::to_string(kSketchVersion) + ")");
      MMR_CHECK_MSG(v.has("alpha") && v.has("window_s") &&
                        v.has("max_windows") && v.has("slo"),
                    "sketch header lacks the telemetry config");
      windows.base_s = v.at("window_s").num_v;
      MMR_CHECK_MSG(windows.base_s > 0, "sketch window_s must be > 0");
      MMR_CHECK_MSG(v.at("max_windows").num_v >= 1,
                    "sketch max_windows must be >= 1");
      windows.max_windows =
          static_cast<std::uint64_t>(v.at("max_windows").num_v);
      doc.header = std::move(v);
      have_header = true;
      continue;
    }
    MMR_CHECK_MSG(v.has("type"), "sketch line " + std::to_string(line_no) +
                                     " lacks a 'type' field");
    const std::string& type = v.at("type").str_v;
    if (type == "summary") {
      MMR_CHECK_MSG(!doc.has_summary, "duplicate sketch summary line");
      MMR_CHECK_MSG(!windows.open,
                    "sketch window rows lack their group's slo line");
      doc.has_summary = true;
      doc.declared_events = static_cast<std::uint64_t>(v.at("events").num_v);
      doc.declared_dropped =
          static_cast<std::uint64_t>(v.at("dropped").num_v);
      continue;
    }
    MMR_CHECK_MSG(!doc.has_summary, "sketch event after the summary line");
    if (type == "sketch") {
      check_sketch_event(v, line_no);
    } else if (type == "window") {
      windows.window(v, "window line " + std::to_string(line_no));
    } else if (type == "slo") {
      windows.slo(v, "slo line " + std::to_string(line_no));
    } else {
      MMR_CHECK_MSG(type == "hot",
                    "unknown sketch event type '" + type + "' on line " +
                        std::to_string(line_no));
    }
    doc.events.push_back(std::move(v));
  }
  MMR_CHECK_MSG(have_header, "sketch document has no header line");
  MMR_CHECK_MSG(doc.has_summary, "sketch document has no summary line");
  MMR_CHECK_MSG(doc.declared_events == doc.events.size(),
                "sketch summary declares " +
                    std::to_string(doc.declared_events) + " events but " +
                    std::to_string(doc.events.size()) + " are present");
  return doc;
}

SketchDoc read_sketch_file(const std::string& path) {
  std::ifstream is(path);
  MMR_CHECK_MSG(is.good(), "cannot open '" + path + "' for reading");
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return parse_sketch_jsonl(buffer.str());
}

}  // namespace mmr
