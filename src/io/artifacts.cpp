#include "io/artifacts.h"

#include <chrono>
#include <cstdio>
#include <ctime>
#include <ostream>
#include <sstream>

#include "util/check.h"
#include "util/json.h"

namespace mmr {

namespace {

std::string json_number(double v) {
  std::ostringstream os;
  JsonWriter(os).value(v);
  return os.str();
}

}  // namespace

RunMeta& RunMeta::add(const std::string& key, const std::string& value) {
  fields.emplace_back(key, "\"" + json_escape(value) + "\"");
  return *this;
}

RunMeta& RunMeta::add(const std::string& key, const char* value) {
  return add(key, std::string(value));
}

RunMeta& RunMeta::add(const std::string& key, std::int64_t value) {
  fields.emplace_back(key, std::to_string(value));
  return *this;
}

RunMeta& RunMeta::add(const std::string& key, std::uint64_t value) {
  fields.emplace_back(key, std::to_string(value));
  return *this;
}

RunMeta& RunMeta::add(const std::string& key, double value) {
  fields.emplace_back(key, json_number(value));
  return *this;
}

RunMeta& RunMeta::add(const std::string& key, bool value) {
  fields.emplace_back(key, value ? "true" : "false");
  return *this;
}

std::string iso8601_utc_now() {
  const std::time_t now =
      std::chrono::system_clock::to_time_t(std::chrono::system_clock::now());
  std::tm tm_utc{};
  gmtime_r(&now, &tm_utc);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
  return buf;
}

void write_run_meta(JsonWriter& w, const RunMeta& meta, bool timestamp) {
  w.key("run_meta").begin_object();
  w.kv("tool", meta.tool);
  w.kv("git_describe", build_git_describe());
  if (timestamp) w.kv("timestamp_utc", iso8601_utc_now());
  for (const auto& [key, raw] : meta.fields) w.key(key).raw(raw);
  w.end_object();
}

std::string build_git_describe() {
#ifdef MMR_GIT_DESCRIBE
  return MMR_GIT_DESCRIBE;
#else
  return "unknown";
#endif
}

void write_metrics_json(std::ostream& os, const MetricsSnapshot& snapshot,
                        const RunMeta& meta) {
  JsonWriter w(os);
  w.begin_object();
  write_run_meta(w, meta, /*timestamp=*/true);

  w.key("counters").begin_object();
  for (const auto& [name, v] : snapshot.counters) w.kv(name, v);
  w.end_object();

  w.key("gauges").begin_object();
  for (const auto& [name, g] : snapshot.gauges) {
    w.key(name).begin_object();
    w.kv("count", static_cast<std::uint64_t>(g.count));
    w.kv("last", g.last);
    w.kv("mean", g.mean);
    w.kv("min", g.min);
    w.kv("max", g.max);
    w.end_object();
  }
  w.end_object();

  w.key("timers").begin_object();
  for (const auto& [name, t] : snapshot.timers) {
    w.key(name).begin_object();
    w.kv("count", t.count);
    w.kv("total_s", t.total_s);
    w.kv("mean_s", t.mean_s);
    w.kv("min_s", t.min_s);
    w.kv("max_s", t.max_s);
    w.end_object();
  }
  w.end_object();

  w.key("histograms").begin_object();
  for (const auto& [name, h] : snapshot.histograms) {
    w.key(name).begin_object();
    w.kv("lo", h.lo);
    w.kv("hi", h.hi);
    w.kv("total", h.total);
    w.kv("p50", h.p50);
    w.kv("p95", h.p95);
    w.kv("p99", h.p99);
    w.key("bucket_counts").begin_array();
    for (std::uint64_t c : h.counts) w.value(c);
    w.end_array();
    w.end_object();
  }
  w.end_object();

  w.end_object();
  os << '\n';
}

void write_metrics_file(const std::string& path,
                        const MetricsSnapshot& snapshot, const RunMeta& meta) {
  write_artifact_file(path, [&](std::ostream& os) {
    write_metrics_json(os, snapshot, meta);
  });
}

void write_trace_json(std::ostream& os, Tracer& tracer, const RunMeta& meta) {
  JsonWriter w(os);
  w.begin_object();
  write_run_meta(w, meta, /*timestamp=*/true);
  Tracer::write_events_member(w, tracer.snapshot());
  w.kv("displayTimeUnit", "ms");
  w.end_object();
  os << '\n';
}

void write_trace_file(const std::string& path, Tracer& tracer,
                      const RunMeta& meta) {
  write_artifact_file(
      path, [&](std::ostream& os) { write_trace_json(os, tracer, meta); });
}

namespace {

void write_counter_values(JsonWriter& w, const PerfCounterValues& v) {
  w.kv("cycles", v.cycles);
  w.kv("instructions", v.instructions);
  w.kv("cache_misses", v.cache_misses);
  w.kv("branch_misses", v.branch_misses);
}

}  // namespace

void write_timeline_jsonl(std::ostream& os, const TimelineSnapshot& snapshot,
                          std::uint64_t dropped, const RunMeta& meta) {
  write_jsonl_header(
      os, "mmr-timeline", kTimelineVersion, meta,
      [&](JsonWriter& w) {
        w.kv("interval_ms", static_cast<std::uint64_t>(snapshot.interval_ms));
        w.kv("counters",
             snapshot.counters_available ? "available" : "unavailable");
      },
      /*timestamp=*/true);
  for (const TimelineSample& s : snapshot.samples) {
    write_jsonl_record(os, "sample", [&](JsonWriter& w) {
      w.kv("t_ms", s.t_ms);
      w.kv("phase", s.phase);
      w.kv("rss_bytes", s.rss_bytes);
      w.kv("peak_rss_bytes", s.peak_rss_bytes);
      // Every category appears on every line — byte-stable schema.
      w.key("mem").begin_object();
      for (std::size_t c = 0; c < memacct::kCategoryCount; ++c) {
        w.kv(memacct::category_name(static_cast<memacct::Category>(c)),
             s.mem_current[c]);
      }
      w.end_object();
      w.key("mem_peak").begin_object();
      for (std::size_t c = 0; c < memacct::kCategoryCount; ++c) {
        w.kv(memacct::category_name(static_cast<memacct::Category>(c)),
             s.mem_peak[c]);
      }
      w.end_object();
      if (s.counters_valid) {
        w.key("counters").begin_object();
        write_counter_values(w, s.counters);
        w.end_object();
      }
      if (!s.metric_deltas.empty()) {
        w.key("metrics").begin_object();
        for (const auto& [name, delta] : s.metric_deltas) w.kv(name, delta);
        w.end_object();
      }
    });
  }
  write_jsonl_summary(
      os, "samples", snapshot.samples.size(), dropped, [&](JsonWriter& w) {
        w.key("phase_perf").begin_object();
        for (const auto& [phase, totals] : snapshot.phase_perf) {
          w.key(phase).begin_object();
          w.kv("entries", totals.entries);
          write_counter_values(w, totals.values);
          w.end_object();
        }
        w.end_object();
      });
}

void write_timeline_file(const std::string& path,
                         const TimelineSnapshot& snapshot,
                         std::uint64_t dropped, const RunMeta& meta) {
  write_artifact_file(path, [&](std::ostream& os) {
    write_timeline_jsonl(os, snapshot, dropped, meta);
  });
}

TimelineDoc parse_timeline_jsonl(const std::string& text) {
  static const JsonlFormat kFormat[] = {{
      .schema = "mmr-timeline",
      .version = kTimelineVersion,
      .count_key = "samples",
      .header_fields = {"interval_ms", "counters"},
      .records = {{"sample",
                   {"t_ms", "phase", "rss_bytes", "peak_rss_bytes", "mem",
                    "mem_peak"}}},
  }};
  TimelineDoc doc;
  JsonlHooks hooks;
  hooks.header = [&](const JsonValue& v) {
    doc.interval_ms = static_cast<std::uint32_t>(v.at("interval_ms").num_v);
    const std::string& counters = v.at("counters").str_v;
    MMR_CHECK_MSG(counters == "available" || counters == "unavailable",
                  "timeline 'counters' must be available|unavailable, got '" +
                      counters + "'");
    doc.counters_available = counters == "available";
  };
  hooks.summary = [&](const JsonValue& v) {
    if (v.has("phase_perf")) doc.phase_perf = v.at("phase_perf");
  };
  parse_jsonl(text, kFormat, doc, hooks);
  return doc;
}

TimelineDoc read_timeline_file(const std::string& path) {
  return parse_timeline_jsonl(read_artifact_file(path));
}

}  // namespace mmr
