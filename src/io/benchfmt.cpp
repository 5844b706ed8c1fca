#include "io/benchfmt.h"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>

#include "io/jsonl.h"
#include "util/check.h"
#include "util/json.h"
#include "util/stats.h"

namespace mmr {

namespace {

void encode_json_value_into(JsonWriter& w, const JsonValue& v) {
  switch (v.type) {
    case JsonValue::Type::kNull:
      w.null();
      break;
    case JsonValue::Type::kBool:
      w.value(v.bool_v);
      break;
    case JsonValue::Type::kNumber:
      w.value(v.num_v);
      break;
    case JsonValue::Type::kString:
      w.value(v.str_v);
      break;
    case JsonValue::Type::kArray:
      w.begin_array();
      for (const JsonValue& e : v.arr) encode_json_value_into(w, e);
      w.end_array();
      break;
    case JsonValue::Type::kObject:
      w.begin_object();
      for (const auto& [key, e] : v.obj) {
        w.key(key);
        encode_json_value_into(w, e);
      }
      w.end_object();
      break;
  }
}

/// Re-encodes a parsed JSON value to its canonical text form, so run_meta
/// fields survive a parse/write round trip byte-identically (numbers go
/// through the same max_digits10 writer both ways; object keys come back
/// sorted, matching the canonical write order).
std::string encode_json_value(const JsonValue& v) {
  std::ostringstream os;
  JsonWriter w(os);
  encode_json_value_into(w, v);
  return os.str();
}

double num(const JsonValue& v) {
  MMR_CHECK_MSG(v.type == JsonValue::Type::kNumber,
                "expected a JSON number in BENCH json");
  return v.num_v;
}

std::string str(const JsonValue& v) {
  MMR_CHECK_MSG(v.type == JsonValue::Type::kString,
                "expected a JSON string in BENCH json");
  return v.str_v;
}

}  // namespace

BenchStats compute_bench_stats(const std::vector<double>& samples,
                               std::size_t warmup, double iqr_k) {
  BenchStats out;
  if (samples.size() <= warmup) {
    out.discarded = samples.size();
    return out;
  }
  std::vector<double> kept(samples.begin() +
                               static_cast<std::ptrdiff_t>(warmup),
                           samples.end());
  std::sort(kept.begin(), kept.end());
  std::size_t rejected = 0;
  if (kept.size() >= 4 && iqr_k > 0) {
    const double q1 = quantile_sorted(kept, 0.25);
    const double q3 = quantile_sorted(kept, 0.75);
    const double fence = iqr_k * (q3 - q1);
    const double lo = q1 - fence;
    const double hi = q3 + fence;
    const std::size_t before = kept.size();
    kept.erase(std::remove_if(kept.begin(), kept.end(),
                              [&](double x) { return x < lo || x > hi; }),
               kept.end());
    rejected = before - kept.size();
  }
  out.count = kept.size();
  out.discarded = warmup + rejected;
  out.min = kept.front();
  out.max = kept.back();
  out.p50 = quantile_sorted(kept, 0.50);
  out.p95 = quantile_sorted(kept, 0.95);
  out.p99 = quantile_sorted(kept, 0.99);
  double sum = 0;
  for (double x : kept) sum += x;
  out.mean = sum / static_cast<double>(kept.size());
  if (kept.size() >= 2) {
    double m2 = 0;
    for (double x : kept) m2 += (x - out.mean) * (x - out.mean);
    out.stddev = std::sqrt(m2 / static_cast<double>(kept.size() - 1));
  }
  return out;
}

void BenchArtifact::finalize(double iqr_k) {
  for (BenchMeasurement& m : measurements) {
    m.stats = compute_bench_stats(m.samples, m.warmup, iqr_k);
  }
  std::stable_sort(
      measurements.begin(), measurements.end(),
      [](const BenchMeasurement& a, const BenchMeasurement& b) {
        return a.name < b.name;
      });
}

const BenchMeasurement* BenchArtifact::find(const std::string& name) const {
  for (const BenchMeasurement& m : measurements) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void write_bench_json(std::ostream& os, const BenchArtifact& artifact) {
  // Canonical order: sorted meta fields, fixed key order per object. The
  // artifact's own measurement order is preserved (finalize() sorts it).
  std::vector<std::pair<std::string, std::string>> meta = artifact.meta;
  std::stable_sort(meta.begin(), meta.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });

  JsonWriter w(os);
  w.begin_object();
  w.kv("schema_version", static_cast<std::int64_t>(artifact.schema_version));
  w.key("run_meta").begin_object();
  w.kv("tool", artifact.tool);
  w.kv("git_describe", artifact.git_describe);
  w.kv("timestamp_utc", artifact.timestamp_utc);
  for (const auto& [key, raw] : meta) w.key(key).raw(raw);
  w.end_object();
  w.key("measurements").begin_array();
  for (const BenchMeasurement& m : artifact.measurements) {
    w.begin_object();
    w.kv("name", m.name);
    w.kv("unit", m.unit);
    w.kv("direction", m.direction);
    w.kv("warmup", static_cast<std::uint64_t>(m.warmup));
    w.key("samples").begin_array();
    for (double x : m.samples) w.value(x);
    w.end_array();
    w.key("stats").begin_object();
    w.kv("count", static_cast<std::uint64_t>(m.stats.count));
    w.kv("discarded", static_cast<std::uint64_t>(m.stats.discarded));
    w.kv("mean", m.stats.mean);
    w.kv("stddev", m.stats.stddev);
    w.kv("min", m.stats.min);
    w.kv("p50", m.stats.p50);
    w.kv("p95", m.stats.p95);
    w.kv("p99", m.stats.p99);
    w.kv("max", m.stats.max);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << '\n';
}

void write_bench_file(const std::string& path, const BenchArtifact& artifact) {
  write_artifact_file(
      path, [&](std::ostream& os) { write_bench_json(os, artifact); });
}

BenchArtifact parse_bench_json(const std::string& text) {
  const JsonValue root = json_parse(text);
  MMR_CHECK_MSG(root.is_object(), "BENCH json root must be an object");
  BenchArtifact a;
  a.schema_version = static_cast<int>(num(root.at("schema_version")));
  MMR_CHECK_MSG(a.schema_version == kBenchSchemaVersion,
                "unsupported BENCH schema_version " << a.schema_version);
  const JsonValue& meta = root.at("run_meta");
  MMR_CHECK_MSG(meta.is_object(), "run_meta must be an object");
  for (const auto& [key, value] : meta.obj) {
    if (key == "tool") {
      a.tool = str(value);
    } else if (key == "git_describe") {
      a.git_describe = str(value);
    } else if (key == "timestamp_utc") {
      a.timestamp_utc = str(value);
    } else {
      a.meta.emplace_back(key, encode_json_value(value));
    }
  }
  const JsonValue& ms = root.at("measurements");
  MMR_CHECK_MSG(ms.is_array(), "measurements must be an array");
  a.measurements.reserve(ms.arr.size());
  for (const JsonValue& mv : ms.arr) {
    BenchMeasurement m;
    m.name = str(mv.at("name"));
    m.unit = str(mv.at("unit"));
    m.direction = str(mv.at("direction"));
    MMR_CHECK_MSG(m.direction == "lower" || m.direction == "higher" ||
                      m.direction == "none",
                  "bad direction '" << m.direction << "' in BENCH json");
    m.warmup = static_cast<std::size_t>(num(mv.at("warmup")));
    for (const JsonValue& s : mv.at("samples").arr) m.samples.push_back(num(s));
    const JsonValue& st = mv.at("stats");
    m.stats.count = static_cast<std::size_t>(num(st.at("count")));
    m.stats.discarded = static_cast<std::size_t>(num(st.at("discarded")));
    m.stats.mean = num(st.at("mean"));
    m.stats.stddev = num(st.at("stddev"));
    m.stats.min = num(st.at("min"));
    m.stats.p50 = num(st.at("p50"));
    m.stats.p95 = num(st.at("p95"));
    m.stats.p99 = num(st.at("p99"));
    m.stats.max = num(st.at("max"));
    a.measurements.push_back(std::move(m));
  }
  return a;
}

BenchArtifact read_bench_file(const std::string& path) {
  return parse_bench_json(read_artifact_file(path));
}

void BenchCollector::record(const std::string& name, const std::string& unit,
                            double value, const std::string& direction) {
  for (BenchMeasurement& m : measurements_) {
    if (m.name == name) {
      m.samples.push_back(value);
      return;
    }
  }
  BenchMeasurement m;
  m.name = name;
  m.unit = unit;
  m.direction = direction;
  m.samples.push_back(value);
  measurements_.push_back(std::move(m));
}

BenchArtifact BenchCollector::build(const std::string& tool,
                                    const RunMeta& meta,
                                    std::size_t warmup) const {
  BenchArtifact a;
  a.tool = tool;
  a.git_describe = build_git_describe();
  a.timestamp_utc = iso8601_utc_now();
  a.meta = meta.fields;
  a.measurements = measurements_;
  for (BenchMeasurement& m : a.measurements) {
    // Warmup repetitions contribute one sample to every series; discard the
    // same prefix everywhere (series that appear later keep what they have).
    m.warmup = std::min(warmup, m.samples.empty() ? warmup
                                                  : m.samples.size() - 1);
  }
  a.finalize();
  return a;
}

BenchCollector& bench_collector() {
  // Leaked on purpose, like global_metrics(): the atexit artifact writer
  // runs after static destruction would have.
  static BenchCollector* g = new BenchCollector();
  return *g;
}

void record_metrics_delta(BenchCollector& out, const MetricsSnapshot& prev,
                          const MetricsSnapshot& cur) {
  for (const auto& [name, t] : cur.timers) {
    const auto it = prev.timers.find(name);
    const double before = it == prev.timers.end() ? 0.0 : it->second.total_s;
    out.record("timer." + name, "s", t.total_s - before);
  }
  for (const auto& [name, g] : cur.gauges) {
    out.record("gauge." + name, "1", g.last);
  }
  for (const auto& [name, h] : cur.histograms) {
    std::vector<std::uint64_t> counts = h.counts;
    const auto it = prev.histograms.find(name);
    if (it != prev.histograms.end() &&
        it->second.counts.size() == counts.size()) {
      for (std::size_t i = 0; i < counts.size(); ++i) {
        counts[i] -= std::min(it->second.counts[i], counts[i]);
      }
    }
    std::uint64_t total = 0;
    for (std::uint64_t c : counts) total += c;
    if (total == 0) continue;  // histogram untouched this rep
    out.record("hist." + name + ".p50", "s",
               quantile_from_bucket_counts(h.lo, h.hi, counts, 0.50));
    out.record("hist." + name + ".p95", "s",
               quantile_from_bucket_counts(h.lo, h.hi, counts, 0.95));
    out.record("hist." + name + ".p99", "s",
               quantile_from_bucket_counts(h.lo, h.hi, counts, 0.99));
  }
}

}  // namespace mmr
