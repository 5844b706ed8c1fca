// Machine-readable run artifacts (docs/OBSERVABILITY.md):
//
//   metrics.json — a MetricsSnapshot (counters/gauges/timers/histograms)
//                  plus a run_meta block,
//   trace.json   — Chrome trace_event JSON with the same run_meta block
//                  attached under a top-level "run_meta" key (ignored by
//                  trace viewers),
//   mmr-timeline — JSONL resource timeline from the background sampler
//                  (util/telemetry.h), one "sample" line per tick, in the
//                  io/jsonl.h envelope; its values are wall-clock (like
//                  trace.json). Schema in docs/FORMATS.md.
//
// run_meta records how the numbers were produced: tool name, seed/config
// fields supplied by the harness, the source revision (git describe, baked
// in at configure time), an ISO-8601 UTC timestamp and the wall time.
// obs/artifact_sink.h wires every writer to the harness flags.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "io/jsonl.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/telemetry.h"
#include "util/trace.h"

namespace mmr {

/// Ordered key/value metadata for the run_meta block. Values are stored as
/// encoded JSON so heterogeneous types keep their shape.
struct RunMeta {
  std::string tool;
  std::vector<std::pair<std::string, std::string>> fields;  ///< raw JSON values

  RunMeta& add(const std::string& key, const std::string& value);
  RunMeta& add(const std::string& key, const char* value);
  RunMeta& add(const std::string& key, std::int64_t value);
  RunMeta& add(const std::string& key, std::uint64_t value);
  RunMeta& add(const std::string& key, double value);
  RunMeta& add(const std::string& key, bool value);
};

/// Writes the "run_meta" member: tool, git_describe, timestamp_utc (only
/// when `timestamp`), then the harness fields in insertion order.
void write_run_meta(JsonWriter& w, const RunMeta& meta, bool timestamp);

/// `git describe --always --dirty` of the built source, or "unknown".
std::string build_git_describe();

/// Current time as "YYYY-MM-DDTHH:MM:SSZ" (UTC), as stamped into run_meta.
std::string iso8601_utc_now();

void write_metrics_json(std::ostream& os, const MetricsSnapshot& snapshot,
                        const RunMeta& meta);
void write_metrics_file(const std::string& path,
                        const MetricsSnapshot& snapshot, const RunMeta& meta);

void write_trace_json(std::ostream& os, Tracer& tracer, const RunMeta& meta);
void write_trace_file(const std::string& path, Tracer& tracer,
                      const RunMeta& meta);

/// Writes the `mmr-timeline` JSONL artifact from a sampler snapshot.
/// `dropped` is the sampler's over-cap tick count (TimelineSampler::dropped).
void write_timeline_jsonl(std::ostream& os, const TimelineSnapshot& snapshot,
                          std::uint64_t dropped, const RunMeta& meta);
void write_timeline_file(const std::string& path,
                         const TimelineSnapshot& snapshot,
                         std::uint64_t dropped, const RunMeta& meta);

/// mmr-timeline schema version the writer emits and the parser accepts.
inline constexpr int kTimelineVersion = 1;

/// Parsed mmr-timeline artifact (tools + round-trip tests);
/// `declared_events` is the summary's "samples".
struct TimelineDoc : JsonlDoc {
  std::uint32_t interval_ms = 0;
  bool counters_available = false;
  JsonValue phase_perf;  ///< summary "phase_perf" object; null if absent
};

/// Parses an mmr-timeline JSONL document. Throws CheckError on a malformed
/// document or when the summary's sample count disagrees with the lines.
TimelineDoc parse_timeline_jsonl(const std::string& text,
                                 const JsonlVisitor& on_record = {});
inline TimelineDoc read_timeline_file(const std::string& path,
                                      const JsonlVisitor& on_record = {}) {
  return parse_timeline_jsonl(read_artifact_file(path), on_record);
}

}  // namespace mmr
