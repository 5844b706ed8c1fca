// mmr-sketch JSONL artifact: serialization of the streaming-telemetry
// snapshot and the strict parser that validates it (docs/FORMATS.md
// "mmr-sketch").
//
// Layout: one header line (schema/version/config/run_meta), then per
// (policy, mode) group in canonical order: two "sketch" lines (response,
// stretch), the "hot" ranking, the occupied "window" rows, one "slo"
// summary line; finally the {"type":"summary"} trailer. Window rows and the
// slo line carry their group's width: the header's base window_s doubled
// once per coarsening fold, with every index below the header's
// max_windows. Because groups come from ObsLog::snapshot(), the bytes are
// identical at any thread count.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "io/artifacts.h"
#include "io/jsonl.h"
#include "obs/obs.h"
#include "util/json.h"

namespace mmr {

/// mmr-sketch schema version the writer emits and the parser accepts.
/// Version 2 added per-group window widths (coarsened SLO windows).
inline constexpr int kSketchVersion = 2;

void write_sketch_jsonl(std::ostream& os, const std::vector<ObsShard>& groups,
                        const ObsConfig& config, std::uint64_t dropped,
                        const RunMeta& meta);

/// Snapshots the global log and writes it; creates/truncates `path`.
void write_sketch_file(const std::string& path, const ObsLog& log,
                       const RunMeta& meta);

/// Parsed mmr-sketch document; its records go to the reader's visitor.
struct SketchDoc : JsonlDoc {};

/// Strict parse: the io/jsonl.h envelope and record fields, then
/// per-sketch bucket-count consistency (zero + sum of buckets == count),
/// and per group that every window width is base × 2^k and shared with the
/// slo line, t_start_s == index × window_s, indices ascend and stay below
/// max_windows, and good <= requests. Throws CheckError on violation.
SketchDoc parse_sketch_jsonl(const std::string& text,
                             const JsonlVisitor& on_record = {});
inline SketchDoc read_sketch_file(const std::string& path,
                                  const JsonlVisitor& on_record = {}) {
  return parse_sketch_jsonl(read_artifact_file(path), on_record);
}

}  // namespace mmr
