// The JSONL envelope shared by every mmr-* line artifact (docs/FORMATS.md
// "JSONL envelope"), plus the checked file I/O every artifact writer and
// reader goes through.
//
// An envelope is one header line
//   {"schema":S,"version":V, <family header fields>, "run_meta":{...}}
// then typed record lines {"type":T, ...} and exactly one summary line
//   {"type":"summary", <count key>:N, "dropped":D, <family extras>}.
// Writers emit the three line kinds with write_jsonl_header /
// write_jsonl_record / write_jsonl_summary. parse_jsonl is the one strict
// parser: a per-family JsonlFormat table names the schema, version, count
// key and record types with their required fields; JsonlHooks carry the
// few rules that span lines (window groups, station tallies, verdicts). The
// parser keeps no records: each reaches the caller once, through the hook.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.h"

namespace mmr {

struct RunMeta;

/// Creates/truncates `path` and lets `body` write it; throws CheckError
/// when the file cannot be opened or the write fails.
void write_artifact_file(const std::string& path,
                         const std::function<void(std::ostream&)>& body);

/// Reads a whole artifact file. Throws CheckError "artifact 'P' is missing
/// or unreadable" or "artifact 'P' is empty" (whitespace only).
std::string read_artifact_file(const std::string& path);

/// Header line: schema, version, the family's `extra` fields, then run_meta
/// (timestamp_utc only when `timestamp`; the timeline is the one family
/// whose values are wall-clock anyway).
void write_jsonl_header(std::ostream& os, const char* schema, int version,
                        const RunMeta& meta,
                        const std::function<void(JsonWriter&)>& extra = {},
                        bool timestamp = false);

/// One record line {"type":type, <body's fields>}.
template <typename Body>
void write_jsonl_record(std::ostream& os, const char* type, Body&& body) {
  JsonWriter w(os);
  w.begin_object();
  w.kv("type", type);
  body(w);
  w.end_object();
  os << '\n';
}

/// Summary line {"type":"summary", count_key:count, "dropped", <extra>}.
void write_jsonl_summary(std::ostream& os, const char* count_key,
                         std::uint64_t count, std::uint64_t dropped,
                         const std::function<void(JsonWriter&)>& extra = {});

/// A record type a family accepts and the fields each such line carries.
struct JsonlRecordType {
  std::string type;
  std::vector<std::string> required;
};

/// The table that drives parse_jsonl for one schema.
struct JsonlFormat {
  std::string schema;
  int version = 1;
  std::string count_key = "events";  ///< summary field counting the records
  std::vector<std::string> header_fields{};  ///< required besides schema etc.
  std::vector<std::string> record_fields{};  ///< required on every record
  std::vector<JsonlRecordType> records{};
};

/// Family rules that span lines; each may throw CheckError. `record` sees
/// every record line (after its table checks) with its 1-based line number;
/// `summary` sees the summary line after every record.
struct JsonlHooks {
  std::function<void(const JsonValue& header)> header;
  std::function<void(const JsonValue& record, std::size_t line_no)> record;
  std::function<void(const JsonValue& summary)> summary;
};

/// Every family reader's (parse_*_jsonl, read_*_file) trailing argument:
/// sees each record line once, in file order, after the family's checks.
using JsonlVisitor = std::function<void(const JsonValue& record)>;

/// The parsed envelope without records; each family's *Doc derives from it.
struct JsonlDoc {
  std::string schema;
  int version = 0;
  JsonValue header;  ///< the full header line (run_meta etc.)
  bool has_summary = false;
  std::uint64_t declared_events = 0;  ///< the summary's count key
  std::uint64_t declared_dropped = 0;
};

/// Strict parse of one envelope into `doc`. The header must name one of
/// `formats`' schemas at exactly its (integral) version and carry its header
/// fields; every record must have a known type, the format's record fields
/// and that type's required fields; exactly one summary line must come last,
/// with integral counts in [0, 2^53], and declare as many records as are
/// present. Blank lines are skipped. Throws CheckError on violation.
void parse_jsonl(std::string_view text, std::span<const JsonlFormat> formats,
                 JsonlDoc& doc, const JsonlHooks& hooks = {});

}  // namespace mmr
