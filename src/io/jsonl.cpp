#include "io/jsonl.h"

#include <fstream>
#include <ostream>
#include <sstream>

#include "io/artifacts.h"
#include "util/check.h"

namespace mmr {

void write_artifact_file(const std::string& path,
                         const std::function<void(std::ostream&)>& body) {
  std::ofstream os(path);
  MMR_CHECK_MSG(os.good(), "cannot open '" + path + "' for writing");
  body(os);
  os.flush();
  MMR_CHECK_MSG(os.good(), "write to '" + path + "' failed");
}

std::string read_artifact_file(const std::string& path) {
  std::ifstream is(path);
  MMR_CHECK_MSG(is.good(), "artifact '" + path + "' is missing or unreadable");
  std::ostringstream buffer;
  buffer << is.rdbuf();
  std::string text = std::move(buffer).str();
  MMR_CHECK_MSG(text.find_first_not_of(" \t\r\n") != std::string::npos,
                "artifact '" + path + "' is empty");
  return text;
}

void write_jsonl_header(std::ostream& os, const char* schema, int version,
                        const RunMeta& meta,
                        const std::function<void(JsonWriter&)>& extra,
                        bool timestamp) {
  JsonWriter w(os);
  w.begin_object();
  w.kv("schema", schema);
  w.kv("version", std::int64_t{version});
  if (extra) extra(w);
  write_run_meta(w, meta, timestamp);
  w.end_object();
  os << '\n';
}

void write_jsonl_summary(std::ostream& os, const char* count_key,
                         std::uint64_t count, std::uint64_t dropped,
                         const std::function<void(JsonWriter&)>& extra) {
  write_jsonl_record(os, "summary", [&](JsonWriter& w) {
    w.kv(count_key, count);
    w.kv("dropped", dropped);
    if (extra) extra(w);
  });
}

std::vector<const JsonValue*> JsonlDoc::of_type(
    const std::string& type) const {
  std::vector<const JsonValue*> out;
  for (const JsonValue& e : events) {
    if (e.at("type").str_v == type) out.push_back(&e);
  }
  return out;
}

namespace {

const JsonlFormat& header_format(const JsonValue& v,
                                 std::span<const JsonlFormat> formats) {
  MMR_CHECK_MSG(v.has("schema"), "JSONL header line lacks a 'schema' field");
  const std::string& schema = v.at("schema").str_v;
  std::string expected;
  for (const JsonlFormat& f : formats) {
    if (f.schema == schema) return f;
    expected += (expected.empty() ? "" : " or ") + f.schema;
  }
  MMR_CHECK_MSG(false, "unknown schema '" + schema + "' (expected " +
                           expected + ")");
  return formats.front();  // unreachable
}

}  // namespace

void parse_jsonl(const std::string& text, std::span<const JsonlFormat> formats,
                 JsonlDoc& doc, const JsonlHooks& hooks) {
  const JsonlFormat* format = nullptr;
  // Records of one type arrive in runs, so the last match is tried first.
  const JsonlRecordType* last = nullptr;
  std::string line;
  std::size_t line_no = 0;
  // Built only when a check fails: the audit log has ~10^5 lines.
  const auto where = [&] {
    return (format ? format->schema : std::string("JSONL")) + " line " +
           std::to_string(line_no);
  };
  for (std::size_t pos = 0; pos < text.size();) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    line.assign(text, pos, end - pos);
    pos = end + 1;
    ++line_no;
    if (line.empty()) continue;
    JsonValue v = json_parse(line);
    MMR_CHECK_MSG(v.is_object(), where() + " is not a JSON object");
    if (format == nullptr) {
      format = &header_format(v, formats);
      doc.schema = format->schema;
      MMR_CHECK_MSG(v.has("version"), where() + " lacks a 'version' field");
      doc.version = static_cast<int>(v.at("version").num_v);
      MMR_CHECK_MSG(doc.version == format->version,
                    "unsupported " + doc.schema + " version " +
                        std::to_string(doc.version) + " (expected " +
                        std::to_string(format->version) + ")");
      for (const std::string& field : format->header_fields) {
        MMR_CHECK_MSG(v.has(field),
                      doc.schema + " header lacks the '" + field + "' field");
      }
      if (hooks.header) hooks.header(v);
      doc.header = std::move(v);
      continue;
    }
    MMR_CHECK_MSG(v.has("type"), where() + " lacks a 'type' field");
    const std::string& type = v.at("type").str_v;
    MMR_CHECK_MSG(!doc.has_summary, where() + " follows the summary line");
    if (type == "summary") {
      MMR_CHECK_MSG(v.has(format->count_key) && v.has("dropped"),
                    where() + " (summary) lacks '" + format->count_key +
                        "' or 'dropped'");
      doc.has_summary = true;
      doc.declared_events =
          static_cast<std::uint64_t>(v.at(format->count_key).num_v);
      doc.declared_dropped = static_cast<std::uint64_t>(v.at("dropped").num_v);
      if (hooks.summary) hooks.summary(v);
      continue;
    }
    if (last == nullptr || last->type != type) {
      last = nullptr;
      for (const JsonlRecordType& r : format->records) {
        if (r.type == type) last = &r;
      }
      MMR_CHECK_MSG(last != nullptr,
                    where() + " has unknown type '" + type + "'");
    }
    for (const auto* fields : {&format->record_fields, &last->required}) {
      for (const std::string& field : *fields) {
        MMR_CHECK_MSG(v.has(field), where() + " (" + type + ") lacks the '" +
                                        field + "' field");
      }
    }
    if (hooks.record) hooks.record(v, line_no);
    doc.events.push_back(std::move(v));
  }
  MMR_CHECK_MSG(format != nullptr, "JSONL document has no header line");
  MMR_CHECK_MSG(doc.has_summary, doc.schema + " document has no summary line");
  MMR_CHECK_MSG(doc.declared_events == doc.events.size(),
                doc.schema + " summary declares " +
                    std::to_string(doc.declared_events) + " " +
                    format->count_key + " but " +
                    std::to_string(doc.events.size()) + " are present");
}

}  // namespace mmr
