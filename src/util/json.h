// Minimal JSON support for the observability artifacts (metrics.json,
// trace.json, the mmr-* JSONL logs): a buffered streaming writer with
// automatic comma placement, and a small recursive-descent parser. The
// parser is on the hot path of every strict artifact re-read (io/jsonl.h
// runs each JSONL line through it; benchfmt, mmr_report and the tests parse
// whole documents). Deliberately not a general-purpose JSON library — no DOM
// mutation, no incremental parse; see docs/OBSERVABILITY.md.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mmr {

/// Escapes `s` for inclusion inside a JSON string literal. Quotes are not
/// added; control characters become \uXXXX.
std::string json_escape(std::string_view s);

/// The JSON text of `v`: %.17g (max_digits10, so it parses back to the same
/// bits), or null when `v` is not finite (JSON has no NaN/Inf). The one
/// number formatter of every artifact writer.
std::string json_number(double v);

/// Streaming JSON writer. The caller keeps begin/end calls balanced; the
/// writer tracks nesting and inserts commas. Non-finite doubles are written
/// as null. Output is buffered and handed to the stream once per complete
/// top-level value (or per 64 KiB inside a large one), so write to `os`
/// directly only between top-level values.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os) : os_(os) {
    buf_.reserve(512);
    stack_.reserve(4);
  }
  ~JsonWriter() { flush(); }
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();
  /// Writes `"k":` inside the current object; follow with a value or a
  /// begin_object()/begin_array().
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(double v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(bool v);
  JsonWriter& null();
  /// Emits `raw` verbatim in value position (caller guarantees valid JSON).
  JsonWriter& raw(std::string_view raw);

  template <typename T>
  JsonWriter& kv(std::string_view k, const T& v) {
    key(k);
    return value(v);
  }

 private:
  void before_value();
  /// Hands the buffer to the stream when a top-level value is complete or
  /// the buffer is large.
  void after_value();
  void flush();

  std::ostream& os_;
  std::string buf_;
  /// One entry per open container: the element count written so far.
  /// first = is_object.
  std::vector<std::pair<bool, std::size_t>> stack_;
  bool pending_key_ = false;
};

/// Parsed JSON value. Numbers are stored as double (sufficient for the
/// artifact round-trip tests; 64-bit counters above 2^53 lose precision).
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool bool_v = false;
  double num_v = 0;
  std::string str_v;
  std::vector<JsonValue> arr;
  /// Object members sorted by key, one per key (the first occurrence in the
  /// text wins), so iteration is in key order.
  std::vector<std::pair<std::string, JsonValue>> obj;

  bool is_null() const { return type == Type::kNull; }
  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }
  bool has(std::string_view k) const { return find(k) != nullptr; }
  /// Object member access; throws CheckError when absent or not an object.
  const JsonValue& at(std::string_view k) const;
  /// Array element access; throws CheckError when out of range.
  const JsonValue& at(std::size_t i) const;

 private:
  /// Binary search of `obj`; nullptr when absent or not an object.
  const JsonValue* find(std::string_view k) const;
};

/// Parses a complete JSON document; trailing non-whitespace is an error.
/// Throws CheckError with an offset on malformed input, including numbers
/// outside the double range (subnormals parse exactly).
JsonValue json_parse(std::string_view text);

}  // namespace mmr
