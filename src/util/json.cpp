#include "util/json.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>
#include <system_error>

#include "util/check.h"

namespace mmr {

namespace {

/// Enough for any %.17g double ("-2.2250738585072014e-308" is 24 chars) and
/// any 64-bit integer.
constexpr std::size_t kNumberChars = 32;

/// The buffered writer hands its text to the stream at this size even in
/// the middle of a value.
constexpr std::size_t kFlushBytes = 64 * 1024;

bool needs_escape(unsigned char c) { return c < 0x20 || c == '"' || c == '\\'; }

void append_escaped(std::string& out, std::string_view s) {
  const auto plain = std::find_if(s.begin(), s.end(), [](char c) {
    return needs_escape(static_cast<unsigned char>(c));
  });
  out.append(s.begin(), plain);
  static constexpr char kHex[] = "0123456789abcdef";
  for (auto it = plain; it != s.end(); ++it) {
    const auto c = static_cast<unsigned char>(*it);
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          out += "\\u00";
          out += kHex[c >> 4];
          out += kHex[c & 0xF];
        } else {
          out += static_cast<char>(c);
        }
    }
  }
}

/// Formats `v` into `buf` as %.17g, or "null" when not finite; returns the
/// end of the text.
char* format_number(char* buf, double v) {
  if (!std::isfinite(v)) return std::copy_n("null", 4, buf);
  return std::to_chars(buf, buf + kNumberChars, v, std::chars_format::general,
                       std::numeric_limits<double>::max_digits10)
      .ptr;
}

template <typename Int>
void append_integer(std::string& out, Int v) {
  char buf[kNumberChars];
  out.append(buf, std::to_chars(buf, buf + kNumberChars, v).ptr);
}

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  append_escaped(out, s);
  return out;
}

std::string json_number(double v) {
  char buf[kNumberChars];
  return std::string(buf, format_number(buf, v));
}

void JsonWriter::flush() {
  if (buf_.empty()) return;
  os_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
  buf_.clear();
}

void JsonWriter::before_value() {
  if (pending_key_) {
    pending_key_ = false;
    return;
  }
  if (!stack_.empty()) {
    MMR_CHECK_MSG(!stack_.back().first,
                  "JSON object members need key() before the value");
    if (stack_.back().second > 0) buf_ += ',';
    ++stack_.back().second;
  }
}

void JsonWriter::after_value() {
  if (stack_.empty() || buf_.size() >= kFlushBytes) flush();
}

JsonWriter& JsonWriter::begin_object() {
  before_value();
  buf_ += '{';
  stack_.emplace_back(true, 0);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  MMR_CHECK_MSG(!stack_.empty() && stack_.back().first,
                "end_object() without begin_object()");
  stack_.pop_back();
  buf_ += '}';
  after_value();
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  before_value();
  buf_ += '[';
  stack_.emplace_back(false, 0);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  MMR_CHECK_MSG(!stack_.empty() && !stack_.back().first,
                "end_array() without begin_array()");
  stack_.pop_back();
  buf_ += ']';
  after_value();
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  MMR_CHECK_MSG(!stack_.empty() && stack_.back().first && !pending_key_,
                "key() is only valid directly inside an object");
  if (stack_.back().second > 0) buf_ += ',';
  ++stack_.back().second;
  buf_ += '"';
  append_escaped(buf_, k);
  buf_ += "\":";
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  before_value();
  buf_ += '"';
  append_escaped(buf_, v);
  buf_ += '"';
  after_value();
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  before_value();
  char buf[kNumberChars];
  buf_.append(buf, format_number(buf, v));
  after_value();
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  before_value();
  append_integer(buf_, v);
  after_value();
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  before_value();
  append_integer(buf_, v);
  after_value();
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  before_value();
  buf_ += v ? "true" : "false";
  after_value();
  return *this;
}

JsonWriter& JsonWriter::null() {
  before_value();
  buf_ += "null";
  after_value();
  return *this;
}

JsonWriter& JsonWriter::raw(std::string_view raw) {
  before_value();
  buf_ += raw;
  after_value();
  return *this;
}

const JsonValue* JsonValue::find(std::string_view k) const {
  if (!is_object()) return nullptr;
  const auto it = std::lower_bound(
      obj.begin(), obj.end(), k,
      [](const auto& member, std::string_view key) {
        return std::string_view(member.first) < key;
      });
  return it != obj.end() && it->first == k ? &it->second : nullptr;
}

const JsonValue& JsonValue::at(std::string_view k) const {
  MMR_CHECK_MSG(is_object(), "JsonValue::at(key) on a non-object");
  const JsonValue* v = find(k);
  MMR_CHECK_MSG(v != nullptr, "missing JSON key '" + std::string(k) + "'");
  return *v;
}

const JsonValue& JsonValue::at(std::size_t i) const {
  MMR_CHECK_MSG(is_array(), "JsonValue::at(index) on a non-array");
  MMR_CHECK_MSG(i < arr.size(), "JSON array index out of range");
  return arr[i];
}

namespace {

using Member = std::pair<std::string, JsonValue>;

/// Buffers reused across objects and documents: one member list per nesting
/// depth and the index buffer that sorts them. Kept per thread, so reading
/// a JSONL file line by line does not reallocate them for every line.
struct ParseScratch {
  std::vector<std::vector<Member>> members;
  std::vector<std::size_t> order;
};

class Parser {
 public:
  Parser(std::string_view text, ParseScratch& scratch)
      : text_(text), scratch_(scratch) {}

  JsonValue parse_document() {
    JsonValue v;
    parse_value(v);
    skip_ws();
    MMR_CHECK_MSG(pos_ == text_.size(),
                  "trailing characters after JSON document at offset " +
                      std::to_string(pos_));
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) {
    throw CheckError("JSON parse error at offset " + std::to_string(pos_) +
                     ": " + what);
  }

  /// std::isspace in the C locale: space, \t, \n, \v, \f, \r.
  static bool is_ws(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }
  static bool is_digit(char c) { return c >= '0' && c <= '9'; }

  void skip_ws() {
    while (pos_ < text_.size() && is_ws(text_[pos_])) ++pos_;
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  /// Parses one value into `v`, a default-constructed (null) value.
  /// Values are filled in place, so no temporary is moved per member.
  void parse_value(JsonValue& v) {
    switch (peek()) {
      case '{':
        parse_object(v);
        return;
      case '[':
        parse_array(v);
        return;
      case '"':
        v.type = JsonValue::Type::kString;
        parse_string(v.str_v);
        return;
      case 't':
      case 'f':
        v.type = JsonValue::Type::kBool;
        if (consume_literal("true")) {
          v.bool_v = true;
        } else if (consume_literal("false")) {
          v.bool_v = false;
        } else {
          fail("bad literal");
        }
        return;
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return;
      default:
        parse_number(v);
    }
  }

  void parse_object(JsonValue& v) {
    expect('{');
    v.type = JsonValue::Type::kObject;
    if (peek() == '}') {
      ++pos_;
      return;
    }
    // Members collect in this depth's reusable list; the object gets one
    // exactly-sized allocation once they are sorted.
    const std::size_t depth = depth_++;
    if (scratch_.members.size() <= depth) scratch_.members.resize(depth + 1);
    scratch_.members[depth].clear();
    while (true) {
      if (peek() != '"') fail("expected object key");
      // Nested objects use deeper lists, so this member stays put while its
      // value is parsed.
      Member& member = scratch_.members[depth].emplace_back();
      parse_string(member.first);
      expect(':');
      parse_value(member.second);
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        break;
      }
      fail("expected ',' or '}' in object");
    }
    --depth_;
    take_sorted(scratch_.members[depth], v.obj);
  }

  /// Moves `members` into `out` sorted by key, keeping the first of equal
  /// keys. Indices are sorted rather than the heavy members, so each member
  /// moves once.
  void take_sorted(std::vector<Member>& members, std::vector<Member>& out) {
    const std::size_t n = members.size();
    std::vector<std::size_t>& order = scratch_.order;
    order.resize(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    // Ties broken by position: a stable order without stable_sort's buffer.
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      const int c = members[a].first.compare(members[b].first);
      return c != 0 ? c < 0 : a < b;
    });
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      Member& m = members[order[i]];
      if (!out.empty() && out.back().first == m.first) continue;
      out.push_back(std::move(m));
    }
    members.clear();
  }

  void parse_array(JsonValue& v) {
    expect('[');
    v.type = JsonValue::Type::kArray;
    if (peek() == ']') {
      ++pos_;
      return;
    }
    while (true) {
      parse_value(v.arr.emplace_back());
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return;
      }
      fail("expected ',' or ']' in array");
    }
  }

  /// Parses a string literal into `out`. A literal without escapes is
  /// copied in one piece.
  void parse_string(std::string& out) {
    expect('"');
    std::size_t run = pos_;
    while (run < text_.size() && text_[run] != '"' && text_[run] != '\\') {
      ++run;
    }
    out.assign(text_.substr(pos_, run - pos_));
    pos_ = run;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      c = text_[pos_++];
      switch (c) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad \\u escape digit");
            }
          }
          // UTF-8 encode (BMP only; surrogate pairs are not needed for our
          // own artifacts and are rejected).
          if (code >= 0xD800 && code <= 0xDFFF) fail("surrogates unsupported");
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          fail("bad escape character");
      }
    }
  }

  void parse_number(JsonValue& v) {
    skip_ws();
    const std::size_t start = pos_;
    // from_chars takes no leading '+'; the parser has always accepted one.
    const std::size_t first =
        pos_ < text_.size() && text_[pos_] == '+' ? pos_ + 1 : pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    bool digits = false;
    auto eat_digits = [&] {
      while (pos_ < text_.size() && is_digit(text_[pos_])) {
        ++pos_;
        digits = true;
      }
    };
    eat_digits();
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      eat_digits();
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
        ++pos_;
      }
      eat_digits();
    }
    if (!digits) fail("expected a value");
    v.type = JsonValue::Type::kNumber;
    // Correctly rounded like strtod; subnormals are exact. Like the strtod
    // it replaces, it reads the longest valid prefix of the scanned token.
    const auto [ptr, ec] = std::from_chars(text_.data() + first,
                                           text_.data() + pos_, v.num_v);
    if (ec != std::errc()) {
      pos_ = start;
      fail(ec == std::errc::result_out_of_range ? "number out of range"
                                                : "bad number");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  ParseScratch& scratch_;
  std::size_t depth_ = 0;  ///< open objects
};

}  // namespace

JsonValue json_parse(std::string_view text) {
  thread_local ParseScratch scratch;
  return Parser(text, scratch).parse_document();
}

}  // namespace mmr
