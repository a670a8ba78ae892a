#include "common/trace_reader.hpp"

#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <istream>
#include <type_traits>
#include <vector>

#include "common/trace_format.hpp"

namespace glap::trace {

namespace {

// The trace writer emits flat objects with string/number/bool members
// only. A hand-rolled scanner
// over that subset keeps the reader dependency-free and lets every error
// carry the offending key; generality (nesting, escapes, exponents in
// keys) is intentionally out of scope and reported as an error.

struct JsonValue {
  enum class Type : std::uint8_t { kNumber, kBool, kString };
  Type type = Type::kNumber;
  std::string_view text;  ///< raw number token, or string body (no escapes)
  bool boolean = false;
};

struct Member {
  std::string_view key;
  JsonValue value;
};

class Cursor {
 public:
  Cursor(std::string_view s, std::string* error)
      : p_(s.data()), end_(s.data() + s.size()), error_(error) {}

  bool fail(const std::string& why) {
    if (error_ != nullptr && error_->empty()) *error_ = why;
    return false;
  }

  void skip_ws() {
    while (p_ != end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\r')) ++p_;
  }

  bool consume(char c) {
    skip_ws();
    if (p_ == end_ || *p_ != c) return false;
    ++p_;
    return true;
  }

  [[nodiscard]] bool at_end() {
    skip_ws();
    return p_ == end_;
  }

  [[nodiscard]] char peek() {
    skip_ws();
    return p_ == end_ ? '\0' : *p_;
  }

  bool parse_string(std::string_view* out) {
    if (!consume('"')) return fail("expected '\"'");
    const char* start = p_;
    while (p_ != end_ && *p_ != '"') {
      if (*p_ == '\\')
        return fail("escape sequences are not used by the trace schema");
      ++p_;
    }
    if (p_ == end_) return fail("unterminated string");
    *out = std::string_view(start, static_cast<std::size_t>(p_ - start));
    ++p_;  // closing quote
    return true;
  }

  bool parse_number_token(std::string_view* out) {
    skip_ws();
    const char* start = p_;
    if (p_ != end_ && (*p_ == '-' || *p_ == '+')) ++p_;
    bool digits = false;
    while (p_ != end_ && ((*p_ >= '0' && *p_ <= '9') || *p_ == '.' ||
                          *p_ == 'e' || *p_ == 'E' || *p_ == '-' ||
                          *p_ == '+')) {
      if (*p_ >= '0' && *p_ <= '9') digits = true;
      ++p_;
    }
    if (!digits) return fail("expected a number");
    *out = std::string_view(start, static_cast<std::size_t>(p_ - start));
    return true;
  }

  bool parse_value(JsonValue* out) {
    const char c = peek();
    if (c == '"') {
      out->type = JsonValue::Type::kString;
      return parse_string(&out->text);
    }
    if (c == 't' || c == 'f') {
      const std::string_view want = c == 't' ? "true" : "false";
      if (std::string_view(p_, static_cast<std::size_t>(end_ - p_))
              .substr(0, want.size()) != want)
        return fail("expected a JSON literal");
      p_ += want.size();
      out->type = JsonValue::Type::kBool;
      out->boolean = c == 't';
      return true;
    }
    out->type = JsonValue::Type::kNumber;
    return parse_number_token(&out->text);
  }

  /// Parses the whole flat object; fails on trailing non-space bytes.
  bool parse_object(std::vector<Member>* members) {
    if (!consume('{')) return fail("trace line is not a JSON object");
    if (!consume('}')) {
      while (true) {
        Member m;
        if (!parse_string(&m.key)) return false;
        if (!consume(':')) return fail("expected ':' after key");
        if (!parse_value(&m.value)) return false;
        members->push_back(std::move(m));
        if (consume('}')) break;
        if (!consume(',')) return fail("expected ',' or '}' in object");
      }
    }
    if (!at_end()) return fail("trailing bytes after the JSON object");
    return true;
  }

 private:
  const char* p_;
  const char* end_;
  std::string* error_;
};

[[nodiscard]] const Member* find(const std::vector<Member>& members,
                                 std::string_view key) {
  for (const Member& m : members)
    if (m.key == key) return &m;
  return nullptr;
}

/// Field extractor: accumulates the first error and lets the caller
/// finish the extraction unconditionally, then test ok() once. One
/// require() overload per schema wire type.
class Fields {
 public:
  Fields(const std::vector<Member>& members, std::string* error)
      : members_(members), error_(error) {}

  [[nodiscard]] bool ok() const noexcept { return ok_; }

  void require(std::string_view key, std::int64_t* out) {
    integer(key, out, "an integer");
  }

  void require(std::string_view key, std::uint64_t* out) {
    integer(key, out, "an unsigned integer");
  }

  void require(std::string_view key, double* out) {
    const JsonValue* v = number(key);
    if (v == nullptr) return;
    // strtod needs NUL termination; number tokens are short.
    const std::string token(v->text);
    errno = 0;
    char* end = nullptr;
    const double parsed = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || errno == ERANGE) {
      fail(std::string("field '") + std::string(key) + "' is not a number");
      return;
    }
    *out = parsed;
  }

  void require(std::string_view key, bool* out) {
    const Member* m = member(key);
    if (m == nullptr) return;
    if (m->value.type != JsonValue::Type::kBool) {
      fail(std::string("field '") + std::string(key) + "' is not a bool");
      return;
    }
    *out = m->value.boolean;
  }

  /// A vocabulary field: its value must be one of the schema's names.
  template <typename E>
    requires std::is_enum_v<E>
  void require(std::string_view key, E* out) {
    const Member* m = member(key);
    if (m == nullptr) return;
    if (m->value.type != JsonValue::Type::kString) {
      fail(std::string("field '") + std::string(key) + "' is not a string");
      return;
    }
    if (!from_wire_name(m->value.text, out))
      fail("unknown " + std::string(WireNames<E>::kWhat) + " '" +
           std::string(m->value.text) + "'");
  }

 private:
  void fail(const std::string& why) {
    if (ok_ && error_ != nullptr && error_->empty()) *error_ = why;
    ok_ = false;
  }

  template <typename Int>
  void integer(std::string_view key, Int* out, const char* what) {
    const JsonValue* v = number(key);
    if (v == nullptr) return;
    const auto [ptr, ec] =
        std::from_chars(v->text.data(), v->text.data() + v->text.size(), *out);
    if (ec != std::errc() || ptr != v->text.data() + v->text.size())
      fail(std::string("field '") + std::string(key) + "' is not " + what);
  }

  const Member* member(std::string_view key) {
    const Member* m = find(members_, key);
    if (m == nullptr)
      fail(std::string("missing field '") + std::string(key) + "'");
    return m;
  }

  const JsonValue* number(std::string_view key) {
    const Member* m = member(key);
    if (m == nullptr) return nullptr;
    if (m->value.type != JsonValue::Type::kNumber) {
      fail(std::string("field '") + std::string(key) + "' is not a number");
      return nullptr;
    }
    return &m->value;
  }

  const std::vector<Member>& members_;
  std::string* error_;
  bool ok_ = true;
};

}  // namespace

bool parse_trace_line(std::string_view line, TraceEvent* out,
                      std::string* error) {
  if (error != nullptr) error->clear();
  std::vector<Member> members;
  members.reserve(8);
  Cursor cursor(line, error);
  if (!cursor.parse_object(&members)) return false;

  const Member* ev = find(members, "ev");
  if (ev == nullptr || ev->value.type != JsonValue::Type::kString) {
    if (error != nullptr && error->empty())
      *error = "missing string field 'ev'";
    return false;
  }
  TraceEvent parsed;
  if (!from_wire_name(ev->value.text, &parsed.kind)) {
    if (error != nullptr)
      *error = "unknown event kind '" + std::string(ev->value.text) + "'";
    return false;
  }

  Fields fields(members, error);
  fields.require("round", &parsed.round);
  with_payload(parsed, [&fields](auto& payload) {
    for_each_field(payload, [&fields](std::string_view key, auto& value) {
      fields.require(key, &value);
    });
  });
  if (!fields.ok()) {
    if (error != nullptr && !error->empty())
      *error += " in ev=\"" + std::string(wire_name(parsed.kind)) + "\"";
    return false;
  }
  *out = parsed;
  return true;
}

TraceReader::Status TraceReader::detect(std::string* error) {
  const int first = in_.peek();
  if (first == std::char_traits<char>::eof()) {
    // An empty file is a valid (empty) trace of either encoding.
    source_ = Source::kJsonl;
    return Status::kEof;
  }
  if (static_cast<char>(first) != kGtbMagic[0]) {
    // JSONL lines always open with '{' — only GTB starts with 'G'.
    source_ = Source::kJsonl;
    return Status::kEvent;
  }
  char header[kGtbHeaderBytes] = {};
  in_.read(header, static_cast<std::streamsize>(sizeof header));
  if (in_.gcount() != static_cast<std::streamsize>(sizeof header)) {
    if (error != nullptr) *error = "file ends mid GTB header";
    return Status::kTruncated;
  }
  if (std::memcmp(header, kGtbMagic, sizeof kGtbMagic) != 0) {
    if (error != nullptr) *error = "bad GTB magic";
    return Status::kError;
  }
  const std::uint32_t version = load_u32(header + 4);
  if (version != kGtbVersion) {
    if (error != nullptr)
      *error = "unsupported GTB version " + std::to_string(version);
    return Status::kError;
  }
  source_ = Source::kGtb;
  return Status::kEvent;
}

TraceReader::Status TraceReader::next_jsonl(TraceEvent* out,
                                            std::string* error) {
  while (std::getline(in_, line_)) {
    ++line_no_;
    bool blank = true;
    for (const char c : line_)
      if (c != ' ' && c != '\t' && c != '\r') {
        blank = false;
        break;
      }
    if (blank) continue;
    if (parse_trace_line(line_, out, error)) return Status::kEvent;
    if (in_.eof()) {
      // The final line has no terminating '\n' and does not parse: the
      // file was cut mid-line, not malformed.
      if (error != nullptr)
        *error = "file ends mid-line (truncated trace)";
      return Status::kTruncated;
    }
    return Status::kError;
  }
  return Status::kEof;
}

TraceReader::Status TraceReader::next_gtb(TraceEvent* out,
                                          std::string* error) {
  char len_bytes[4];
  in_.read(len_bytes, 4);
  const std::streamsize got = in_.gcount();
  if (got == 0) return Status::kEof;
  ++line_no_;
  if (got < 4) {
    if (error != nullptr) *error = "file ends mid length prefix";
    return Status::kTruncated;
  }
  const std::uint32_t len = load_u32(len_bytes);
  // Every record carries at least a kind byte and the round number; a
  // smaller or implausibly large length is corruption, not truncation.
  if (len < 9 || len > kGtbMaxRecordBytes) {
    if (error != nullptr)
      *error = "corrupt GTB length prefix (" + std::to_string(len) + ")";
    return Status::kError;
  }
  line_.resize(len);
  in_.read(line_.data(), static_cast<std::streamsize>(len));
  if (in_.gcount() != static_cast<std::streamsize>(len)) {
    if (error != nullptr)
      *error = "file ends mid-record (" + std::to_string(in_.gcount()) +
               " of " + std::to_string(len) + " payload bytes)";
    return Status::kTruncated;
  }
  return decode_gtb_payload(line_, out, error) ? Status::kEvent
                                               : Status::kError;
}

TraceReader::Status TraceReader::next(TraceEvent* out, std::string* error) {
  if (error != nullptr) error->clear();
  if (source_ == Source::kUnknown) {
    const Status st = detect(error);
    if (st != Status::kEvent) return st;
  }
  return source_ == Source::kGtb ? next_gtb(out, error)
                                 : next_jsonl(out, error);
}

}  // namespace glap::trace
