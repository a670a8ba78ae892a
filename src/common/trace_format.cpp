#include "common/trace_format.hpp"

#include <charconv>

#include "common/json.hpp"

namespace glap::trace {

namespace {

// ---- JSONL value writers, one per schema wire type ----------------------

template <typename Int>
  requires std::is_integral_v<Int>
void append_json(std::string* out, Int v) {
  if constexpr (std::is_same_v<Int, bool>) {
    *out += v ? "true" : "false";
  } else {
    char buf[24];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    out->append(buf, res.ptr);
  }
}

void append_json(std::string* out, double v) { *out += json_double(v); }

template <typename E>
  requires std::is_enum_v<E>
void append_json(std::string* out, E v) {
  *out += '"';
  *out += wire_name(v);
  *out += '"';
}

// ---- GTB reader, one read() per schema wire type ------------------------

class GtbCursor {
 public:
  GtbCursor(std::string_view payload, std::string* error)
      : p_(payload.data()),
        end_(payload.data() + payload.size()),
        error_(error) {}

  bool fail(std::string_view why) {
    if (ok_ && error_ != nullptr && error_->empty()) *error_ = why;
    ok_ = false;
    return false;
  }

  [[nodiscard]] bool ok() const noexcept { return ok_; }
  [[nodiscard]] bool at_end() const noexcept { return p_ == end_; }

  bool read(std::uint8_t* out) {
    if (!take(1)) return false;
    *out = static_cast<std::uint8_t>(p_[-1]);
    return true;
  }

  bool read(std::uint64_t* out) {
    if (!take(8)) return false;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p_[i - 8]))
           << (8 * i);
    *out = v;
    return true;
  }

  bool read(std::int64_t* out) {
    std::uint64_t v = 0;
    if (!read(&v)) return false;
    *out = static_cast<std::int64_t>(v);
    return true;
  }

  bool read(double* out) {
    std::uint64_t bits = 0;
    if (!read(&bits)) return false;
    *out = std::bit_cast<double>(bits);
    return true;
  }

  bool read(bool* out) {
    std::uint8_t v = 0;
    if (!read(&v)) return false;
    *out = v != 0;
    return true;
  }

  /// A vocabulary (or kind) code: must be one the schema names.
  template <typename E>
    requires std::is_enum_v<E>
  bool read(E* out) {
    std::uint8_t code = 0;
    if (!read(&code)) return false;
    if (!from_wire_code(code, out))
      return fail("unknown " + std::string(WireNames<E>::kWhat) + " code " +
                  std::to_string(code));
    return true;
  }

 private:
  /// Consumes `n` bytes; fails once the payload (or an earlier read) is
  /// exhausted.
  bool take(std::ptrdiff_t n) {
    if (!ok_) return false;
    if (end_ - p_ < n) return fail("record payload ends mid-field");
    p_ += n;
    return true;
  }

  const char* p_;
  const char* end_;
  std::string* error_;
  bool ok_ = true;
};

}  // namespace

// ---- JSONL --------------------------------------------------------------

void render_jsonl(const TraceEvent& e, std::string* out) {
  *out += "{\"ev\":\"";
  *out += wire_name(e.kind);
  *out += "\",\"round\":";
  append_json(out, e.round);
  with_payload(e, [out](const auto& payload) {
    for_each_field(payload, [out](std::string_view key, const auto& value) {
      *out += ",\"";
      *out += key;
      *out += "\":";
      append_json(out, value);
    });
  });
  *out += "}\n";
}

// ---- GTB ----------------------------------------------------------------

void append_gtb_header(std::string* out) {
  out->append(kGtbMagic, sizeof kGtbMagic);
  gtb::put_u32(out, kGtbVersion);
}

void append_gtb_record(const TraceEvent& e, std::string* out) {
  with_payload(e, [&e, out](const auto& payload) {
    append_gtb_record(e.round, payload, out);
  });
}

bool decode_gtb_payload(std::string_view payload, TraceEvent* out,
                        std::string* error) {
  if (error != nullptr) error->clear();
  GtbCursor in(payload, error);
  TraceEvent parsed;
  if (!in.read(&parsed.kind) || !in.read(&parsed.round)) return false;
  with_payload(parsed, [&in](auto& fields) {
    for_each_field(fields, [&in](std::string_view, auto& value) {
      in.read(&value);
    });
  });
  if (!in.ok()) return false;
  if (!in.at_end()) return in.fail("trailing bytes after the record");
  *out = parsed;
  return true;
}

}  // namespace glap::trace
