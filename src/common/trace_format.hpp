// Shared serialization layer for the two trace encodings (DESIGN.md §10):
// the JSONL text format and GTB, the compact length-prefixed binary
// format. Both are pure walks of a TraceEvent over the schema in
// common/trace_schema.hpp, so TraceLog (write side), TraceReader (read
// side) and `glap-trace convert` all produce byte-identical artifacts for
// the same event stream — the formats are interchangeable carriers of the
// same determinism contract.
//
// GTB wire format (version 1, all integers little-endian):
//
//   header   'G' 'T' 'B' '0'  u32 version
//   record   u32 payload_len  payload
//   payload  u8 kind code  u64 round  the kind's schema fields, in order
//
// i64/u64/f64 fields are 8 bytes (f64 is the IEEE-754 bit pattern, so
// doubles round-trip exactly through JSONL's shortest-form rendering);
// bools and vocabulary values are one byte.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/trace_schema.hpp"

namespace glap::trace {

// ---- JSONL --------------------------------------------------------------

/// Appends the §10.2 JSONL line (including trailing '\n') for `e`:
/// integers in shortest decimal form, doubles via json_double,
/// vocabulary values by name.
void render_jsonl(const TraceEvent& e, std::string* out);

// ---- GTB ----------------------------------------------------------------

inline constexpr char kGtbMagic[4] = {'G', 'T', 'B', '0'};
inline constexpr std::uint32_t kGtbVersion = 1;
inline constexpr std::size_t kGtbHeaderBytes = 8;
/// Upper bound on one record's payload; anything larger is a corrupt
/// length prefix, not a real record (the largest schema record, a net
/// send, is well under 64 bytes).
inline constexpr std::uint32_t kGtbMaxRecordBytes = 1u << 16;

/// Reads the little-endian u32 at `p` (a length prefix or the version).
[[nodiscard]] inline std::uint32_t load_u32(const char* p) noexcept {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  return v;
}

/// Little-endian writers, one per schema wire type.
namespace gtb {

inline void put_u8(std::string* out, std::uint8_t v) {
  out->push_back(static_cast<char>(v));
}

inline void put_u32(std::string* out, std::uint32_t v) {
  const char bytes[4] = {static_cast<char>(v), static_cast<char>(v >> 8),
                         static_cast<char>(v >> 16),
                         static_cast<char>(v >> 24)};
  out->append(bytes, sizeof bytes);
}

inline void put(std::string* out, std::uint64_t v) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<char>(v >> (8 * i));
  out->append(bytes, sizeof bytes);
}

inline void put(std::string* out, std::int64_t v) {
  put(out, static_cast<std::uint64_t>(v));
}

inline void put(std::string* out, double v) {
  put(out, std::bit_cast<std::uint64_t>(v));
}

inline void put(std::string* out, bool v) { put_u8(out, v ? 1 : 0); }

template <typename E>
  requires std::is_enum_v<E>
void put(std::string* out, E v) {
  put_u8(out, static_cast<std::uint8_t>(v));
}

}  // namespace gtb

/// Appends the 8-byte versioned file header.
void append_gtb_header(std::string* out);

/// Appends one length-prefixed record of `payload` (a schema payload
/// struct) stamped with `round`.
template <typename Payload>
void append_gtb_record(std::uint64_t round, const Payload& payload,
                       std::string* out) {
  const std::size_t len_at = out->size();
  gtb::put_u32(out, 0);  // length, backpatched below
  gtb::put(out, KindOf<Payload>::value);
  gtb::put(out, round);
  for_each_field(payload, [out](std::string_view, const auto& value) {
    gtb::put(out, value);
  });
  const auto len = static_cast<std::uint32_t>(out->size() - len_at - 4);
  for (int i = 0; i < 4; ++i)
    (*out)[len_at + static_cast<std::size_t>(i)] =
        static_cast<char>(len >> (8 * i));
}

/// Appends one length-prefixed record for `e`.
void append_gtb_record(const TraceEvent& e, std::string* out);

/// Decodes one record payload (the bytes after the u32 length prefix).
/// Rejects short payloads, trailing bytes, and kind or vocabulary codes
/// the schema lacks (including the retired kind code 4).
[[nodiscard]] bool decode_gtb_payload(std::string_view payload,
                                      TraceEvent* out, std::string* error);

}  // namespace glap::trace
