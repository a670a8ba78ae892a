// Shared serialization layer for the two trace encodings (DESIGN.md §10):
// the JSONL text format and GTB, the compact length-prefixed binary
// format. Both are pure functions of a TraceEvent, so TraceLog (write
// side), TraceReader (read side) and `glap-trace convert` all produce
// byte-identical artifacts for the same event stream — the formats are
// interchangeable carriers of the same determinism contract.
//
// GTB wire format (version 1, all integers little-endian):
//
//   header   'G' 'T' 'B' '0'  u32 version
//   record   u32 payload_len  payload
//   payload  u8 kind (trace::EventKind value)  u64 round  fields...
//
// Per-kind fields (i64/u64/f64 are 8 bytes; f64 is the IEEE-754 bit
// pattern, so doubles round-trip exactly through JSONL's shortest-form
// rendering):
//
//   migration    i64 vm, from, to        f64 cpu, energy_j
//   power        i64 pm                  u8 on
//   shuffle      i64 initiator, peer, sent, reply
//   overload     i64 pm                  f64 cpu
//   fault        i64 pm, kind            f64 value
//   activity     i64 pm                  u8 awake, u8 reason code
//   net          u8 op, then per op:
//     send(0)    i64 src, dst, msg, bytes   u8 channel code
//     deliver(1) i64 src, dst, msg, delay
//     drop(2)    i64 src, dst, msg          u8 reason code
//     queue(3)   u8 link code               i64 id, bytes
//   round        u64 active_pms, overloaded_pms, migrations,
//                u64 messages, bytes
//   qsim         f64 similarity
//   relearn      (no fields)
//
// String enumerations travel as the 1-byte codes pinned by the name/code
// tables below; an event naming an unknown string cannot be encoded.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/trace_reader.hpp"

namespace glap::trace {

// ---- name/code tables ---------------------------------------------------
// Channel codes mirror net::Channel and drop-reason codes net::DropReason
// in declaration order (pinned here and in tests/common/test_tracing.cpp
// rather than shared via an include — the net model is downstream).

[[nodiscard]] const char* net_channel_name(std::int64_t code);
[[nodiscard]] bool net_channel_code(std::string_view name, std::int64_t* out);

[[nodiscard]] const char* net_drop_reason_name(std::int64_t code);
[[nodiscard]] bool net_drop_reason_code(std::string_view name,
                                        std::int64_t* out);

/// Reverse of activity_reason_name (common/tracing.hpp).
[[nodiscard]] bool activity_reason_code(std::string_view name,
                                        std::int64_t* out);

/// Net ops: 0 send, 1 deliver, 2 drop, 3 queue.
[[nodiscard]] const char* net_op_name(std::int64_t code);
[[nodiscard]] bool net_op_code(std::string_view name, std::int64_t* out);

/// Queue links: 0 access, 1 uplink.
[[nodiscard]] const char* net_link_name(std::int64_t code);
[[nodiscard]] bool net_link_code(std::string_view name, std::int64_t* out);

// ---- JSONL --------------------------------------------------------------

/// Appends the §10.2 JSONL line (including trailing '\n') for `e`.
/// Byte-identical to what TraceLog has always written: integers in
/// shortest decimal form, doubles via json_double.
void render_jsonl(const TraceEvent& e, std::string* out);

// ---- GTB ----------------------------------------------------------------

inline constexpr char kGtbMagic[4] = {'G', 'T', 'B', '0'};
inline constexpr std::uint32_t kGtbVersion = 1;
inline constexpr std::size_t kGtbHeaderBytes = 8;
/// Upper bound on one record's payload; anything larger is a corrupt
/// length prefix, not a real record (the largest schema record, a net
/// send, is well under 64 bytes).
inline constexpr std::uint32_t kGtbMaxRecordBytes = 1u << 16;

/// Appends the 8-byte versioned file header.
void append_gtb_header(std::string* out);

/// Appends one length-prefixed record. Returns false (with a diagnostic
/// in `error`) only when `e` carries a string that has no wire code —
/// impossible for writer-produced events.
[[nodiscard]] bool append_gtb_record(const TraceEvent& e, std::string* out,
                                     std::string* error = nullptr);

/// Decodes one record payload (the bytes after the u32 length prefix).
/// Rejects short payloads, trailing bytes, and unknown codes.
[[nodiscard]] bool decode_gtb_payload(std::string_view payload,
                                      TraceEvent* out, std::string* error);

}  // namespace glap::trace
