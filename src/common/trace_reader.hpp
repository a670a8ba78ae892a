// Read side of the round-level trace: parses both encodings — the JSONL
// line shapes TraceLog renders (DESIGN.md §10.2) and the GTB binary
// records (§10.6, common/trace_format.hpp) — back into typed events.
// TraceReader sniffs the format from the first bytes of the stream, so
// every consumer (glap-trace check/lineage/episodes/stats, the trace
// tests) works on either file unchanged.
//
// This is the shared parsing layer under tools/glap-trace and the trace
// round-trip / invariant tests; the fault-injection harness asserts
// against it too, so the parser accepts every schema line including the
// reserved "fault" kind. Parsing is tolerant in exactly two directions:
// unknown object keys are ignored (forward compatibility), and a file cut
// mid-record — a crashed run, a signal-context flight dump — yields the
// parsed prefix followed by one kTruncated status instead of a hard
// error. Anything else malformed (not a JSON object, unknown "ev" or
// wire code, missing schema field, corrupt length prefix) is a reported
// error — never a crash and never a silently skipped event.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

namespace glap::trace {

/// Every line shape in the §10.2 schema: the buffered interaction kinds
/// first (mirroring trace::Kind), then the driver-direct lines.
enum class EventKind : std::uint8_t {
  kMigration,
  kPower,
  kShuffle,
  kOverload,
  kFault,
  kActivity,  ///< quiescence transition (DESIGN.md §12)
  kNet,       ///< network-model send/deliver/drop/queue (DESIGN.md §13)
  kRound,     ///< per-round aggregate summary
  kQsim,      ///< Q-table cosine-similarity probe
  kRelearn,   ///< GLAP re-learning trigger
};

inline constexpr std::size_t kEventKindCount = 10;

/// The JSONL "ev" value for a kind ("migration", "round", ...).
[[nodiscard]] const char* event_kind_name(EventKind k);

/// Reverse lookup; returns false on an unknown name.
[[nodiscard]] bool event_kind_from_name(std::string_view name,
                                        EventKind* out);

/// One parsed trace line. `kind` and `round` are always set; of the named
/// sub-structs only the one matching `kind` carries data.
struct TraceEvent {
  EventKind kind = EventKind::kRound;
  std::uint64_t round = 0;

  struct Migration {
    std::int64_t vm = 0;
    std::int64_t from = 0;
    std::int64_t to = 0;
    double cpu = 0.0;
    double energy_j = 0.0;
  } migration;
  struct Power {
    std::int64_t pm = 0;
    bool on = false;
  } power;
  struct Shuffle {
    std::int64_t initiator = 0;
    std::int64_t peer = 0;
    std::int64_t sent = 0;
    std::int64_t reply = 0;
  } shuffle;
  struct Overload {
    std::int64_t pm = 0;
    double cpu = 0.0;
  } overload;
  struct Fault {
    std::int64_t pm = 0;
    std::int64_t code = 0;  ///< rendered as "kind" on the wire
    double value = 0.0;
  } fault;
  struct Activity {
    std::int64_t pm = 0;
    bool awake = false;  ///< false = parked (quiesced), true = re-activated
    std::string reason;  ///< sim::WakeReason name ("converged", "gossip", ...)
  } activity;
  /// One network-model event; which fields carry data depends on `op`:
  ///   "send"    src, dst, msg, bytes, channel
  ///   "deliver" src, dst, msg, delay
  ///   "drop"    src, dst, msg, reason ("loss" | "congestion")
  ///   "queue"   link ("access" | "uplink"), link_id, bytes
  struct Net {
    std::string op;
    std::int64_t src = 0;
    std::int64_t dst = 0;
    std::int64_t msg = 0;
    std::int64_t bytes = 0;
    std::int64_t delay = 0;
    std::string reason;
    std::string channel;
    std::string link;
    std::int64_t link_id = 0;
  } net;
  struct RoundSummary {
    std::uint64_t active_pms = 0;
    std::uint64_t overloaded_pms = 0;
    std::uint64_t migrations = 0;
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
  } summary;
  struct Qsim {
    double similarity = 0.0;
  } qsim;
};

/// Parses one line. On failure returns false and, when `error` is
/// non-null, stores a one-line description of what was malformed.
[[nodiscard]] bool parse_trace_line(std::string_view line, TraceEvent* out,
                                    std::string* error = nullptr);

/// Streaming reader over an externally owned istream; the encoding is
/// detected on the first next() call (a GTB file opens with the 'GTB0'
/// magic, a JSONL file with '{'). Blank JSONL lines are skipped;
/// everything else must parse. line_number() reports the 1-based
/// position of the line (JSONL) or record (GTB) the last next()
/// consumed, so error messages and invariant violations can point at
/// the offending bytes.
///
/// A stream that ends mid-record returns kTruncated exactly once (with a
/// diagnostic in `error`), then kEof; callers that analyze crash
/// artifacts treat it as end-of-data, callers that demand intact files
/// treat it as an error.
class TraceReader {
 public:
  explicit TraceReader(std::istream& in) : in_(in) {}

  enum class Status : std::uint8_t { kEvent, kEof, kTruncated, kError };

  Status next(TraceEvent* out, std::string* error = nullptr);

  [[nodiscard]] std::size_t line_number() const noexcept { return line_no_; }

  /// True when the detected encoding is GTB; meaningful only after the
  /// first next() call.
  [[nodiscard]] bool binary() const noexcept {
    return source_ == Source::kGtb;
  }

 private:
  enum class Source : std::uint8_t { kUnknown, kJsonl, kGtb };

  Status detect(std::string* error);
  Status next_jsonl(TraceEvent* out, std::string* error);
  Status next_gtb(TraceEvent* out, std::string* error);

  std::istream& in_;
  Source source_ = Source::kUnknown;
  std::size_t line_no_ = 0;
  std::string line_;
};

}  // namespace glap::trace
