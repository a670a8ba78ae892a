// Round-level event trace. One record per event in either of two
// byte-deterministic encodings — the JSONL text format or GTB, the
// compact binary format (common/trace_format.hpp) — selected per log.
// Events emitted from inside engine interactions are buffered for the
// round and rendered in emit order — the run's execution order — at
// commit_round() (DESIGN.md §10 lists the schema).
//
// Deterministic sampling (DESIGN.md §10.6): the high-volume interaction
// kinds (shuffle, net) can be thinned by a keep-probability decided by a
// pure hash of (seed, ids) — no RNG stream is consumed and the decision
// is independent of emit order, so a message's send/deliver/drop always
// travel together. Driver-only lines are never sampled.
//
// Driver-only events (round summaries, Q-similarity probes, re-learning
// triggers) bypass the round buffer and are written directly; they must
// only be emitted between rounds.
//
// Every written record can additionally be teed, GTB-encoded, into a
// flight recorder ring (common/flight_recorder.hpp) for post-mortem
// dumps; the harness keeps that ring alive even with no file sink.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/trace_reader.hpp"

namespace glap::flight {
class FlightRecorder;
}

namespace glap::trace {

/// Event kinds rendered into the JSONL "ev" field. Values mirror the
/// first entries of trace::EventKind (trace_reader.hpp).
enum class Kind : std::uint8_t {
  kMigration,    // a=vm, b=from_pm, c=to_pm, x=cpu, y=energy_j
  kPower,        // a=pm, b=on(0/1)
  kShuffle,      // a=initiator, b=peer, c=sent_entries, d=reply_entries
  kOverload,     // a=pm, x=cpu_utilization
  kFault,        // a=pm, b=fault_code, x=value — reserved for PM-fault
                 // injection (crash-stop, message loss, partition); no
                 // current emit site, but the wire format is fixed now so
                 // fault traces parse with today's trace_reader
  kActivity,     // a=pm, b=awake(0/1), c=reason code — quiescence
                 // transition under the event/quiescence engine
                 // (DESIGN.md §12); reason codes mirror sim::WakeReason
  kNet,          // network-model event (DESIGN.md §13): a=op (0 send,
                 // 1 deliver, 2 drop), b=src pm, c=dst pm, d=msg id,
                 // x=bytes|delay|drop-reason code, y=channel code; the
                 // driver-only queue-depth line ("op":"queue") bypasses
                 // the buffers via net_queue()
};

[[nodiscard]] const char* kind_name(Kind k);

/// Reason string for "activity" events; codes mirror sim::WakeReason in
/// declaration order (tests/common/test_tracing.cpp pins the mapping).
[[nodiscard]] const char* activity_reason_name(std::int64_t code);

/// Trace encodings; readers auto-detect which one a file carries.
enum class Format : std::uint8_t {
  kJsonl,  ///< one JSON object per line (DESIGN.md §10.2)
  kGtb,    ///< length-prefixed binary records (DESIGN.md §10.6)
};

/// Deterministic per-kind sampling (keep probabilities in [0, 1]).
/// Decisions are pure hashes: shuffle keeps hash(seed', round, initiator),
/// net keeps hash(seed', msg id) — one draw per message, so a kept
/// message keeps its send, deliver/drop, all together, preserving the
/// net-* invariants on the sampled trace. seed' mixes the experiment seed
/// with a fixed tag, mirroring the network model's loss draws.
struct SamplingPolicy {
  double shuffle_keep = 1.0;
  double net_keep = 1.0;
  std::uint64_t seed = 0;
};

/// Trace sink over an (optional) externally owned stream.
class TraceLog {
 public:
  /// Writes to `out` in `format`; the stream must outlive the log. A GTB
  /// log writes the versioned file header immediately.
  explicit TraceLog(std::ostream& out, Format format = Format::kJsonl,
                    const SamplingPolicy& sampling = {});

  /// As above, but `out` may be null: a sink-less log only feeds the
  /// attached flight recorder (the always-on post-mortem ring).
  explicit TraceLog(std::ostream* out, Format format,
                    const SamplingPolicy& sampling = {});

  /// Tees every written record, GTB-encoded, into `recorder` (not owned).
  void set_flight_recorder(flight::FlightRecorder* recorder) noexcept {
    recorder_ = recorder;
  }

  [[nodiscard]] Format format() const noexcept { return format_; }

  /// Records an event from inside an engine interaction; rendered in emit
  /// order at commit_round(). Sampled-out events are dropped here, before
  /// they consume buffer space — the keep decision is a pure hash.
  void emit(Kind kind, std::int64_t a = 0, std::int64_t b = 0,
            std::int64_t c = 0, std::int64_t d = 0, double x = 0.0,
            double y = 0.0) {
    if (kind == Kind::kShuffle) {
      if (!shuffle_keep_all_ &&
          !sample_keep(hash_combine(round_, static_cast<std::uint64_t>(a)),
                       sampling_.shuffle_keep))
        return;
    } else if (kind == Kind::kNet) {
      if (!net_keep_all_ &&
          !sample_keep(static_cast<std::uint64_t>(d), sampling_.net_keep))
        return;
    }
    round_events_.push_back({kind, a, b, c, d, x, y});
  }

  /// Starts a new round: subsequent events tag this round number, and the
  /// flight recorder (if any) seals the previous round's ring bucket.
  void begin_round(std::uint64_t round);

  /// Renders all events buffered since the last commit, in emit order.
  void commit_round();

  // ---- driver-only direct writes (between rounds only) ----
  // Never sampled: these are the low-volume per-round summaries analysis
  // leans on.

  /// Per-round aggregate line ("ev":"round"): totals are deterministic.
  void round_summary(std::uint64_t round, std::uint64_t active_pms,
                     std::uint64_t overloaded_pms, std::uint64_t migrations,
                     std::uint64_t messages, std::uint64_t bytes);

  /// Q-table cosine-similarity probe ("ev":"qsim").
  void qsim(std::uint64_t round, double similarity);

  /// Per-PM overload line ("ev":"overload"); the harness scans PMs in id
  /// order between rounds, after each evaluation round.
  void overload(std::uint64_t round, std::int64_t pm, double cpu);

  /// GLAP re-learning trigger ("ev":"relearn").
  void relearn(std::uint64_t round);

  /// Network queue-depth line ("ev":"net","op":"queue"): the backlog of
  /// one link at the end of a round. `link` is "access" or "uplink", `id`
  /// the PM or rack index. Driver-only; the harness scans links in id
  /// order between rounds, so the lines are deterministic. The
  /// network model skips zero-backlog links entirely (§13.6): healthy
  /// large runs pay no O(links) trace lines, and readers must tolerate
  /// per-round gaps in queue coverage.
  void net_queue(std::uint64_t round, const char* link, std::int64_t id,
                 std::uint64_t backlog_bytes);

 private:
  struct Event {
    Kind kind;
    std::int64_t a, b, c, d;
    double x, y;
  };

  [[nodiscard]] bool sample_keep(std::uint64_t key,
                                 double keep) const noexcept {
    return static_cast<double>(hash_combine(sample_seed_, key) >> 11) *
               0x1.0p-53 <
           keep;
  }

  /// Converts one buffered tuple into the scratch TraceEvent.
  void to_trace_event(const Event& e);
  /// Renders the scratch TraceEvent to the sink and flight recorder.
  void write_event();

  std::ostream* out_;
  Format format_;
  SamplingPolicy sampling_;
  bool shuffle_keep_all_;
  bool net_keep_all_;
  std::uint64_t sample_seed_;
  flight::FlightRecorder* recorder_ = nullptr;
  std::uint64_t round_ = 0;
  TraceEvent ev_;        ///< scratch event (string fields stay SSO-short)
  std::string bytes_;    ///< scratch rendering of one record
  std::string recorder_bytes_;  ///< scratch GTB tee when the sink is JSONL
  std::vector<Event> round_events_;  ///< emitted since the last commit
};

}  // namespace glap::trace
