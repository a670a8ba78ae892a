// Round-level event trace. One record per event in either of two
// byte-deterministic encodings — the JSONL text format or GTB, the
// compact binary format (common/trace_format.hpp) — selected per log.
// Events are the payload structs of the schema (common/trace_schema.hpp).
// Events emitted from inside engine interactions are GTB-encoded into a
// per-round buffer and written in emit order — the run's execution order
// — at commit_round() (DESIGN.md §10 lists the schema).
//
// Deterministic sampling (DESIGN.md §10.6): the high-volume interaction
// kinds (shuffle, net) can be thinned by a keep-probability decided by a
// pure hash of (seed, ids) — no RNG stream is consumed and the decision
// is independent of emit order, so a message's send/deliver/drop always
// travel together. Driver-only lines are never sampled.
//
// Events the harness records between rounds (round summaries, overload
// scans, Q-similarity probes, re-learning triggers, net queue depths)
// bypass the round buffer via write(); they must only be written between
// rounds.
//
// Every written record can additionally be teed, GTB-encoded, into a
// flight recorder ring (common/flight_recorder.hpp) for post-mortem
// dumps; the harness keeps that ring alive even with no file sink.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/rng.hpp"
#include "common/trace_format.hpp"

namespace glap::flight {
class FlightRecorder;
}

namespace glap::trace {

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

  /// Records an event from inside an engine interaction; written in emit
  /// order at commit_round(). Sampled-out events are dropped here, before
  /// they consume buffer space — the keep decision is a pure hash.
  template <typename Payload>
  void emit(const Payload& payload) {
    if constexpr (std::is_same_v<Payload, Shuffle>) {
      if (!shuffle_keep_all_ &&
          !sample_keep(hash_combine(round_, static_cast<std::uint64_t>(
                                                payload.initiator)),
                       sampling_.shuffle_keep))
        return;
    } else if constexpr (std::is_same_v<Payload, Net>) {
      if (!net_keep_all_ &&
          !sample_keep(static_cast<std::uint64_t>(payload.msg),
                       sampling_.net_keep))
        return;
    }
    append_gtb_record(round_, payload, &round_records_);
  }

  /// Starts a new round: subsequent events tag this round number, and the
  /// flight recorder (if any) seals the previous round's ring bucket.
  void begin_round(std::uint64_t round);

  /// Writes all events buffered since the last commit, in emit order.
  void commit_round();

  /// Writes one event tagged `round` straight through, bypassing the
  /// buffer (between rounds only, never sampled): the per-round summary,
  /// the overload scan (PMs in id order), Q-similarity probes, re-learning
  /// triggers and net queue depths — the low-volume lines analysis leans
  /// on.
  template <typename Payload>
  void write(std::uint64_t round, const Payload& payload) {
    record_.clear();
    append_gtb_record(round, payload, &record_);
    write_records(record_);
  }

 private:
  [[nodiscard]] bool sample_keep(std::uint64_t key,
                                 double keep) const noexcept {
    return static_cast<double>(hash_combine(sample_seed_, key) >> 11) *
               0x1.0p-53 <
           keep;
  }

  /// Writes a run of GTB records to the sink (re-rendered as JSONL for a
  /// JSONL log) and to the flight recorder.
  void write_records(std::string_view records);

  std::ostream* out_;
  Format format_;
  SamplingPolicy sampling_;
  bool shuffle_keep_all_;
  bool net_keep_all_;
  std::uint64_t sample_seed_;
  flight::FlightRecorder* recorder_ = nullptr;
  std::uint64_t round_ = 0;
  std::string round_records_;  ///< GTB records emitted since the last commit
  std::string record_;         ///< scratch: the record write() encodes
  std::string jsonl_;          ///< scratch: JSONL rendering of a run
  TraceEvent event_;           ///< scratch: one decoded record
};

}  // namespace glap::trace
