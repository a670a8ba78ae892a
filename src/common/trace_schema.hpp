// The round-level trace schema, declared once (DESIGN.md §10.2, §10.6):
// every event kind with its JSONL "ev" name, GTB kind code and ordered
// fields, and every enumerated vocabulary with its wire names and codes.
// The payload structs, TraceEvent, the name/code lookups and the field
// walker are generated from the lists below, so the JSONL renderer and
// parser, the GTB encoder and decoder and TraceLog are all walks over one
// table: a new kind, field or name is one line here.
//
// A field's wire type follows from its C++ type:
//
//   std::int64_t   i64      JSONL integer
//   std::uint64_t  u64      JSONL unsigned integer
//   double         f64      raw IEEE-754 bits; JSONL shortest round trip
//   bool           u8 0/1   JSONL true/false
//   vocabulary     u8 code  JSONL name string
//
// Both encodings carry a kind's fields in the declared order. A net field
// lists the ops that carry it; every other field is always present.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <type_traits>

namespace glap::trace {

// ---- vocabularies: X(enumerator, wire code, name) -----------------------

#define GLAP_TRACE_NET_OPS(X) \
  X(kSend, 0, "send")         \
  X(kDeliver, 1, "deliver")   \
  X(kDrop, 2, "drop")         \
  X(kQueue, 3, "queue")

/// Traffic classes of the network model (net::Channel).
#define GLAP_TRACE_CHANNELS(X)                                           \
  X(kShuffle, 0, "shuffle")             /* overlay membership */         \
  X(kLearning, 1, "learning")           /* GLAP workload-profile fetch */ \
  X(kAggregation, 2, "aggregation")     /* GLAP Q-table push-pull */     \
  X(kConsolidation, 3, "consolidation") /* GLAP/GRMP state exchange */   \
  X(kProbe, 4, "probe")                 /* EcoCloud placement probes */  \
  X(kMigration, 5, "migration")         /* live-migration payload */

/// Why the network model dropped a message (net::DropReason).
#define GLAP_TRACE_DROP_REASONS(X) \
  X(kLoss, 1, "loss")              \
  X(kCongestion, 2, "congestion")

/// The link a queue-depth line reports on.
#define GLAP_TRACE_LINKS(X) \
  X(kAccess, 0, "access")   \
  X(kUplink, 1, "uplink")

/// Cause of a quiescence transition (sim::WakeReason, DESIGN.md §12):
/// kConverged tags the parking itself, the rest tag the event that
/// re-activated a parked node. kSchedule and kNetwork are decode-only:
/// nothing emits them, but traces that carry them still read.
#define GLAP_TRACE_ACTIVITY_REASONS(X)                                  \
  X(kConverged, 0, "converged") /* every slot voted can_quiesce */      \
  X(kGossip, 1, "gossip")       /* an incoming exchange touched state */ \
  X(kDemand, 2, "demand")       /* a hosted VM's demand moved */        \
  X(kMigration, 3, "migration") /* a migration/placement/departure */   \
  X(kStatus, 4, "status")       /* lifecycle transition */              \
  X(kSchedule, 5, "schedule")   /* decode-only: a timed re-check */     \
  X(kRelearn, 6, "relearn")     /* fleet-wide re-learning trigger */    \
  X(kNetwork, 7, "network")     /* decode-only: a delayed reply due */

// ---- event kinds: X(enumerator, GTB code, "ev" name, payload, member) ---
// GTB kind code 4 is retired: it belonged to the reserved "fault" kind,
// which nothing ever emitted. Decoders reject it like any unknown code.

#define GLAP_TRACE_KINDS(X)                              \
  X(kMigration, 0, "migration", Migration, migration)    \
  X(kPower, 1, "power", Power, power)                    \
  X(kShuffle, 2, "shuffle", Shuffle, shuffle)            \
  X(kOverload, 3, "overload", Overload, overload)        \
  X(kActivity, 5, "activity", Activity, activity)        \
  X(kNet, 6, "net", Net, net)                            \
  X(kRound, 7, "round", RoundSummary, summary)           \
  X(kQsim, 8, "qsim", Qsim, qsim)                        \
  X(kRelearn, 9, "relearn", Relearn, relearn)

// ---- fields per kind: F(type, member, JSONL key[, net ops carrying it]) -

#define GLAP_TRACE_FIELDS_Migration(F) \
  F(std::int64_t, vm, "vm")            \
  F(std::int64_t, from, "from")        \
  F(std::int64_t, to, "to")            \
  F(double, cpu, "cpu")                \
  F(double, energy_j, "energy_j")

#define GLAP_TRACE_FIELDS_Power(F) \
  F(std::int64_t, pm, "pm")        \
  F(bool, on, "on")

#define GLAP_TRACE_FIELDS_Shuffle(F)      \
  F(std::int64_t, initiator, "initiator") \
  F(std::int64_t, peer, "peer")           \
  F(std::int64_t, sent, "sent")           \
  F(std::int64_t, reply, "reply")

#define GLAP_TRACE_FIELDS_Overload(F) \
  F(std::int64_t, pm, "pm")           \
  F(double, cpu, "cpu")

/* awake: false = parked (quiesced), true = re-activated */
#define GLAP_TRACE_FIELDS_Activity(F) \
  F(std::int64_t, pm, "pm")           \
  F(bool, awake, "awake")             \
  F(ActivityReason, reason, "reason")

/* One network-model event (DESIGN.md §13); `op` selects the fields.
   A deliver's `delay` is always 0: every exchange lands in its send
   round. The field stays so GTB v1 and the committed traces keep their
   layout. */
#define GLAP_TRACE_FIELDS_Net(F)                                           \
  F(NetOp, op, "op")                                                       \
  F(Link, link, "link", NetOp::kQueue)                                     \
  F(std::int64_t, link_id, "id", NetOp::kQueue)                            \
  F(std::int64_t, src, "src", NetOp::kSend, NetOp::kDeliver, NetOp::kDrop) \
  F(std::int64_t, dst, "dst", NetOp::kSend, NetOp::kDeliver, NetOp::kDrop) \
  F(std::int64_t, msg, "msg", NetOp::kSend, NetOp::kDeliver, NetOp::kDrop) \
  F(std::int64_t, bytes, "bytes", NetOp::kSend, NetOp::kQueue)             \
  F(std::int64_t, delay, "delay", NetOp::kDeliver)                         \
  F(DropReason, reason, "reason", NetOp::kDrop)                            \
  F(Channel, channel, "channel", NetOp::kSend)

#define GLAP_TRACE_FIELDS_RoundSummary(F)            \
  F(std::uint64_t, active_pms, "active_pms")         \
  F(std::uint64_t, overloaded_pms, "overloaded_pms") \
  F(std::uint64_t, migrations, "migrations")         \
  F(std::uint64_t, messages, "messages")             \
  F(std::uint64_t, bytes, "bytes")

#define GLAP_TRACE_FIELDS_Qsim(F) F(double, similarity, "similarity")

#define GLAP_TRACE_FIELDS_Relearn(F)

// ---- generated: wire names ----------------------------------------------

/// One wire name of an enumeration and its code.
struct WireName {
  std::uint8_t code;
  std::string_view name;
};

/// The wire names of an enumeration the trace carries (`kEntries`) and
/// what error messages call it (`kWhat`); specialised below.
template <typename E>
struct WireNames;

#define GLAP_TRACE_ENUMERATOR(e, code, name) e = code,
#define GLAP_TRACE_WIRE_NAME(e, code, name) {code, name},
#define GLAP_TRACE_WIRE_NAMES(Enum, what, LIST)                          \
  template <>                                                            \
  struct WireNames<Enum> {                                               \
    static constexpr std::string_view kWhat = what;                      \
    static constexpr WireName kEntries[] = {LIST(GLAP_TRACE_WIRE_NAME)}; \
  };

enum class NetOp : std::uint8_t { GLAP_TRACE_NET_OPS(GLAP_TRACE_ENUMERATOR) };
GLAP_TRACE_WIRE_NAMES(NetOp, "net op", GLAP_TRACE_NET_OPS)

enum class Channel : std::uint8_t {
  GLAP_TRACE_CHANNELS(GLAP_TRACE_ENUMERATOR)
};
GLAP_TRACE_WIRE_NAMES(Channel, "net channel", GLAP_TRACE_CHANNELS)

enum class DropReason : std::uint8_t {
  kNone = 0,  ///< an undropped net::Verdict; never on the wire
  GLAP_TRACE_DROP_REASONS(GLAP_TRACE_ENUMERATOR)
};
GLAP_TRACE_WIRE_NAMES(DropReason, "net drop reason", GLAP_TRACE_DROP_REASONS)

enum class Link : std::uint8_t { GLAP_TRACE_LINKS(GLAP_TRACE_ENUMERATOR) };
GLAP_TRACE_WIRE_NAMES(Link, "net link", GLAP_TRACE_LINKS)

enum class ActivityReason : std::uint8_t {
  GLAP_TRACE_ACTIVITY_REASONS(GLAP_TRACE_ENUMERATOR)
};
GLAP_TRACE_WIRE_NAMES(ActivityReason, "activity reason",
                      GLAP_TRACE_ACTIVITY_REASONS)

#define GLAP_TRACE_KIND_ENUMERATOR(e, code, name, Payload, member) e = code,
#define GLAP_TRACE_KIND_WIRE_NAME(e, code, name, Payload, member) \
  {code, name},

enum class EventKind : std::uint8_t {
  GLAP_TRACE_KINDS(GLAP_TRACE_KIND_ENUMERATOR)
};

template <>
struct WireNames<EventKind> {
  static constexpr std::string_view kWhat = "event kind";
  static constexpr WireName kEntries[] = {
      GLAP_TRACE_KINDS(GLAP_TRACE_KIND_WIRE_NAME)};
};

/// One past the highest kind code (TraceStats counts events by code).
inline constexpr std::size_t kEventKindCodes = [] {
  std::size_t codes = 0;
  for (const WireName& kind : WireNames<EventKind>::kEntries)
    if (kind.code + 1u > codes) codes = kind.code + 1u;
  return codes;
}();

/// The wire name of `value`; "?" for a value that never travels.
template <typename E>
[[nodiscard]] constexpr std::string_view wire_name(E value) {
  for (const WireName& w : WireNames<E>::kEntries)
    if (w.code == static_cast<std::uint8_t>(value)) return w.name;
  return "?";
}

/// Reverse lookups; false for a name or code the vocabulary lacks.
template <typename E>
[[nodiscard]] constexpr bool from_wire_name(std::string_view name, E* out) {
  for (const WireName& w : WireNames<E>::kEntries)
    if (w.name == name) {
      *out = static_cast<E>(w.code);
      return true;
    }
  return false;
}

template <typename E>
[[nodiscard]] constexpr bool from_wire_code(std::uint8_t code, E* out) {
  for (const WireName& w : WireNames<E>::kEntries)
    if (w.code == code) {
      *out = static_cast<E>(w.code);
      return true;
    }
  return false;
}

// ---- generated: payloads, TraceEvent and the field walker ---------------

#define GLAP_TRACE_MEMBER(type, member, key, ...) type member{};
#define GLAP_TRACE_PAYLOAD(e, code, name, Payload, member) \
  struct Payload {                                         \
    GLAP_TRACE_FIELDS_##Payload(GLAP_TRACE_MEMBER)         \
  };
GLAP_TRACE_KINDS(GLAP_TRACE_PAYLOAD)

/// One trace record. `kind` and `round` are always set; of the payload
/// members only the one matching `kind` carries data.
struct TraceEvent {
  EventKind kind = EventKind::kRound;
  std::uint64_t round = 0;
#define GLAP_TRACE_EVENT_MEMBER(e, code, name, Payload, member) \
  Payload member;
  GLAP_TRACE_KINDS(GLAP_TRACE_EVENT_MEMBER)
};

/// The kind a payload type records (`KindOf<Migration>::value`, ...).
template <typename Payload>
struct KindOf;
#define GLAP_TRACE_KIND_OF(e, code, name, Payload, member) \
  template <>                                              \
  struct KindOf<Payload> {                                 \
    static constexpr EventKind value = EventKind::e;       \
  };
GLAP_TRACE_KINDS(GLAP_TRACE_KIND_OF)

/// Field presence: a field with no op list is always on the wire; a net
/// field only for the ops it lists.
constexpr bool carries(const auto&) { return true; }
constexpr bool carries(const Net& net, NetOp first,
                       std::same_as<NetOp> auto... rest) {
  return net.op == first || ((net.op == rest) || ...);
}

/// Calls visit(key, field) for every field `payload` carries, in wire
/// order. Decoders may rely on that order: `op` is read before the
/// presence of any other net field is decided.
#define GLAP_TRACE_VISIT(type, member, key, ...)      \
  if (carries(payload __VA_OPT__(, ) __VA_ARGS__))    \
    visit(std::string_view(key), payload.member);
#define GLAP_TRACE_FOR_EACH_FIELD(e, code, name, Payload, member)        \
  template <typename P, typename Visit>                                  \
    requires std::same_as<std::remove_const_t<P>, Payload>               \
  constexpr void for_each_field([[maybe_unused]] P& payload,             \
                                [[maybe_unused]] Visit&& visit) {        \
    GLAP_TRACE_FIELDS_##Payload(GLAP_TRACE_VISIT)                        \
  }
GLAP_TRACE_KINDS(GLAP_TRACE_FOR_EACH_FIELD)

/// Calls fn(payload) with the payload member `event.kind` selects.
template <typename Event, typename Fn>
  requires std::same_as<std::remove_const_t<Event>, TraceEvent>
constexpr void with_payload(Event& event, Fn&& fn) {
#define GLAP_TRACE_PAYLOAD_CASE(e, code, name, Payload, member) \
  case EventKind::e:                                            \
    fn(event.member);                                           \
    return;
  switch (event.kind) { GLAP_TRACE_KINDS(GLAP_TRACE_PAYLOAD_CASE) }
}

#undef GLAP_TRACE_ENUMERATOR
#undef GLAP_TRACE_WIRE_NAME
#undef GLAP_TRACE_WIRE_NAMES
#undef GLAP_TRACE_KIND_ENUMERATOR
#undef GLAP_TRACE_KIND_WIRE_NAME
#undef GLAP_TRACE_MEMBER
#undef GLAP_TRACE_PAYLOAD
#undef GLAP_TRACE_EVENT_MEMBER
#undef GLAP_TRACE_KIND_OF
#undef GLAP_TRACE_VISIT
#undef GLAP_TRACE_FOR_EACH_FIELD
#undef GLAP_TRACE_PAYLOAD_CASE

}  // namespace glap::trace
