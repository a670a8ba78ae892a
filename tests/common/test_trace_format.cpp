// GTB wire format (DESIGN.md §10.6): per-kind encode/decode round-trips,
// the versioned header, the schema's vocabularies, and the strict
// rejection of corrupt records. render_jsonl is pinned against
// parse_trace_line so the two encodings stay interchangeable carriers of
// the same event stream.
#include "common/trace_format.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/trace_reader.hpp"

namespace glap::trace {
namespace {

/// Encodes `e` as one GTB record and decodes it back.
TraceEvent gtb_round_trip(const TraceEvent& e) {
  std::string bytes;
  append_gtb_record(e, &bytes);
  EXPECT_GE(bytes.size(), 4u + 9u);
  // Length prefix covers exactly the payload that follows.
  EXPECT_EQ(load_u32(bytes.data()), bytes.size() - 4);
  TraceEvent out;
  std::string error;
  EXPECT_TRUE(decode_gtb_payload(
      std::string_view(bytes).substr(4), &out, &error))
      << error;
  return out;
}

/// JSONL round-trip through the line renderer and the line parser.
TraceEvent jsonl_round_trip(const TraceEvent& e) {
  std::string line;
  render_jsonl(e, &line);
  EXPECT_FALSE(line.empty()) << "render_jsonl produced nothing";
  EXPECT_EQ(line.back(), '\n');
  TraceEvent out;
  std::string error;
  EXPECT_TRUE(parse_trace_line(
      std::string_view(line).substr(0, line.size() - 1), &out, &error))
      << line << ": " << error;
  return out;
}

TEST(GtbHeader, EightVersionedMagicBytes) {
  std::string header;
  append_gtb_header(&header);
  ASSERT_EQ(header.size(), kGtbHeaderBytes);
  EXPECT_EQ(std::memcmp(header.data(), kGtbMagic, sizeof kGtbMagic), 0);
  EXPECT_EQ(load_u32(header.data() + 4), kGtbVersion);
}

TEST(GtbRoundTrip, Migration) {
  TraceEvent e;
  e.kind = EventKind::kMigration;
  e.round = 41;
  e.migration = {7, 2, 4, 0.59375, 125.5};
  const TraceEvent r = gtb_round_trip(e);
  ASSERT_EQ(r.kind, EventKind::kMigration);
  EXPECT_EQ(r.round, 41u);
  EXPECT_EQ(r.migration.vm, 7);
  EXPECT_EQ(r.migration.from, 2);
  EXPECT_EQ(r.migration.to, 4);
  EXPECT_EQ(r.migration.cpu, 0.59375);
  EXPECT_EQ(r.migration.energy_j, 125.5);
}

TEST(GtbRoundTrip, PowerBothPolarities) {
  TraceEvent e;
  e.kind = EventKind::kPower;
  e.round = 3;
  e.power = {19, true};
  EXPECT_TRUE(gtb_round_trip(e).power.on);
  e.power.on = false;
  const TraceEvent r = gtb_round_trip(e);
  EXPECT_EQ(r.power.pm, 19);
  EXPECT_FALSE(r.power.on);
}

TEST(GtbRoundTrip, Shuffle) {
  TraceEvent e;
  e.kind = EventKind::kShuffle;
  e.round = 9;
  e.shuffle = {1, 2, 3, 4};
  const TraceEvent r = gtb_round_trip(e);
  EXPECT_EQ(r.shuffle.initiator, 1);
  EXPECT_EQ(r.shuffle.peer, 2);
  EXPECT_EQ(r.shuffle.sent, 3);
  EXPECT_EQ(r.shuffle.reply, 4);
}

TEST(GtbRoundTrip, OverloadAndQsim) {
  TraceEvent e;
  e.kind = EventKind::kOverload;
  e.round = 12;
  e.overload = {42, 0.96875};
  EXPECT_EQ(gtb_round_trip(e).overload.cpu, 0.96875);

  e.kind = EventKind::kQsim;
  e.qsim.similarity = -0.125;
  EXPECT_EQ(gtb_round_trip(e).qsim.similarity, -0.125);
}

TEST(GtbRoundTrip, ActivityCarriesReasonByCode) {
  TraceEvent e;
  e.kind = EventKind::kActivity;
  e.round = 6;
  e.activity.pm = 5;
  e.activity.awake = true;
  // Every reason in the vocabulary survives.
  for (const WireName& reason : WireNames<ActivityReason>::kEntries) {
    e.activity.reason = static_cast<ActivityReason>(reason.code);
    EXPECT_EQ(gtb_round_trip(e).activity.reason, e.activity.reason)
        << reason.name;
  }
}

TEST(GtbRoundTrip, NetAllFourOps) {
  TraceEvent e;
  e.kind = EventKind::kNet;
  e.round = 20;
  e.net = {.op = NetOp::kSend, .src = 3, .dst = 8, .msg = 101, .bytes = 512,
           .channel = Channel::kLearning};
  const TraceEvent s = gtb_round_trip(e);
  EXPECT_EQ(s.net.op, NetOp::kSend);
  EXPECT_EQ(s.net.bytes, 512);
  EXPECT_EQ(s.net.channel, Channel::kLearning);

  e.net = {.op = NetOp::kDeliver, .src = 3, .dst = 8, .msg = 101,
           .delay = 2};
  EXPECT_EQ(gtb_round_trip(e).net.delay, 2);

  e.net = {.op = NetOp::kDrop, .src = 3, .dst = 8, .msg = 102,
           .reason = DropReason::kCongestion};
  EXPECT_EQ(gtb_round_trip(e).net.reason, DropReason::kCongestion);

  e.net = {.op = NetOp::kQueue, .link = Link::kUplink, .link_id = 3,
           .bytes = 65536};
  const TraceEvent q = gtb_round_trip(e);
  EXPECT_EQ(q.net.link, Link::kUplink);
  EXPECT_EQ(q.net.link_id, 3);
  EXPECT_EQ(q.net.bytes, 65536);
}

TEST(GtbRoundTrip, DriverSummaryAndRelearn) {
  TraceEvent e;
  e.kind = EventKind::kRound;
  e.round = 12;
  e.summary = {100, 3, 7, 450, 9000};
  const TraceEvent s = gtb_round_trip(e);
  EXPECT_EQ(s.summary.active_pms, 100u);
  EXPECT_EQ(s.summary.bytes, 9000u);

  e.kind = EventKind::kRelearn;
  e.round = 13;
  EXPECT_EQ(gtb_round_trip(e).round, 13u);
}

TEST(GtbRoundTrip, ExtremeDoublesSurviveBitExactly) {
  // f64 travels as the raw IEEE-754 bit pattern — no text rendering.
  const double values[] = {1.0 / 3.0, 1e-300, 5e-324,
                           1.7976931348623157e308, -0.0};
  TraceEvent e;
  e.kind = EventKind::kQsim;
  for (const double v : values) {
    e.qsim.similarity = v;
    const TraceEvent r = gtb_round_trip(e);
    EXPECT_EQ(std::memcmp(&r.qsim.similarity, &v, sizeof v), 0) << v;
  }
}

TEST(RenderJsonl, AgreesWithLineParserForEveryKind) {
  TraceEvent e;
  e.kind = EventKind::kMigration;
  e.round = 3;
  e.migration = {7, 2, 4, 0.5, 125.0};
  EXPECT_EQ(jsonl_round_trip(e).migration.energy_j, 125.0);

  e.kind = EventKind::kActivity;
  e.activity = {7, false, ActivityReason::kConverged};
  EXPECT_EQ(jsonl_round_trip(e).activity.reason, ActivityReason::kConverged);

  e.kind = EventKind::kNet;
  e.net = {.op = NetOp::kSend, .src = 1, .dst = 2, .msg = 9, .bytes = 80,
           .channel = Channel::kShuffle};
  EXPECT_EQ(jsonl_round_trip(e).net.channel, Channel::kShuffle);
}

TEST(GtbDecode, RejectsUnknownVocabularyCodes) {
  // Each vocabulary byte of a valid record, overwritten with a code its
  // vocabulary lacks, must fail the decode instead of yielding a value.
  TraceEvent e;
  e.kind = EventKind::kNet;
  e.net = {.op = NetOp::kDrop, .src = 3, .dst = 8, .msg = 102,
           .reason = DropReason::kLoss};
  std::string bytes;
  append_gtb_record(e, &bytes);
  const std::string payload = bytes.substr(4);
  TraceEvent out;
  std::string error;
  std::string bad = payload;
  bad[9] = 7;  // the op byte follows the kind byte and the u64 round
  EXPECT_FALSE(decode_gtb_payload(bad, &out, &error));
  EXPECT_NE(error.find("net op"), std::string::npos) << error;
  bad = payload;
  bad.back() = 0;  // drop reason 0 (kNone) never travels
  EXPECT_FALSE(decode_gtb_payload(bad, &out, &error));
  EXPECT_NE(error.find("net drop reason"), std::string::npos) << error;
}

TEST(GtbDecode, RejectsCorruptPayloads) {
  // A valid record to mutate.
  TraceEvent e;
  e.kind = EventKind::kPower;
  e.round = 3;
  e.power = {19, true};
  std::string bytes;
  append_gtb_record(e, &bytes);
  const std::string payload = bytes.substr(4);

  TraceEvent out;
  std::string error;
  // Unknown kind byte, and the retired kind code of the "fault" kind.
  for (const char kind : {static_cast<char>(0x7f), static_cast<char>(4)}) {
    std::string bad = payload;
    bad[0] = kind;
    EXPECT_FALSE(decode_gtb_payload(bad, &out, &error));
    EXPECT_NE(error.find("event kind"), std::string::npos) << error;
  }

  // Every strict prefix is short, never accepted.
  for (std::size_t len = 0; len < payload.size(); ++len) {
    error.clear();
    EXPECT_FALSE(
        decode_gtb_payload(std::string_view(payload).substr(0, len), &out,
                           &error))
        << "prefix length " << len;
  }

  // Trailing bytes are corruption, not ignorable padding.
  const std::string bad = payload + '\0';
  error.clear();
  EXPECT_FALSE(decode_gtb_payload(bad, &out, &error));
  EXPECT_NE(error.find("trailing"), std::string::npos) << error;
}

TEST(NameCodeTables, RoundTripEveryPinnedName) {
  // Every vocabulary name maps to its code and back; unknown names and
  // codes are rejected.
  const auto round_trips = [](auto tag) {
    using E = decltype(tag);
    for (const WireName& w : WireNames<E>::kEntries) {
      E by_name{}, by_code{};
      ASSERT_TRUE(from_wire_name(w.name, &by_name)) << w.name;
      ASSERT_TRUE(from_wire_code(w.code, &by_code)) << w.name;
      EXPECT_EQ(by_name, by_code);
      EXPECT_EQ(wire_name(by_name), w.name);
    }
    E unused{};
    EXPECT_FALSE(from_wire_name("?", &unused));
    EXPECT_FALSE(from_wire_code(0xff, &unused));
  };
  round_trips(NetOp{});
  round_trips(Channel{});
  round_trips(DropReason{});
  round_trips(Link{});
  round_trips(ActivityReason{});
  round_trips(EventKind{});
  // The pinned codes: ops 0-3, channels 0-5, drop reasons 1-2, links 0-1,
  // activity reasons 0-7.
  EXPECT_EQ(static_cast<int>(NetOp::kQueue), 3);
  EXPECT_EQ(static_cast<int>(Channel::kMigration), 5);
  EXPECT_EQ(static_cast<int>(DropReason::kLoss), 1);
  EXPECT_EQ(static_cast<int>(DropReason::kCongestion), 2);
  EXPECT_EQ(static_cast<int>(Link::kUplink), 1);
  EXPECT_EQ(static_cast<int>(ActivityReason::kNetwork), 7);
}

}  // namespace
}  // namespace glap::trace
