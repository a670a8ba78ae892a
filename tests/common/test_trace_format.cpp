// GTB wire format (DESIGN.md §10.6): per-kind encode/decode round-trips,
// the versioned header, the name/code tables, and the strict rejection of
// corrupt records. render_jsonl is pinned against parse_trace_line so the
// two encodings stay interchangeable carriers of the same event stream.
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
  std::string error;
  EXPECT_TRUE(append_gtb_record(e, &bytes, &error)) << error;
  EXPECT_GE(bytes.size(), 4u + 9u);
  // Length prefix covers exactly the payload that follows.
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i)
    len |= static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[i]))
           << (8 * i);
  EXPECT_EQ(len, bytes.size() - 4);
  TraceEvent out;
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
  std::uint32_t version = 0;
  for (int i = 0; i < 4; ++i)
    version |= static_cast<std::uint32_t>(
                   static_cast<unsigned char>(header[4 + i]))
               << (8 * i);
  EXPECT_EQ(version, kGtbVersion);
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

TEST(GtbRoundTrip, OverloadAndFaultAndQsim) {
  TraceEvent e;
  e.kind = EventKind::kOverload;
  e.round = 12;
  e.overload = {42, 0.96875};
  EXPECT_EQ(gtb_round_trip(e).overload.cpu, 0.96875);

  e.kind = EventKind::kFault;
  e.fault = {17, 3, 2.5};
  const TraceEvent f = gtb_round_trip(e);
  EXPECT_EQ(f.fault.pm, 17);
  EXPECT_EQ(f.fault.code, 3);
  EXPECT_EQ(f.fault.value, 2.5);

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
  // Every code in the table survives; the decoder restores the name.
  for (const char* reason : {"converged", "gossip", "demand", "migration",
                             "status", "schedule", "relearn", "network"}) {
    e.activity.reason = reason;
    EXPECT_EQ(gtb_round_trip(e).activity.reason, reason);
  }
}

TEST(GtbRoundTrip, NetAllFourOps) {
  TraceEvent e;
  e.kind = EventKind::kNet;
  e.round = 20;
  e.net.op = "send";
  e.net.src = 3;
  e.net.dst = 8;
  e.net.msg = 101;
  e.net.bytes = 512;
  e.net.channel = "learning";
  const TraceEvent s = gtb_round_trip(e);
  EXPECT_EQ(s.net.op, "send");
  EXPECT_EQ(s.net.bytes, 512);
  EXPECT_EQ(s.net.channel, "learning");

  e.net = {};
  e.net.op = "deliver";
  e.net.src = 3;
  e.net.dst = 8;
  e.net.msg = 101;
  e.net.delay = 2;
  EXPECT_EQ(gtb_round_trip(e).net.delay, 2);

  e.net = {};
  e.net.op = "drop";
  e.net.src = 3;
  e.net.dst = 8;
  e.net.msg = 102;
  e.net.reason = "congestion";
  EXPECT_EQ(gtb_round_trip(e).net.reason, "congestion");

  e.net = {};
  e.net.op = "queue";
  e.net.link = "uplink";
  e.net.link_id = 3;
  e.net.bytes = 65536;
  const TraceEvent q = gtb_round_trip(e);
  EXPECT_EQ(q.net.link, "uplink");
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
  e.activity.pm = 7;
  e.activity.awake = false;
  e.activity.reason = "converged";
  EXPECT_EQ(jsonl_round_trip(e).activity.reason, "converged");

  e.kind = EventKind::kNet;
  e.net.op = "send";
  e.net.src = 1;
  e.net.dst = 2;
  e.net.msg = 9;
  e.net.bytes = 80;
  e.net.channel = "shuffle";
  EXPECT_EQ(jsonl_round_trip(e).net.channel, "shuffle");
}

TEST(GtbEncode, RejectsUnknownStringCodes) {
  TraceEvent e;
  e.kind = EventKind::kNet;
  e.net.op = "teleport";
  std::string bytes;
  std::string error;
  EXPECT_FALSE(append_gtb_record(e, &bytes, &error));
  EXPECT_FALSE(error.empty());
  // A failed encode must not leave a partial record behind.
  EXPECT_TRUE(bytes.empty());

  e.net.op = "drop";
  e.net.reason = "gremlins";
  error.clear();
  EXPECT_FALSE(append_gtb_record(e, &bytes, &error));
  EXPECT_TRUE(bytes.empty());
}

TEST(GtbDecode, RejectsCorruptPayloads) {
  // A valid record to mutate.
  TraceEvent e;
  e.kind = EventKind::kPower;
  e.round = 3;
  e.power = {19, true};
  std::string bytes;
  ASSERT_TRUE(append_gtb_record(e, &bytes, nullptr));
  const std::string payload = bytes.substr(4);

  TraceEvent out;
  std::string error;
  // Unknown kind byte.
  std::string bad = payload;
  bad[0] = static_cast<char>(0x7f);
  EXPECT_FALSE(decode_gtb_payload(bad, &out, &error));
  EXPECT_FALSE(error.empty());

  // Every strict prefix is short, never accepted.
  for (std::size_t len = 0; len < payload.size(); ++len) {
    error.clear();
    EXPECT_FALSE(
        decode_gtb_payload(std::string_view(payload).substr(0, len), &out,
                           &error))
        << "prefix length " << len;
  }

  // Trailing bytes are corruption, not ignorable padding.
  bad = payload + '\0';
  error.clear();
  EXPECT_FALSE(decode_gtb_payload(bad, &out, &error));
  EXPECT_NE(error.find("trailing"), std::string::npos) << error;
}

TEST(NameCodeTables, RoundTripEveryPinnedName) {
  std::int64_t code = -1;
  for (std::int64_t c = 0; c <= 5; ++c) {
    ASSERT_TRUE(net_channel_code(net_channel_name(c), &code));
    EXPECT_EQ(code, c);
  }
  for (std::int64_t c = 0; c <= 3; ++c) {
    ASSERT_TRUE(net_op_code(net_op_name(c), &code));
    EXPECT_EQ(code, c);
  }
  for (std::int64_t c = 0; c <= 1; ++c) {
    ASSERT_TRUE(net_link_code(net_link_name(c), &code));
    EXPECT_EQ(code, c);
  }
  for (std::int64_t c = 1; c <= 2; ++c) {
    ASSERT_TRUE(net_drop_reason_code(net_drop_reason_name(c), &code));
    EXPECT_EQ(code, c);
  }
  EXPECT_FALSE(net_op_code("teleport", &code));
  EXPECT_FALSE(net_channel_code("?", &code));
  EXPECT_FALSE(activity_reason_code("?", &code));
}

}  // namespace
}  // namespace glap::trace
