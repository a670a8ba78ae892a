// trace_reader: every line TraceLog can emit parses back field-exact, and
// malformed lines come back as errors, never crashes.
#include "common/trace_reader.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/trace_format.hpp"
#include "common/tracing.hpp"

namespace glap::trace {
namespace {

/// Renders one buffered event through TraceLog and parses it back.
TraceEvent round_trip_buffered(Kind kind, std::int64_t a, std::int64_t b,
                               std::int64_t c, std::int64_t d, double x,
                               double y, std::uint64_t round) {
  std::ostringstream out;
  TraceLog log(out);
  log.begin_round(round);
  log.emit(kind, a, b, c, d, x, y);
  log.commit_round();

  TraceEvent event;
  std::string error;
  const std::string line =
      out.str().substr(0, out.str().size() - 1);  // strip '\n'
  EXPECT_TRUE(parse_trace_line(line, &event, &error)) << line << ": " << error;
  EXPECT_EQ(event.round, round);
  return event;
}

TEST(EventKindNames, RoundTripAllKinds) {
  for (std::size_t k = 0; k < kEventKindCount; ++k) {
    const auto kind = static_cast<EventKind>(k);
    EventKind back;
    ASSERT_TRUE(event_kind_from_name(event_kind_name(kind), &back))
        << event_kind_name(kind);
    EXPECT_EQ(back, kind);
  }
  EventKind unused;
  EXPECT_FALSE(event_kind_from_name("not_a_kind", &unused));
}

TEST(ParseTraceLine, MigrationFieldExact) {
  const TraceEvent e = round_trip_buffered(Kind::kMigration, 7, 2, 4, 0,
                                           0.6713679112345, 41.867145699, 3);
  ASSERT_EQ(e.kind, EventKind::kMigration);
  EXPECT_EQ(e.migration.vm, 7);
  EXPECT_EQ(e.migration.from, 2);
  EXPECT_EQ(e.migration.to, 4);
  EXPECT_EQ(e.migration.cpu, 0.6713679112345);
  EXPECT_EQ(e.migration.energy_j, 41.867145699);
}

TEST(ParseTraceLine, PowerFieldExact) {
  const TraceEvent on = round_trip_buffered(Kind::kPower, 9, 1, 0, 0, 0, 0, 5);
  ASSERT_EQ(on.kind, EventKind::kPower);
  EXPECT_EQ(on.power.pm, 9);
  EXPECT_TRUE(on.power.on);

  const TraceEvent off =
      round_trip_buffered(Kind::kPower, 11, 0, 0, 0, 0, 0, 5);
  EXPECT_EQ(off.power.pm, 11);
  EXPECT_FALSE(off.power.on);
}

TEST(ParseTraceLine, ShuffleFieldExact) {
  const TraceEvent e =
      round_trip_buffered(Kind::kShuffle, 1, 2, 8, 7, 0, 0, 12);
  ASSERT_EQ(e.kind, EventKind::kShuffle);
  EXPECT_EQ(e.shuffle.initiator, 1);
  EXPECT_EQ(e.shuffle.peer, 2);
  EXPECT_EQ(e.shuffle.sent, 8);
  EXPECT_EQ(e.shuffle.reply, 7);
}

TEST(ParseTraceLine, OverloadFieldExact) {
  const TraceEvent e =
      round_trip_buffered(Kind::kOverload, 42, 0, 0, 0, 0.96875, 0, 12);
  ASSERT_EQ(e.kind, EventKind::kOverload);
  EXPECT_EQ(e.overload.pm, 42);
  EXPECT_EQ(e.overload.cpu, 0.96875);
}

TEST(ParseTraceLine, FaultFieldExact) {
  // Reserved kind: no engine emit site yet, but the wire format is pinned.
  const TraceEvent e =
      round_trip_buffered(Kind::kFault, 17, 3, 0, 0, 2.5, 0, 30);
  ASSERT_EQ(e.kind, EventKind::kFault);
  EXPECT_EQ(e.fault.pm, 17);
  EXPECT_EQ(e.fault.code, 3);
  EXPECT_EQ(e.fault.value, 2.5);
}

TEST(ParseTraceLine, ActivityFieldExact) {
  const TraceEvent parked =
      round_trip_buffered(Kind::kActivity, 4, 0, 0, 0, 0, 0, 9);
  ASSERT_EQ(parked.kind, EventKind::kActivity);
  EXPECT_EQ(parked.activity.pm, 4);
  EXPECT_FALSE(parked.activity.awake);
  EXPECT_EQ(parked.activity.reason, "converged");

  const TraceEvent woke =
      round_trip_buffered(Kind::kActivity, 4, 1, 2, 0, 0, 0, 9);
  EXPECT_TRUE(woke.activity.awake);
  EXPECT_EQ(woke.activity.reason, "demand");
}

TEST(ParseTraceLine, NetFieldExact) {
  // op codes: 0 send, 1 deliver, anything else drop (reason in x).
  const TraceEvent send =
      round_trip_buffered(Kind::kNet, 0, 5, 37, 123, 256.0, 2.0, 14);
  ASSERT_EQ(send.kind, EventKind::kNet);
  EXPECT_EQ(send.net.op, "send");
  EXPECT_EQ(send.net.src, 5);
  EXPECT_EQ(send.net.dst, 37);
  EXPECT_EQ(send.net.msg, 123);
  EXPECT_EQ(send.net.bytes, 256);
  EXPECT_EQ(send.net.channel, "aggregation");

  const TraceEvent deliver =
      round_trip_buffered(Kind::kNet, 1, 5, 37, 123, 3.0, 0.0, 17);
  EXPECT_EQ(deliver.net.op, "deliver");
  EXPECT_EQ(deliver.net.msg, 123);
  EXPECT_EQ(deliver.net.delay, 3);

  const TraceEvent loss =
      round_trip_buffered(Kind::kNet, 2, 5, 37, 124, 1.0, 0.0, 14);
  EXPECT_EQ(loss.net.op, "drop");
  EXPECT_EQ(loss.net.reason, "loss");
  const TraceEvent congestion =
      round_trip_buffered(Kind::kNet, 2, 5, 37, 125, 2.0, 0.0, 14);
  EXPECT_EQ(congestion.net.reason, "congestion");
}

TEST(ParseTraceLine, NetQueueDirectLineFieldExact) {
  std::ostringstream out;
  TraceLog log(out);
  log.net_queue(21, "uplink", 3, 65536);

  TraceEvent e;
  std::string error;
  const std::string line = out.str().substr(0, out.str().size() - 1);
  ASSERT_TRUE(parse_trace_line(line, &e, &error)) << line << ": " << error;
  ASSERT_EQ(e.kind, EventKind::kNet);
  EXPECT_EQ(e.round, 21u);
  EXPECT_EQ(e.net.op, "queue");
  EXPECT_EQ(e.net.link, "uplink");
  EXPECT_EQ(e.net.link_id, 3);
  EXPECT_EQ(e.net.bytes, 65536);
}

TEST(ParseTraceLine, UnknownNetOpIsAnError) {
  TraceEvent e;
  std::string error;
  EXPECT_FALSE(parse_trace_line(
      R"({"ev":"net","round":1,"op":"teleport","src":0,"dst":1,"msg":9})", &e,
      &error));
  EXPECT_NE(error.find("net op"), std::string::npos) << error;
}

TEST(ParseTraceLine, DriverDirectLinesFieldExact) {
  std::ostringstream out;
  TraceLog log(out);
  log.round_summary(12, 100, 3, 7, 450, 9000);
  log.qsim(12, 0.875);
  log.overload(12, 42, 0.96875);
  log.relearn(13);

  std::istringstream in(out.str());
  TraceReader reader(in);
  TraceEvent e;
  std::string error;

  ASSERT_EQ(reader.next(&e, &error), TraceReader::Status::kEvent) << error;
  ASSERT_EQ(e.kind, EventKind::kRound);
  EXPECT_EQ(e.round, 12u);
  EXPECT_EQ(e.summary.active_pms, 100u);
  EXPECT_EQ(e.summary.overloaded_pms, 3u);
  EXPECT_EQ(e.summary.migrations, 7u);
  EXPECT_EQ(e.summary.messages, 450u);
  EXPECT_EQ(e.summary.bytes, 9000u);

  ASSERT_EQ(reader.next(&e, &error), TraceReader::Status::kEvent) << error;
  ASSERT_EQ(e.kind, EventKind::kQsim);
  EXPECT_EQ(e.qsim.similarity, 0.875);

  ASSERT_EQ(reader.next(&e, &error), TraceReader::Status::kEvent) << error;
  ASSERT_EQ(e.kind, EventKind::kOverload);
  EXPECT_EQ(e.overload.pm, 42);
  EXPECT_EQ(e.overload.cpu, 0.96875);

  ASSERT_EQ(reader.next(&e, &error), TraceReader::Status::kEvent) << error;
  ASSERT_EQ(e.kind, EventKind::kRelearn);
  EXPECT_EQ(e.round, 13u);

  EXPECT_EQ(reader.next(&e, &error), TraceReader::Status::kEof);
  EXPECT_EQ(reader.line_number(), 4u);
}

TEST(ParseTraceLine, ExtremeNumbersSurviveTheRoundTrip) {
  // json_double's shortest-round-trip rendering must parse back exactly.
  // (Subnormals are excluded: strtod flags them ERANGE and the reader
  // rejects out-of-range values; the simulator never produces them.)
  const double values[] = {1.0 / 3.0, 1e-300, 1.7976931348623157e308,
                           123456789.123456789};
  for (double v : values) {
    const TraceEvent e =
        round_trip_buffered(Kind::kOverload, 1, 0, 0, 0, v, 0, 1);
    EXPECT_EQ(e.overload.cpu, v);
  }
}

TEST(ParseTraceLine, MalformedLinesReturnErrorsNotCrashes) {
  const char* cases[] = {
      "",                                               // empty
      "not json",                                       // not an object
      "{",                                              // truncated
      "{\"ev\":\"migration\"",                          // unterminated
      "{\"ev\":\"migration\"}",                         // missing fields
      "{\"ev\":\"warp\",\"round\":1}",                  // unknown kind
      "{\"round\":1}",                                  // no ev
      "{\"ev\":7,\"round\":1}",                         // ev not a string
      "{\"ev\":\"power\",\"round\":1,\"pm\":2}",        // missing 'on'
      "{\"ev\":\"power\",\"round\":1,\"pm\":2,\"on\":5,}",   // trailing comma
      "{\"ev\":\"power\",\"round\":1,\"pm\":2,\"on\":true}x",  // tail bytes
      "{\"ev\":\"power\",\"round\":-1,\"pm\":2,\"on\":true}",  // negative u64
      "{\"ev\":\"overload\",\"round\":1,\"pm\":2,\"cpu\":}",   // empty value
      "{\"ev\":\"overload\",\"round\":1,\"pm\":2,\"cpu\":nan}",
      "{\"ev\":\"relearn\",\"round\":[1]}",                  // array value
      "{\"ev\":\"round\",\"round\":1,\"active_pms\":1e99999}",  // overflow
      "{\"ev\":\"migration\",\"round\":1,\"vm\":\"x\",\"from\":1,\"to\":2,"
      "\"cpu\":1,\"energy_j\":1}",  // string where number expected
  };
  for (const char* line : cases) {
    TraceEvent event;
    std::string error;
    EXPECT_FALSE(parse_trace_line(line, &event, &error)) << line;
    EXPECT_FALSE(error.empty()) << line;
  }
}

TEST(ParseTraceLine, TruncationFuzzNeverCrashes) {
  const std::string full =
      "{\"ev\":\"migration\",\"round\":3,\"vm\":7,\"from\":2,\"to\":4,"
      "\"cpu\":0.5,\"energy_j\":125}";
  for (std::size_t len = 0; len < full.size(); ++len) {
    TraceEvent event;
    std::string error;
    EXPECT_FALSE(parse_trace_line(full.substr(0, len), &event, &error))
        << "prefix length " << len;
  }
  TraceEvent event;
  EXPECT_TRUE(parse_trace_line(full, &event, nullptr));
}

TEST(TraceReader, SkipsBlankLinesAndReportsLineNumbers) {
  std::istringstream in(
      "\n{\"ev\":\"relearn\",\"round\":1}\n\n{\"ev\":\"bogus\"}\n");
  TraceReader reader(in);
  TraceEvent e;
  std::string error;
  ASSERT_EQ(reader.next(&e, &error), TraceReader::Status::kEvent) << error;
  EXPECT_EQ(e.kind, EventKind::kRelearn);
  EXPECT_EQ(reader.line_number(), 2u);
  EXPECT_EQ(reader.next(&e, &error), TraceReader::Status::kError);
  EXPECT_EQ(reader.line_number(), 4u);
}

/// A two-record GTB stream: header + relearn(1) + power(2, pm 9, on).
std::string small_gtb_stream() {
  std::string bytes;
  append_gtb_header(&bytes);
  TraceEvent e;
  e.kind = EventKind::kRelearn;
  e.round = 1;
  EXPECT_TRUE(append_gtb_record(e, &bytes, nullptr));
  e.kind = EventKind::kPower;
  e.round = 2;
  e.power = {9, true};
  EXPECT_TRUE(append_gtb_record(e, &bytes, nullptr));
  return bytes;
}

TEST(TraceReader, AutoDetectsGtbAndCountsRecords) {
  std::istringstream in(small_gtb_stream());
  TraceReader reader(in);
  TraceEvent e;
  std::string error;
  ASSERT_EQ(reader.next(&e, &error), TraceReader::Status::kEvent) << error;
  EXPECT_TRUE(reader.binary());
  EXPECT_EQ(e.kind, EventKind::kRelearn);
  EXPECT_EQ(reader.line_number(), 1u);
  ASSERT_EQ(reader.next(&e, &error), TraceReader::Status::kEvent) << error;
  EXPECT_EQ(e.kind, EventKind::kPower);
  EXPECT_EQ(e.power.pm, 9);
  EXPECT_EQ(reader.line_number(), 2u);
  EXPECT_EQ(reader.next(&e, &error), TraceReader::Status::kEof);
}

TEST(TraceReader, TruncatedGtbYieldsParsedPrefixThenTruncatedOnce) {
  const std::string full = small_gtb_stream();
  // Cut anywhere inside the second record (length prefix or payload):
  // the first record must still parse, then exactly one kTruncated.
  std::size_t second_record = kGtbHeaderBytes;
  {
    std::istringstream probe(full);
    probe.seekg(static_cast<std::streamoff>(kGtbHeaderBytes));
    char len_bytes[4] = {};
    probe.read(len_bytes, 4);
    std::uint32_t len = 0;
    for (int i = 0; i < 4; ++i)
      len |= static_cast<std::uint32_t>(
                 static_cast<unsigned char>(len_bytes[i]))
             << (8 * i);
    second_record += 4 + len;
  }
  for (std::size_t cut = second_record + 1; cut < full.size(); ++cut) {
    std::istringstream in(full.substr(0, cut));
    TraceReader reader(in);
    TraceEvent e;
    std::string error;
    ASSERT_EQ(reader.next(&e, &error), TraceReader::Status::kEvent)
        << "cut " << cut << ": " << error;
    EXPECT_EQ(e.kind, EventKind::kRelearn);
    EXPECT_EQ(reader.next(&e, &error), TraceReader::Status::kTruncated)
        << "cut " << cut;
    EXPECT_FALSE(error.empty());
    EXPECT_EQ(reader.next(&e, &error), TraceReader::Status::kEof)
        << "cut " << cut;
  }
}

TEST(TraceReader, TruncatedGtbHeaderIsReportedNotParsed) {
  std::istringstream in("GTB");
  TraceReader reader(in);
  TraceEvent e;
  std::string error;
  EXPECT_EQ(reader.next(&e, &error), TraceReader::Status::kTruncated);
  EXPECT_NE(error.find("header"), std::string::npos) << error;
}

TEST(TraceReader, BadGtbMagicOrVersionIsAnError) {
  std::istringstream bad_magic(std::string("GTBX\x01\x00\x00\x00", 8));
  TraceReader r1(bad_magic);
  TraceEvent e;
  std::string error;
  EXPECT_EQ(r1.next(&e, &error), TraceReader::Status::kError);

  std::istringstream bad_version(std::string("GTB0\x09\x00\x00\x00", 8));
  TraceReader r2(bad_version);
  EXPECT_EQ(r2.next(&e, &error), TraceReader::Status::kError);
  EXPECT_NE(error.find("version"), std::string::npos) << error;
}

TEST(TraceReader, CorruptGtbLengthPrefixIsAnErrorNotTruncation) {
  std::string bytes;
  append_gtb_header(&bytes);
  // A length of 3 can never hold the kind byte plus the round number.
  bytes += std::string("\x03\x00\x00\x00", 4) + "abc";
  std::istringstream in(bytes);
  TraceReader reader(in);
  TraceEvent e;
  std::string error;
  EXPECT_EQ(reader.next(&e, &error), TraceReader::Status::kError);
  EXPECT_NE(error.find("length prefix"), std::string::npos) << error;
}

TEST(TraceReader, TruncatedJsonlYieldsParsedPrefixThenTruncatedOnce) {
  // The final line is cut mid-record and has no trailing newline.
  std::istringstream in(
      "{\"ev\":\"relearn\",\"round\":1}\n{\"ev\":\"relearn\",\"rou");
  TraceReader reader(in);
  TraceEvent e;
  std::string error;
  ASSERT_EQ(reader.next(&e, &error), TraceReader::Status::kEvent) << error;
  EXPECT_FALSE(reader.binary());
  EXPECT_EQ(reader.next(&e, &error), TraceReader::Status::kTruncated);
  EXPECT_NE(error.find("truncated"), std::string::npos) << error;
  EXPECT_EQ(reader.next(&e, &error), TraceReader::Status::kEof);
}

TEST(TraceReader, MalformedJsonlMidFileIsStillAnError) {
  // A bad line followed by more data is corruption, not truncation.
  std::istringstream in("{\"ev\":\"bogus\"}\n{\"ev\":\"relearn\",\"round\":1}\n");
  TraceReader reader(in);
  TraceEvent e;
  std::string error;
  EXPECT_EQ(reader.next(&e, &error), TraceReader::Status::kError);
}

TEST(ParseTraceLine, IgnoresUnknownKeys) {
  TraceEvent e;
  std::string error;
  ASSERT_TRUE(parse_trace_line(
      "{\"ev\":\"power\",\"round\":1,\"pm\":2,\"on\":true,\"extra\":9}", &e,
      &error))
      << error;
  EXPECT_EQ(e.power.pm, 2);
}

}  // namespace
}  // namespace glap::trace
