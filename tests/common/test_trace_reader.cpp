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
template <typename Payload>
TraceEvent round_trip_buffered(const Payload& payload, std::uint64_t round) {
  std::ostringstream out;
  TraceLog log(out);
  log.begin_round(round);
  log.emit(payload);
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
  for (const WireName& name : WireNames<EventKind>::kEntries) {
    EventKind kind;
    ASSERT_TRUE(from_wire_name(name.name, &kind)) << name.name;
    EXPECT_EQ(static_cast<std::uint8_t>(kind), name.code);
    EXPECT_EQ(wire_name(kind), name.name);
  }
  EventKind unused;
  EXPECT_FALSE(from_wire_name("not_a_kind", &unused));
  EXPECT_FALSE(from_wire_name("fault", &unused));  // retired kind
}

TEST(ParseTraceLine, MigrationFieldExact) {
  const TraceEvent e =
      round_trip_buffered(Migration{7, 2, 4, 0.6713679112345, 41.867145699},
                          3);
  ASSERT_EQ(e.kind, EventKind::kMigration);
  EXPECT_EQ(e.migration.vm, 7);
  EXPECT_EQ(e.migration.from, 2);
  EXPECT_EQ(e.migration.to, 4);
  EXPECT_EQ(e.migration.cpu, 0.6713679112345);
  EXPECT_EQ(e.migration.energy_j, 41.867145699);
}

TEST(ParseTraceLine, PowerFieldExact) {
  const TraceEvent on = round_trip_buffered(Power{9, true}, 5);
  ASSERT_EQ(on.kind, EventKind::kPower);
  EXPECT_EQ(on.power.pm, 9);
  EXPECT_TRUE(on.power.on);

  const TraceEvent off = round_trip_buffered(Power{11, false}, 5);
  EXPECT_EQ(off.power.pm, 11);
  EXPECT_FALSE(off.power.on);
}

TEST(ParseTraceLine, ShuffleFieldExact) {
  const TraceEvent e = round_trip_buffered(Shuffle{1, 2, 8, 7}, 12);
  ASSERT_EQ(e.kind, EventKind::kShuffle);
  EXPECT_EQ(e.shuffle.initiator, 1);
  EXPECT_EQ(e.shuffle.peer, 2);
  EXPECT_EQ(e.shuffle.sent, 8);
  EXPECT_EQ(e.shuffle.reply, 7);
}

TEST(ParseTraceLine, OverloadFieldExact) {
  const TraceEvent e = round_trip_buffered(Overload{42, 0.96875}, 12);
  ASSERT_EQ(e.kind, EventKind::kOverload);
  EXPECT_EQ(e.overload.pm, 42);
  EXPECT_EQ(e.overload.cpu, 0.96875);
}

TEST(ParseTraceLine, RetiredFaultKindIsRejected) {
  // "fault" was reserved and never emitted; its name and its GTB code 4
  // are retired, so a trace carrying either is malformed.
  TraceEvent e;
  std::string error;
  EXPECT_FALSE(parse_trace_line(
      R"({"ev":"fault","round":30,"pm":17,"kind":3,"value":2.5})", &e,
      &error));
  EXPECT_NE(error.find("unknown event kind 'fault'"), std::string::npos)
      << error;
  std::string record = std::string("\x04", 1) + std::string(8, '\0');
  EXPECT_FALSE(decode_gtb_payload(record, &e, &error));
  EXPECT_FALSE(error.empty());
}

TEST(ParseTraceLine, ActivityFieldExact) {
  const TraceEvent parked = round_trip_buffered(
      Activity{4, false, ActivityReason::kConverged}, 9);
  ASSERT_EQ(parked.kind, EventKind::kActivity);
  EXPECT_EQ(parked.activity.pm, 4);
  EXPECT_FALSE(parked.activity.awake);
  EXPECT_EQ(parked.activity.reason, ActivityReason::kConverged);

  const TraceEvent woke =
      round_trip_buffered(Activity{4, true, ActivityReason::kDemand}, 9);
  EXPECT_TRUE(woke.activity.awake);
  EXPECT_EQ(woke.activity.reason, ActivityReason::kDemand);
}

TEST(ParseTraceLine, NetFieldExact) {
  const TraceEvent send = round_trip_buffered(
      Net{.op = NetOp::kSend, .src = 5, .dst = 37, .msg = 123, .bytes = 256,
          .channel = Channel::kAggregation},
      14);
  ASSERT_EQ(send.kind, EventKind::kNet);
  EXPECT_EQ(send.net.op, NetOp::kSend);
  EXPECT_EQ(send.net.src, 5);
  EXPECT_EQ(send.net.dst, 37);
  EXPECT_EQ(send.net.msg, 123);
  EXPECT_EQ(send.net.bytes, 256);
  EXPECT_EQ(send.net.channel, Channel::kAggregation);

  const TraceEvent deliver = round_trip_buffered(
      Net{.op = NetOp::kDeliver, .src = 5, .dst = 37, .msg = 123, .delay = 3},
      17);
  EXPECT_EQ(deliver.net.op, NetOp::kDeliver);
  EXPECT_EQ(deliver.net.msg, 123);
  EXPECT_EQ(deliver.net.delay, 3);

  const TraceEvent loss = round_trip_buffered(
      Net{.op = NetOp::kDrop, .src = 5, .dst = 37, .msg = 124,
          .reason = DropReason::kLoss},
      14);
  EXPECT_EQ(loss.net.op, NetOp::kDrop);
  EXPECT_EQ(loss.net.reason, DropReason::kLoss);
  const TraceEvent congestion = round_trip_buffered(
      Net{.op = NetOp::kDrop, .src = 5, .dst = 37, .msg = 125,
          .reason = DropReason::kCongestion},
      14);
  EXPECT_EQ(congestion.net.reason, DropReason::kCongestion);
}

TEST(ParseTraceLine, NetQueueDirectLineFieldExact) {
  std::ostringstream out;
  TraceLog log(out);
  log.write(21, Net{.op = NetOp::kQueue, .link = Link::kUplink,
                    .link_id = 3, .bytes = 65536});

  TraceEvent e;
  std::string error;
  const std::string line = out.str().substr(0, out.str().size() - 1);
  ASSERT_TRUE(parse_trace_line(line, &e, &error)) << line << ": " << error;
  ASSERT_EQ(e.kind, EventKind::kNet);
  EXPECT_EQ(e.round, 21u);
  EXPECT_EQ(e.net.op, NetOp::kQueue);
  EXPECT_EQ(e.net.link, Link::kUplink);
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

TEST(ParseTraceLine, UnknownVocabularyNamesAreErrors) {
  // Every enumerated string field must name a value of its vocabulary.
  const char* cases[][2] = {
      {R"({"ev":"net","round":1,"op":"send","src":0,"dst":1,"msg":9,)"
       R"("bytes":8,"channel":"carrier-pigeon"})",
       "net channel"},
      {R"({"ev":"net","round":1,"op":"drop","src":0,"dst":1,"msg":9,)"
       R"("reason":"gremlins"})",
       "net drop reason"},
      {R"({"ev":"net","round":1,"op":"queue","link":"warp-conduit",)"
       R"("id":0,"bytes":10})",
       "net link"},
      {R"({"ev":"activity","round":1,"pm":3,"awake":false,)"
       R"("reason":"cosmic-rays"})",
       "activity reason"},
  };
  for (const auto& [line, what] : cases) {
    TraceEvent e;
    std::string error;
    EXPECT_FALSE(parse_trace_line(line, &e, &error)) << line;
    EXPECT_NE(error.find(std::string("unknown ") + what), std::string::npos)
        << error;
  }
}

TEST(ParseTraceLine, DriverDirectLinesFieldExact) {
  std::ostringstream out;
  TraceLog log(out);
  log.write(12, RoundSummary{100, 3, 7, 450, 9000});
  log.write(12, Qsim{0.875});
  log.write(12, Overload{42, 0.96875});
  log.write(13, Relearn{});

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
    const TraceEvent e = round_trip_buffered(Overload{1, v}, 1);
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
  append_gtb_record(1, Relearn{}, &bytes);
  append_gtb_record(2, Power{9, true}, &bytes);
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
  second_record += 4 + load_u32(full.data() + kGtbHeaderBytes);
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
