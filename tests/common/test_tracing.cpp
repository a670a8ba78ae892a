// TraceLog: emit-order rendering of buffered interaction events and the
// JSONL shapes of the driver-direct lines.
#include "common/tracing.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/trace_format.hpp"
#include "sim/node.hpp"

namespace glap::trace {
namespace {

TEST(KindName, NamesAllKinds) {
  EXPECT_STREQ(kind_name(Kind::kMigration), "migration");
  EXPECT_STREQ(kind_name(Kind::kPower), "power");
  EXPECT_STREQ(kind_name(Kind::kShuffle), "shuffle");
  EXPECT_STREQ(kind_name(Kind::kOverload), "overload");
  EXPECT_STREQ(kind_name(Kind::kFault), "fault");
  EXPECT_STREQ(kind_name(Kind::kActivity), "activity");
}

// The activity reason codes are the numeric values of sim::WakeReason
// (the engine emits `static_cast<int64_t>(reason)`), so the two name
// tables must agree code for code.
TEST(ActivityReasonNames, PinnedToWakeReasonCodes) {
  for (std::int64_t code = 0; code <= 7; ++code)
    EXPECT_STREQ(activity_reason_name(code),
                 to_string(static_cast<sim::WakeReason>(code)))
        << "code " << code;
  EXPECT_STREQ(activity_reason_name(8), "?");
  EXPECT_STREQ(activity_reason_name(-1), "?");
}

TEST(TraceLog, RendersActivityKind) {
  std::ostringstream out;
  TraceLog log(out);
  log.begin_round(12);
  log.emit(Kind::kActivity, 7, /*awake=*/0,
           static_cast<std::int64_t>(sim::WakeReason::kConverged));
  log.emit(Kind::kActivity, 7, /*awake=*/1,
           static_cast<std::int64_t>(sim::WakeReason::kDemand));
  log.commit_round();
  EXPECT_EQ(out.str(),
            "{\"ev\":\"activity\",\"round\":12,\"pm\":7,\"awake\":false,"
            "\"reason\":\"converged\"}\n"
            "{\"ev\":\"activity\",\"round\":12,\"pm\":7,\"awake\":true,"
            "\"reason\":\"demand\"}\n");
}

TEST(TraceLog, RendersReservedFaultKind) {
  // No engine emit site yet (reserved for fault injection), but the wire
  // format is pinned so today's readers parse tomorrow's fault traces.
  std::ostringstream out;
  TraceLog log(out);
  log.begin_round(30);
  log.emit(Kind::kFault, 17, 3, 0, 0, 2.5);
  log.commit_round();
  EXPECT_EQ(out.str(),
            "{\"ev\":\"fault\",\"round\":30,\"pm\":17,\"kind\":3,"
            "\"value\":2.5}\n");
}

TEST(TraceLog, RendersBufferedEventsInEmitOrder) {
  std::ostringstream out;
  TraceLog log(out);
  log.begin_round(3);
  log.emit(Kind::kPower, 9, 1);
  log.emit(Kind::kMigration, 7, 2, 4, 0, 0.5, 125.0);
  log.emit(Kind::kPower, 1, 0);
  EXPECT_EQ(out.str(), "") << "buffered events wait for commit_round";
  log.commit_round();

  EXPECT_EQ(out.str(),
            "{\"ev\":\"power\",\"round\":3,\"pm\":9,\"on\":true}\n"
            "{\"ev\":\"migration\",\"round\":3,\"vm\":7,\"from\":2,\"to\":4,"
            "\"cpu\":0.5,\"energy_j\":125}\n"
            "{\"ev\":\"power\",\"round\":3,\"pm\":1,\"on\":false}\n");
}

TEST(TraceLog, CommitClearsBuffersBetweenRounds) {
  std::ostringstream out;
  TraceLog log(out);
  log.begin_round(1);
  log.emit(Kind::kShuffle, 1, 2, 3, 4);
  log.commit_round();
  log.begin_round(2);
  log.commit_round();  // nothing new: no extra output
  EXPECT_EQ(out.str(),
            "{\"ev\":\"shuffle\",\"round\":1,\"initiator\":1,\"peer\":2,"
            "\"sent\":3,\"reply\":4}\n");
}

TEST(TraceLog, DriverDirectLines) {
  std::ostringstream out;
  TraceLog log(out);
  log.round_summary(12, 100, 3, 7, 450, 9000);
  log.qsim(12, 0.875);
  log.overload(12, 42, 0.96875);
  log.relearn(13);
  EXPECT_EQ(out.str(),
            "{\"ev\":\"round\",\"round\":12,\"active_pms\":100,"
            "\"overloaded_pms\":3,\"migrations\":7,\"messages\":450,"
            "\"bytes\":9000}\n"
            "{\"ev\":\"qsim\",\"round\":12,\"similarity\":0.875}\n"
            "{\"ev\":\"overload\",\"round\":12,\"pm\":42,\"cpu\":0.96875}\n"
            "{\"ev\":\"relearn\",\"round\":13}\n");
}

// ---- GTB output ---------------------------------------------------------

TEST(TraceLogGtb, StreamOpensWithTheVersionedHeader) {
  std::ostringstream out;
  TraceLog log(&out, Format::kGtb);
  const std::string bytes = out.str();
  std::string header;
  append_gtb_header(&header);
  EXPECT_EQ(bytes, header);
}

TEST(TraceLogGtb, EncodesTheSameEventsAsJsonl) {
  // One buffered event of each interaction kind plus every driver line,
  // written through both formats; the decoded event streams must agree
  // field for field.
  const auto write_all = [](TraceLog* log) {
      log->begin_round(4);
    log->emit(Kind::kMigration, 7, 2, 4, 0, 0.5, 125.0);
    log->emit(Kind::kPower, 9, 1);
    log->emit(Kind::kShuffle, 1, 2, 3, 4);
    log->emit(Kind::kActivity, 7, 0,
              static_cast<std::int64_t>(sim::WakeReason::kConverged));
    log->emit(Kind::kNet, 0, 3, 8, 101, 512.0, 1.0);   // send
    log->emit(Kind::kNet, 1, 3, 8, 101, 2.0);          // deliver
    log->commit_round();
    log->round_summary(4, 100, 3, 7, 450, 9000);
    log->qsim(4, 0.875);
    log->overload(4, 42, 0.96875);
    log->relearn(5);
    log->net_queue(5, "uplink", 3, 65536);
  };

  std::ostringstream jsonl_out, gtb_out;
  TraceLog jsonl_log(&jsonl_out, Format::kJsonl);
  TraceLog gtb_log(&gtb_out, Format::kGtb);
  write_all(&jsonl_log);
  write_all(&gtb_log);

  const auto decode = [](const std::string& bytes) {
    std::istringstream in(bytes);
    TraceReader reader(in);
    std::vector<TraceEvent> events;
    TraceEvent e;
    std::string error;
    while (reader.next(&e, &error) == TraceReader::Status::kEvent)
      events.push_back(e);
    EXPECT_TRUE(error.empty()) << error;
    return events;
  };
  const std::vector<TraceEvent> a = decode(jsonl_out.str());
  const std::vector<TraceEvent> b = decode(gtb_out.str());

  // GTB spends a fraction of the JSONL bytes on the same stream.
  EXPECT_LT(gtb_out.str().size(), jsonl_out.str().size());
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.size(), 11u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind) << i;
    EXPECT_EQ(a[i].round, b[i].round) << i;
    std::string left, right;
    render_jsonl(a[i], &left);
    render_jsonl(b[i], &right);
    EXPECT_EQ(left, right) << i;
  }
}

// ---- deterministic sampling ---------------------------------------------

/// Emits `count` shuffles and `count` three-op net message lifecycles in
/// one round and returns the rendered trace.
std::string sampled_trace(const SamplingPolicy& sampling, int count,
                          bool reverse_order = false) {
  std::ostringstream out;
  TraceLog log(&out, Format::kJsonl, sampling);
  log.begin_round(1);
  for (int i = 0; i < count; ++i) {
    const int id = reverse_order ? count - 1 - i : i;
    log.emit(Kind::kShuffle, id, id + 1, 3, 3);
    log.emit(Kind::kNet, 0, id, id + 1, id, 80.0, 0.0);  // send
    log.emit(Kind::kNet, 1, id, id + 1, id, 0.0);        // deliver
  }
  log.commit_round();
  log.round_summary(1, 8, 0, 0, 0, 0);
  return out.str();
}

TEST(TraceSampling, KeepEverythingIsTheDefault) {
  const std::string full = sampled_trace({}, 16);
  int shuffles = 0, nets = 0;
  std::istringstream lines(full);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("{\"ev\":\"shuffle\"", 0) == 0) ++shuffles;
    if (line.rfind("{\"ev\":\"net\"", 0) == 0) ++nets;
  }
  EXPECT_EQ(shuffles, 16);
  EXPECT_EQ(nets, 32);
}

TEST(TraceSampling, KeepZeroDropsSampledKindsButNeverDriverLines) {
  SamplingPolicy sampling;
  sampling.shuffle_keep = 0.0;
  sampling.net_keep = 0.0;
  sampling.seed = 42;
  const std::string trace = sampled_trace(sampling, 16);
  EXPECT_EQ(trace.find("\"ev\":\"shuffle\""), std::string::npos);
  EXPECT_EQ(trace.find("\"ev\":\"net\""), std::string::npos);
  // The driver summary is never sampled out.
  EXPECT_NE(trace.find("\"ev\":\"round\""), std::string::npos);
}

TEST(TraceSampling, DecisionsAreIndependentOfEmitOrder) {
  SamplingPolicy sampling;
  sampling.shuffle_keep = 0.5;
  sampling.net_keep = 0.5;
  sampling.seed = 42;
  // Reversing the emit order must not change which events survive: the
  // keep decision is a pure hash of (seed, ids), not an RNG stream.
  const auto sorted_lines = [](const std::string& trace) {
    std::vector<std::string> lines;
    std::istringstream in(trace);
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    std::sort(lines.begin(), lines.end());
    return lines;
  };
  EXPECT_EQ(sorted_lines(sampled_trace(sampling, 64)),
            sorted_lines(sampled_trace(sampling, 64, true)));
}

TEST(TraceSampling, AllOpsOfOneMessageShareTheKeepDecision) {
  SamplingPolicy sampling;
  sampling.net_keep = 0.5;
  sampling.seed = 7;
  const std::string trace = sampled_trace(sampling, 64);
  // Sends and delivers carry the same msg ids, so a surviving send is
  // always paired with its deliver — the net-* invariants stay checkable.
  std::istringstream lines(trace);
  std::string line;
  int sends = 0, delivers = 0;
  while (std::getline(lines, line)) {
    if (line.rfind("{\"ev\":\"net\"", 0) != 0) continue;
    if (line.find("\"op\":\"send\"") != std::string::npos) ++sends;
    if (line.find("\"op\":\"deliver\"") != std::string::npos) ++delivers;
  }
  EXPECT_GT(sends, 0) << "0.5 keep sampled everything out of 64 messages";
  EXPECT_LT(sends, 64) << "0.5 keep sampled nothing out of 64 messages";
  EXPECT_EQ(sends, delivers);
}

TEST(TraceSampling, SeedSelectsADifferentSubset) {
  SamplingPolicy a;
  a.shuffle_keep = 0.5;
  a.seed = 1;
  SamplingPolicy b = a;
  b.seed = 2;
  EXPECT_NE(sampled_trace(a, 128), sampled_trace(b, 128));
}

TEST(TraceSampling, RejectsOutOfRangeProbabilities) {
  std::ostringstream out;
  SamplingPolicy bad;
  bad.net_keep = 1.5;
  EXPECT_THROW((TraceLog(&out, Format::kJsonl, bad)), precondition_error);
}

}  // namespace
}  // namespace glap::trace
