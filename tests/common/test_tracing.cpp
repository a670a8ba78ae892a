// TraceLog: emit-order rendering of buffered interaction events and the
// JSONL shapes of the driver-direct lines.
#include "common/tracing.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/trace_format.hpp"
#include "common/trace_reader.hpp"
#include "sim/node.hpp"

namespace glap::trace {
namespace {

// The "ev" names and the activity reason names are part of the wire
// format; renaming one breaks every trace already written.
TEST(KindName, NamesAllKinds) {
  EXPECT_EQ(wire_name(EventKind::kMigration), "migration");
  EXPECT_EQ(wire_name(EventKind::kPower), "power");
  EXPECT_EQ(wire_name(EventKind::kShuffle), "shuffle");
  EXPECT_EQ(wire_name(EventKind::kOverload), "overload");
  EXPECT_EQ(wire_name(EventKind::kActivity), "activity");
  EXPECT_EQ(wire_name(EventKind::kNet), "net");
  EXPECT_EQ(wire_name(EventKind::kRound), "round");
  EXPECT_EQ(wire_name(EventKind::kQsim), "qsim");
  EXPECT_EQ(wire_name(EventKind::kRelearn), "relearn");
}

// sim::WakeReason is the schema's activity vocabulary, so the engine's
// reasons reach the trace by name and code with no table in between.
TEST(ActivityReasonNames, PinnedToWakeReasonCodes) {
  const std::pair<sim::WakeReason, const char*> pinned[] = {
      {sim::WakeReason::kConverged, "converged"},
      {sim::WakeReason::kGossip, "gossip"},
      {sim::WakeReason::kDemand, "demand"},
      {sim::WakeReason::kMigration, "migration"},
      {sim::WakeReason::kStatus, "status"},
      {sim::WakeReason::kSchedule, "schedule"},
      {sim::WakeReason::kRelearn, "relearn"},
      {sim::WakeReason::kNetwork, "network"}};
  std::uint8_t code = 0;
  for (const auto& [reason, name] : pinned) {
    EXPECT_EQ(static_cast<std::uint8_t>(reason), code++) << name;
    EXPECT_EQ(wire_name(reason), name);
  }
  EXPECT_EQ(std::size(WireNames<ActivityReason>::kEntries), 8u);
}

TEST(TraceLog, RendersActivityKind) {
  std::ostringstream out;
  TraceLog log(out);
  log.begin_round(12);
  log.emit(Activity{7, false, sim::WakeReason::kConverged});
  log.emit(Activity{7, true, sim::WakeReason::kDemand});
  log.commit_round();
  EXPECT_EQ(out.str(),
            "{\"ev\":\"activity\",\"round\":12,\"pm\":7,\"awake\":false,"
            "\"reason\":\"converged\"}\n"
            "{\"ev\":\"activity\",\"round\":12,\"pm\":7,\"awake\":true,"
            "\"reason\":\"demand\"}\n");
}

TEST(TraceLog, RendersBufferedEventsInEmitOrder) {
  std::ostringstream out;
  TraceLog log(out);
  log.begin_round(3);
  log.emit(Power{9, true});
  log.emit(Migration{7, 2, 4, 0.5, 125.0});
  log.emit(Power{1, false});
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
  log.emit(Shuffle{1, 2, 3, 4});
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
  log.write(12, RoundSummary{100, 3, 7, 450, 9000});
  log.write(12, Qsim{0.875});
  log.write(12, Overload{42, 0.96875});
  log.write(13, Relearn{});
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
    log->emit(Migration{7, 2, 4, 0.5, 125.0});
    log->emit(Power{9, true});
    log->emit(Shuffle{1, 2, 3, 4});
    log->emit(Activity{7, false, sim::WakeReason::kConverged});
    log->emit(Net{.op = NetOp::kSend, .src = 3, .dst = 8, .msg = 101,
                  .bytes = 512, .channel = Channel::kLearning});
    log->emit(Net{.op = NetOp::kDeliver, .src = 3, .dst = 8, .msg = 101,
                  .delay = 2});
    log->commit_round();
    log->write(4, RoundSummary{100, 3, 7, 450, 9000});
    log->write(4, Qsim{0.875});
    log->write(4, Overload{42, 0.96875});
    log->write(5, Relearn{});
    log->write(5, Net{.op = NetOp::kQueue, .link = Link::kUplink,
                      .link_id = 3, .bytes = 65536});
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

/// Emits `count` shuffles and `count` send+deliver net message lifecycles
/// in one round and returns the rendered trace.
std::string sampled_trace(const SamplingPolicy& sampling, int count,
                          bool reverse_order = false) {
  std::ostringstream out;
  TraceLog log(&out, Format::kJsonl, sampling);
  log.begin_round(1);
  for (int i = 0; i < count; ++i) {
    const int id = reverse_order ? count - 1 - i : i;
    log.emit(Shuffle{id, id + 1, 3, 3});
    log.emit(Net{.op = NetOp::kSend, .src = id, .dst = id + 1, .msg = id,
                 .bytes = 80});
    log.emit(Net{.op = NetOp::kDeliver, .src = id, .dst = id + 1, .msg = id});
  }
  log.commit_round();
  log.write(1, RoundSummary{8, 0, 0, 0, 0});
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
