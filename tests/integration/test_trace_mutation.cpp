// Reader robustness against corrupted goldens. TraceReader promises never
// to crash on malformed input and to read a file cut anywhere as its
// intact prefix; this test holds it to that over deterministic mutations
// of all four committed golden traces:
//
//   * every strict prefix (a cut at each byte offset) reads as the
//     golden's first k events, then kTruncated or kEof — never kError;
//   * one byte flip at each offset reads to termination through only the
//     four defined statuses, with a diagnostic on every kTruncated and
//     kError.
//
// A record's parse depends only on its own bytes (GTB framing aside), so
// each mutant is re-read from the start of the record it touches (plus
// the next record, which a flipped length prefix or newline reaches);
// a fixed stride of cuts re-reads the whole prefix to prove the two
// views agree. The ASan/UBSan CI stage runs this test like any other.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/trace_format.hpp"
#include "common/trace_reader.hpp"

namespace glap::trace {
namespace {

using Status = TraceReader::Status;

/// One golden file split into its records.
struct Golden {
  std::string name;
  std::string bytes;
  std::size_t header = 0;            ///< bytes before the first record
  std::vector<std::size_t> starts;   ///< record offsets, then bytes.size()
  std::vector<std::string> events;   ///< each record rendered as JSONL
};

/// Reads `bytes` until kEof; returns every event rendered as JSONL and
/// the non-event statuses in order.
struct ReadOutcome {
  std::vector<std::string> events;
  std::vector<Status> ends;
};

ReadOutcome read_all(std::string bytes) {
  // Every next() but the last consumes input, so a read that has not
  // ended after one call per byte (plus the final kEof) never will.
  const std::size_t max_calls = bytes.size() + 2;
  std::istringstream in(std::move(bytes));
  TraceReader reader(in);
  ReadOutcome outcome;
  TraceEvent event;
  std::string error;
  for (std::size_t calls = 0; calls < max_calls; ++calls) {
    const Status status = reader.next(&event, &error);
    if (status == Status::kEvent) {
      outcome.events.emplace_back();
      render_jsonl(event, &outcome.events.back());
      continue;
    }
    outcome.ends.push_back(status);
    if (status == Status::kEof) return outcome;
    EXPECT_TRUE(status == Status::kTruncated || status == Status::kError);
    EXPECT_FALSE(error.empty()) << "a failed read carries no diagnostic";
  }
  ADD_FAILURE() << "reader did not reach kEof";
  return outcome;
}

Golden load(const std::string& name) {
  Golden g;
  g.name = name;
  std::ifstream in(std::string(GLAP_TESTS_DIR) + "/integration/golden/" + name,
                   std::ios::binary);
  EXPECT_TRUE(in.is_open()) << name;
  std::ostringstream bytes;
  bytes << in.rdbuf();
  g.bytes = bytes.str();
  const bool binary = name.ends_with(".gtb");
  g.header = binary ? kGtbHeaderBytes : 0;
  for (std::size_t at = g.header; at < g.bytes.size();) {
    g.starts.push_back(at);
    at = binary ? at + 4 + load_u32(g.bytes.data() + at)
                : g.bytes.find('\n', at) + 1;
  }
  g.starts.push_back(g.bytes.size());
  const ReadOutcome intact = read_all(g.bytes);
  g.events = intact.events;
  EXPECT_EQ(intact.ends, std::vector<Status>{Status::kEof}) << name;
  EXPECT_EQ(g.events.size(), g.starts.size() - 1) << name;
  return g;
}

const std::vector<Golden>& goldens() {
  static const std::vector<Golden> all = {
      load("trace_8pm.jsonl"), load("trace_8pm.gtb"),
      load("trace_allkinds.jsonl"), load("trace_allkinds.gtb")};
  return all;
}

/// Index of the record holding byte `offset` (offset >= header).
std::size_t record_at(const Golden& g, std::size_t offset) {
  std::size_t r = 0;
  while (g.starts[r + 1] <= offset) ++r;
  return r;
}

/// The header plus bytes [from, to) of `bytes`: what the reader sees from
/// record `from` on, without re-reading the records before it.
std::string tail(const Golden& g, const std::string& bytes, std::size_t from,
                 std::size_t to) {
  return bytes.substr(0, g.header) + bytes.substr(from, to - from);
}

TEST(TraceMutation, EveryPrefixReadsAsTheGoldensFirstEvents) {
  for (const Golden& g : goldens()) {
    for (std::size_t cut = 0; cut < g.bytes.size(); ++cut) {
      if (cut < g.header) {  // inside the GTB header: nothing to read yet
        const ReadOutcome o = read_all(g.bytes.substr(0, cut));
        EXPECT_TRUE(o.events.empty());
        EXPECT_EQ(o.ends.back(), Status::kEof);
        EXPECT_EQ(o.ends.front(), cut == 0 ? Status::kEof : Status::kTruncated)
            << g.name << " cut " << cut;
        continue;
      }
      const std::size_t r = record_at(g, cut);
      const ReadOutcome o = read_all(tail(g, g.bytes, g.starts[r], cut));
      // The cut record is either gone (cut at its start), truncated, or —
      // a JSONL line cut just before its '\n' — complete.
      ASSERT_LE(o.events.size(), 1u) << g.name << " cut " << cut;
      for (const std::string& event : o.events) EXPECT_EQ(event, g.events[r]);
      for (const Status s : o.ends)
        EXPECT_NE(s, Status::kError) << g.name << " cut " << cut;
      EXPECT_EQ(o.ends.back(), Status::kEof);
      if (cut == g.starts[r]) {
        EXPECT_TRUE(o.events.empty());
      }
    }
    // The whole-prefix view agrees with the record-local one.
    const std::size_t stride = g.bytes.size() / 61 + 1;
    for (std::size_t cut = 0; cut < g.bytes.size(); cut += stride) {
      const ReadOutcome o = read_all(g.bytes.substr(0, cut));
      const std::size_t whole = cut < g.header ? 0 : record_at(g, cut);
      ASSERT_GE(o.events.size(), whole) << g.name << " cut " << cut;
      ASSERT_LE(o.events.size(), whole + 1) << g.name << " cut " << cut;
      for (std::size_t i = 0; i < o.events.size(); ++i)
        EXPECT_EQ(o.events[i], g.events[i]) << g.name << " cut " << cut;
      for (const Status s : o.ends) EXPECT_NE(s, Status::kError);
    }
  }
}

TEST(TraceMutation, EveryByteFlipReadsToTermination) {
  constexpr unsigned char kMasks[] = {0x01, 0x20, 0x80, 0xff};
  for (const Golden& g : goldens()) {
    std::string mutant = g.bytes;
    for (std::size_t at = 0; at < g.bytes.size(); ++at) {
      mutant[at] = static_cast<char>(
          static_cast<unsigned char>(g.bytes[at]) ^ kMasks[at % 4]);
      const std::size_t r = at < g.header ? 0 : record_at(g, at);
      const std::size_t end = g.starts[std::min(r + 2, g.starts.size() - 1)];
      const ReadOutcome o = read_all(tail(g, mutant, g.starts[r], end));
      EXPECT_EQ(o.ends.back(), Status::kEof) << g.name << " byte " << at;
      mutant[at] = g.bytes[at];
    }
  }
}

}  // namespace
}  // namespace glap::trace
