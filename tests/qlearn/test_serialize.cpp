#include "qlearn/serialize.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace glap::qlearn {
namespace {

TEST(Serialize, RoundTripPreservesEveryEntry) {
  QTable table;
  Rng rng(1);
  for (int i = 0; i < 300; ++i) {
    const auto s = State::from_index(
        static_cast<std::uint16_t>(rng.bounded(kLevelPairCount)));
    const auto a = Action::from_index(
        static_cast<std::uint16_t>(rng.bounded(kLevelPairCount)));
    table.set(s, a, rng.uniform(-300.0, 20.0));
  }
  std::ostringstream os;
  save_qtable(table, os);
  std::istringstream in(os.str());
  const QTable loaded = load_qtable(in);
  ASSERT_EQ(loaded.size(), table.size());
  for (const auto& [key, q] : table.entries()) {
    const State s = QTable::state_of(key);
    const Action a = QTable::action_of(key);
    EXPECT_TRUE(loaded.contains(s, a));
    EXPECT_DOUBLE_EQ(loaded.value(s, a), q);
  }
}

TEST(Serialize, EmptyTableRoundTrips) {
  QTable table;
  std::ostringstream os;
  save_qtable(table, os);
  std::istringstream in(os.str());
  EXPECT_TRUE(load_qtable(in).empty());
}

TEST(Serialize, OutputIsSortedAndHumanReadable) {
  QTable table;
  table.set({Level::kHigh, Level::kLow}, {Level::kMedium, Level::kLow}, 2.5);
  table.set({Level::kLow, Level::kLow}, {Level::kLow, Level::kLow}, -1.0);
  std::ostringstream os;
  save_qtable(table, os);
  const std::string text = os.str();
  // The Low/Low entry sorts before High/Low (smaller key).
  EXPECT_LT(text.find("Low,Low,Low,Low,-1"), text.find("High,Low,Medium"));
  EXPECT_NE(text.find("state_cpu"), std::string::npos);
}

TEST(Serialize, LevelNameParsing) {
  EXPECT_EQ(level_from_string("Low"), Level::kLow);
  EXPECT_EQ(level_from_string("5xHigh"), Level::k5xHigh);
  EXPECT_EQ(level_from_string("Overload"), Level::kOverload);
  EXPECT_THROW((void)level_from_string("Bogus"), precondition_error);
}

TEST(Serialize, MalformedInputRejected) {
  std::istringstream bad_header("a,b,c\n");
  EXPECT_THROW(load_qtable(bad_header), precondition_error);
  std::istringstream bad_row(
      "state_cpu,state_mem,action_cpu,action_mem,q\nLow,Low,Low\n");
  EXPECT_THROW(load_qtable(bad_row), precondition_error);
  std::istringstream bad_level(
      "state_cpu,state_mem,action_cpu,action_mem,q\nNope,Low,Low,Low,1\n");
  EXPECT_THROW(load_qtable(bad_level), precondition_error);
}

// Golden-bytes test: the CSV wire format is a compatibility surface
// (saved policies from older runs must keep loading), so pin the exact
// serialized bytes for a fixed table and require load→save to reproduce
// them identically. Any storage-layer change that reorders rows or
// reformats values shows up here as a diff.
TEST(Serialize, GoldenBytesRoundTripExactly) {
  const std::string golden =
      "state_cpu,state_mem,action_cpu,action_mem,q\n"
      "Low,Low,Low,Low,2.5\n"
      "Low,Medium,High,Overload,-0.75\n"
      "xHigh,2xHigh,3xHigh,4xHigh,0.10000000000000001\n"
      "Overload,Overload,5xHigh,xHigh,42\n";

  // Insert in scrambled order; output must come out key-sorted.
  QTable table;
  table.set({Level::kOverload, Level::kOverload},
            {Level::k5xHigh, Level::kXHigh}, 42.0);
  table.set({Level::kLow, Level::kMedium},
            {Level::kHigh, Level::kOverload}, -0.75);
  table.set({Level::kXHigh, Level::k2xHigh},
            {Level::k3xHigh, Level::k4xHigh}, 0.1);
  table.set({Level::kLow, Level::kLow}, {Level::kLow, Level::kLow}, 2.5);

  std::ostringstream saved;
  save_qtable(table, saved);
  EXPECT_EQ(saved.str(), golden);

  std::istringstream in(golden);
  const QTable loaded = load_qtable(in);
  std::ostringstream resaved;
  save_qtable(loaded, resaved);
  EXPECT_EQ(resaved.str(), golden);
}

TEST(Serialize, PreservesExtremePrecision) {
  QTable table;
  table.set({Level::kLow, Level::kLow}, {Level::kLow, Level::kLow},
            0.12345678901234567);
  std::ostringstream os;
  save_qtable(table, os);
  std::istringstream in(os.str());
  const QTable loaded = load_qtable(in);
  EXPECT_DOUBLE_EQ(
      loaded.value({Level::kLow, Level::kLow}, {Level::kLow, Level::kLow}),
      0.12345678901234567);
}

}  // namespace
}  // namespace glap::qlearn
