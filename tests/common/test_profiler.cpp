// PhaseProfiler: per-phase accumulation, labels, and which phases the
// reported totals carry.
#include "common/profiler.hpp"

#include <gtest/gtest.h>

namespace glap::prof {
namespace {

const PhaseProfiler::PhaseTotals* find_phase(
    const std::vector<PhaseProfiler::PhaseTotals>& totals,
    std::size_t phase) {
  for (const auto& t : totals)
    if (t.phase == phase) return &t;
  return nullptr;
}

TEST(PhaseProfiler, BuiltinPhasesAlwaysReported) {
  const PhaseProfiler profiler;
  const auto totals = profiler.totals();
  const auto* commit = find_phase(totals, PhaseProfiler::kCommit);
  ASSERT_NE(commit, nullptr);
  EXPECT_EQ(commit->calls, 0u);
  EXPECT_EQ(commit->label, "commit");
  EXPECT_EQ(totals.size(), 1u);
  // Uncalled slot phases stay out of the report.
  EXPECT_EQ(find_phase(totals, PhaseProfiler::kFirstSlot), nullptr);
}

TEST(PhaseProfiler, AccumulatesCallsAndWallTime) {
  PhaseProfiler profiler;
  profiler.record(PhaseProfiler::kFirstSlot, 100);
  profiler.record(PhaseProfiler::kFirstSlot, 250);
  profiler.record(PhaseProfiler::kFirstSlot, 50);

  const auto totals = profiler.totals();
  const auto* slot = find_phase(totals, PhaseProfiler::kFirstSlot);
  ASSERT_NE(slot, nullptr);
  EXPECT_EQ(slot->calls, 3u);
  EXPECT_EQ(slot->wall_ns, 400u);
}

TEST(PhaseProfiler, SetLabelRenamesSlotPhases) {
  PhaseProfiler profiler;
  profiler.set_label(PhaseProfiler::kFirstSlot, "execute.learning");
  profiler.record(PhaseProfiler::kFirstSlot, 7);
  const auto totals = profiler.totals();
  const auto* slot = find_phase(totals, PhaseProfiler::kFirstSlot);
  ASSERT_NE(slot, nullptr);
  EXPECT_EQ(slot->label, "execute.learning");
}

TEST(PhaseProfiler, OutOfRangePhaseIsSilentlyDropped) {
  PhaseProfiler profiler;
  profiler.record(PhaseProfiler::kMaxPhases, 99);
  profiler.record(PhaseProfiler::kMaxPhases + 7, 99);
  EXPECT_EQ(profiler.totals().size(), 1u);  // just commit
}

TEST(PhaseScope, NullProfilerIsANoop) {
  PhaseScope scope(nullptr, PhaseProfiler::kCommit);  // must not crash
}

TEST(PhaseScope, RecordsOneCallWithElapsedTime) {
  PhaseProfiler profiler;
  {
    PhaseScope scope(&profiler, PhaseProfiler::kCommit);
  }
  const auto totals = profiler.totals();
  const auto* commit = find_phase(totals, PhaseProfiler::kCommit);
  ASSERT_NE(commit, nullptr);
  EXPECT_EQ(commit->calls, 1u);
}

}  // namespace
}  // namespace glap::prof
