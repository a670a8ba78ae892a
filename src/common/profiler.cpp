#include "common/profiler.hpp"

#include "common/assert.hpp"

namespace glap::prof {

PhaseProfiler::PhaseProfiler() {
  labels_[kCommit] = "commit";
  for (std::size_t slot = 0; slot + kFirstSlot < kMaxPhases; ++slot)
    labels_[kFirstSlot + slot] = "execute.slot" + std::to_string(slot);
}

void PhaseProfiler::set_label(std::size_t phase, std::string label) {
  GLAP_REQUIRE(phase < kMaxPhases, "profiler phase out of range");
  GLAP_REQUIRE(!label.empty(), "profiler phase label must not be empty");
  labels_[phase] = std::move(label);
}

std::vector<PhaseProfiler::PhaseTotals> PhaseProfiler::totals() const {
  std::vector<PhaseTotals> out;
  for (std::size_t phase = 0; phase < kMaxPhases; ++phase) {
    PhaseTotals total;
    total.phase = phase;
    total.label = labels_[phase];
    total.calls = cells_[phase].calls;
    total.wall_ns = cells_[phase].ns;
    if (total.calls > 0 || phase < kFirstSlot) out.push_back(total);
  }
  return out;
}

}  // namespace glap::prof
