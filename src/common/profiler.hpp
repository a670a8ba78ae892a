// Per-phase profiler for the simulation engine (DESIGN.md §10.4): scoped
// timers around the engine's execution phases, one cell per phase.
//
// The profile splits into two halves with different guarantees:
//
//   * phase CALL COUNTS (the commit phase and the per-protocol-slot
//     execute bodies) are a pure function of (config, seed), and part of
//     the metric snapshot identity contract when published;
//   * WALL-CLOCK nanoseconds are host-dependent, so they are reported
//     separately and never enter any bit-identity comparison.
//
// Cost when disabled: instrumented sites hold a PhaseScope over a null
// profiler — two predictable branches, no clock reads.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace glap::prof {

class PhaseProfiler {
 public:
  /// Harness end-of-round trace commit.
  static constexpr std::size_t kCommit = 0;
  /// Protocol slot k's execute body is phase kFirstSlot + k.
  static constexpr std::size_t kFirstSlot = 1;
  static constexpr std::size_t kMaxPhases = 16;

  PhaseProfiler();

  /// Overrides a phase's report label (driver thread, before the run).
  void set_label(std::size_t phase, std::string label);

  [[nodiscard]] static std::uint64_t now_ns() noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  /// Hot path: one call + elapsed time into the phase's cell.
  void record(std::size_t phase, std::uint64_t ns) noexcept {
    if (phase >= kMaxPhases) return;
    Cell& cell = cells_[phase];
    ++cell.calls;
    cell.ns += ns;
  }

  struct PhaseTotals {
    std::size_t phase = 0;
    std::string label;
    std::uint64_t calls = 0;
    std::uint64_t wall_ns = 0;
  };

  /// Commit always appears; slot phases appear once called.
  [[nodiscard]] std::vector<PhaseTotals> totals() const;

 private:
  struct Cell {
    std::uint64_t calls = 0;
    std::uint64_t ns = 0;
  };
  std::array<Cell, kMaxPhases> cells_{};
  std::array<std::string, kMaxPhases> labels_;
};

/// RAII timer: null profiler = disabled (no clock read).
class PhaseScope {
 public:
  PhaseScope(PhaseProfiler* profiler, std::size_t phase) noexcept
      : profiler_(profiler), phase_(phase) {
    if (profiler_ != nullptr) start_ = PhaseProfiler::now_ns();
  }
  ~PhaseScope() {
    if (profiler_ != nullptr)
      profiler_->record(phase_, PhaseProfiler::now_ns() - start_);
  }

  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  PhaseProfiler* profiler_;
  std::size_t phase_;
  std::uint64_t start_ = 0;
};

}  // namespace glap::prof
