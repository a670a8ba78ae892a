// The two reward systems of GLAP (paper §IV-A). The reward of a transition
// is the sum over resources of the per-level reward of the *post-action*
// state ("the total reward of any transition from s to s' is aggregation
// rewards of each resource").
//
// Reward OUT: every level earns a positive reward, strictly decreasing
// with utilization (r_L > r_M > … > r_O > 0) — transitions toward
// emptiness pay more, pushing senders to drain quickly.
//
// Reward IN: positive and increasing toward (but not including) Overload
// — recipients should be "avaricious" — with a strongly negative reward
// for landing in Overload (r_O ≪ 0).
#pragma once

#include "qlearn/levels.hpp"

namespace glap::core {

inline constexpr double kOutBase = 9.0;  ///< reward of Low for OUT
inline constexpr double kOutStep = 1.0;  ///< per-level OUT decrement
inline constexpr double kInBase = 1.0;   ///< reward of Low for IN
inline constexpr double kInStep = 1.0;   ///< per-level IN increment
inline constexpr double kInOverload = -300.0;  ///< r_O for IN (≪ 0)

/// Per-resource sender reward of landing on `level`.
[[nodiscard]] constexpr double out_level_reward(qlearn::Level level) noexcept {
  return kOutBase - kOutStep * static_cast<double>(qlearn::level_index(level));
}

/// Per-resource recipient reward of landing on `level`.
[[nodiscard]] constexpr double in_level_reward(qlearn::Level level) noexcept {
  if (level == qlearn::Level::kOverload) return kInOverload;
  return kInBase + kInStep * static_cast<double>(qlearn::level_index(level));
}

/// Transition rewards: sum of per-resource level rewards of `next`.
[[nodiscard]] constexpr double out_reward(qlearn::LevelPair next) noexcept {
  return out_level_reward(next.cpu) + out_level_reward(next.mem);
}
[[nodiscard]] constexpr double in_reward(qlearn::LevelPair next) noexcept {
  return in_level_reward(next.cpu) + in_level_reward(next.mem);
}

static_assert(kOutStep > 0.0 &&
                  out_level_reward(qlearn::Level::kOverload) > 0.0,
              "reward OUT must fall strictly and stay positive (r_O > 0)");
static_assert(kInBase > 0.0 && kInStep > 0.0,
              "reward IN must be positive and rise up to 5xHigh");
static_assert(in_level_reward(qlearn::Level::kOverload) < 0.0,
              "reward IN at Overload must be negative");

}  // namespace glap::core
