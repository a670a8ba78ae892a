// The paper's running-average demand tracker.
//
// Each VM piggybacks a tuple {c, v}: c is how many times its demand has
// been monitored, v the average observed so far. The next sample d(t)
// updates the average as ((c·v) + d(t)) / (c + 1) — exactly the formula in
// §IV-B. GLAP builds its *states* from these averages and its post-action
// outcomes from current demands; that split is what lets it anticipate
// load variation.
#pragma once

#include <cstdint>

#include "common/resources.hpp"

namespace glap::cloud {

/// The paper's fold of sample `demand` into `average`, the running average
/// of `count` earlier samples: ((c·v) + d(t)) / (c + 1). DataCenter's
/// per-VM averages and AverageTracker both call it, so they agree bit for
/// bit.
[[nodiscard]] inline Resources fold_average(const Resources& average,
                                            std::uint64_t count,
                                            const Resources& demand) noexcept {
  const auto c = static_cast<double>(count);
  return (average * c + demand) * (1.0 / (c + 1.0));
}

class AverageTracker {
 public:
  /// Folds one observation into the running average.
  void observe(const Resources& demand) noexcept {
    value_ = fold_average(value_, count_, demand);
    ++count_;
  }

  [[nodiscard]] Resources average() const noexcept { return value_; }
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }

  void reset() noexcept {
    count_ = 0;
    value_ = {};
  }

 private:
  std::uint64_t count_ = 0;
  Resources value_{};
};

}  // namespace glap::cloud
