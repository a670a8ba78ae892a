// Simulated time. Each gossip round mimics two minutes of data-centre time
// (paper §V), so a simulated day is 720 rounds. The cloud's energy and SLA
// integrals, the network model's delay arithmetic and the diurnal workload
// period all derive from the one round length declared here.
#pragma once

#include <cstdint>

namespace glap {

/// Simulated seconds per round.
inline constexpr double kRoundSeconds = 120.0;

/// Rounds per simulated day: the period of the diurnal workload archetype.
inline constexpr std::uint32_t kRoundsPerDay =
    static_cast<std::uint32_t>(86400.0 / kRoundSeconds);

static_assert(86400.0 / kRoundSeconds == kRoundsPerDay,
              "a simulated day must be a whole number of rounds");

}  // namespace glap
