// Rack topology — the substrate for the paper's second future-work item
// ("extend the algorithm to be aware of the network topology such that it
// will switch off network switches, an important factor of energy
// consumption in cloud data centers").
//
// PMs are grouped into fixed racks, each behind a top-of-rack switch that
// draws power while *any* PM in the rack is awake and can be switched off
// once the whole rack sleeps. Rack-aware consolidation therefore wants to
// empty PMs rack-by-rack, not uniformly.
#pragma once

#include <cstdint>
#include <ranges>

#include "cloud/datacenter.hpp"

namespace glap::cloud {

using RackId = std::uint32_t;

class RackTopology {
 public:
  /// Power draw of one live top-of-rack switch in the experiments.
  static constexpr double kSwitchWatts = 150.0;

  /// Groups `pm_count` PMs into consecutive racks of `rack_size` (the
  /// last rack may be smaller).
  RackTopology(std::size_t pm_count, std::size_t rack_size,
               double switch_watts = kSwitchWatts);

  [[nodiscard]] RackId rack_of(PmId pm) const;
  [[nodiscard]] std::size_t rack_count() const noexcept { return racks_; }
  [[nodiscard]] std::size_t rack_size() const noexcept { return rack_size_; }
  [[nodiscard]] double switch_watts() const noexcept { return switch_watts_; }

  /// PMs in `rack`: ids are consecutive by construction, so this is the
  /// range [first, last) and allocates nothing.
  [[nodiscard]] std::ranges::iota_view<PmId, PmId> members(RackId rack) const;

  /// Racks with at least one powered-on PM — each costs a live switch.
  [[nodiscard]] std::size_t active_racks(const DataCenter& dc) const;

  /// Mean *average* utilization (sum of cpu+mem components) over the
  /// rack's powered-on PMs; 0 when the whole rack sleeps. The rack-aware
  /// consolidation drain rule keys on this.
  [[nodiscard]] double rack_load(const DataCenter& dc, RackId rack) const;

  /// Switch energy for one interval: `active` racks (active_racks'
  /// count) × switch power × dt.
  [[nodiscard]] double switch_energy_joules(std::size_t active,
                                            double dt_seconds) const {
    return static_cast<double>(active) * switch_watts_ * dt_seconds;
  }

 private:
  std::size_t pm_count_;
  std::size_t rack_size_;
  std::size_t racks_;
  double switch_watts_;
};

}  // namespace glap::cloud
