#include "cloud/topology.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace glap::cloud {

RackTopology::RackTopology(std::size_t pm_count, std::size_t rack_size,
                           double switch_watts)
    : pm_count_(pm_count),
      rack_size_(rack_size),
      // Guard the division: the REQUIREs below report the real error.
      racks_(rack_size ? (pm_count + rack_size - 1) / rack_size : 0),
      switch_watts_(switch_watts) {
  GLAP_REQUIRE(pm_count > 0, "topology needs at least one PM");
  GLAP_REQUIRE(rack_size > 0, "rack size must be positive");
  GLAP_REQUIRE(switch_watts >= 0.0, "switch power must be non-negative");
}

RackId RackTopology::rack_of(PmId pm) const {
  GLAP_REQUIRE(pm < pm_count_, "pm id out of range");
  return static_cast<RackId>(pm / rack_size_);
}

std::ranges::iota_view<PmId, PmId> RackTopology::members(RackId rack) const {
  GLAP_REQUIRE(rack < racks_, "rack id out of range");
  const std::size_t begin = rack * rack_size_;
  const std::size_t end = std::min(pm_count_, begin + rack_size_);
  return std::views::iota(static_cast<PmId>(begin), static_cast<PmId>(end));
}

std::size_t RackTopology::active_racks(const DataCenter& dc) const {
  GLAP_REQUIRE(dc.pm_count() == pm_count_, "topology/data-center mismatch");
  std::size_t active = 0;
  for (RackId r = 0; r < racks_; ++r) {
    for (PmId p : members(r)) {
      if (dc.pm_on(p)) {
        ++active;
        break;
      }
    }
  }
  return active;
}

double RackTopology::rack_load(const DataCenter& dc, RackId rack) const {
  GLAP_REQUIRE(dc.pm_count() == pm_count_, "topology/data-center mismatch");
  double sum = 0.0;
  std::size_t on = 0;
  for (PmId p : members(rack)) {
    if (!dc.pm_on(p)) continue;
    sum += dc.average_utilization(p).sum();
    ++on;
  }
  return on ? sum / static_cast<double>(on) : 0.0;
}

}  // namespace glap::cloud
