// Message/byte accounting for the simulated gossip traffic. Protocols call
// count_message for every simulated exchange so that the harness can report
// communication overhead alongside the paper's metrics.
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/node.hpp"

namespace glap::sim {

class NetworkStats {
 public:
  void count_message(NodeId from, NodeId to, std::size_t bytes) noexcept {
    (void)from;
    (void)to;
    ++messages_;
    bytes_ += bytes;
  }

  void reset() noexcept {
    messages_ = 0;
    bytes_ = 0;
  }

  [[nodiscard]] std::uint64_t messages() const noexcept { return messages_; }
  [[nodiscard]] std::uint64_t bytes() const noexcept { return bytes_; }

 private:
  std::uint64_t messages_ = 0;
  std::uint64_t bytes_ = 0;
};

}  // namespace glap::sim
