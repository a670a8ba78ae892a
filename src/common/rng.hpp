// Deterministic, splittable pseudo-random number generation.
//
// All stochastic behaviour in the library flows through Rng so that a run
// is a pure function of its seed. Rng wraps xoshiro256++ (public-domain
// algorithm by Blackman & Vigna) seeded through SplitMix64, and satisfies
// the UniformRandomBitGenerator concept so it composes with <random>
// distributions when needed — though the built-in helpers below avoid
// libstdc++'s unspecified distribution algorithms and are reproducible
// across standard libraries.
#pragma once

#include <cstdint>
#include <limits>
#include <string_view>
#include <vector>

#include "common/assert.hpp"

namespace glap {

/// SplitMix64 step; used for seeding and for cheap stateless hashing.
constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Stateless 64-bit mix of two values; used to derive independent
/// sub-seeds, e.g. hash_combine(seed, vm_id) for per-VM trace streams.
constexpr std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b) noexcept {
  std::uint64_t s = a ^ (0x9e3779b97f4a7c15ULL + (b << 6) + (b >> 2));
  return splitmix64(s);
}

/// Hash a short string tag into a 64-bit sub-seed component.
constexpr std::uint64_t hash_tag(std::string_view tag) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : tag) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  std::uint64_t s = h;
  return splitmix64(s);
}

/// xoshiro256++ engine with reproducible helper distributions.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four words of state via SplitMix64 (never all-zero).
  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL) noexcept {
    reseed(seed);
  }

  void reseed(std::uint64_t seed) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  /// Derives an independent generator for a tagged subsystem.
  [[nodiscard]] Rng split(std::uint64_t stream) const noexcept {
    return Rng(hash_combine(state_[0] ^ state_[2], stream));
  }
  [[nodiscard]] Rng split(std::string_view tag) const noexcept {
    return split(hash_tag(tag));
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 bits of precision.
  double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    GLAP_DEBUG_ASSERT(lo <= hi, "uniform bounds inverted");
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, bound) via Lemire's multiply-shift rejection.
  std::uint64_t bounded(std::uint64_t bound) noexcept;

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t range(std::int64_t lo, std::int64_t hi) noexcept {
    GLAP_DEBUG_ASSERT(lo <= hi, "range bounds inverted");
    return lo + static_cast<std::int64_t>(
                    bounded(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p) noexcept { return uniform() < p; }

  /// Standard normal via Marsaglia polar method (reproducible).
  double normal() noexcept;
  double normal(double mean, double stddev) noexcept {
    return mean + stddev * normal();
  }

  /// Gamma(shape, scale=1) via Marsaglia-Tsang; shape > 0.
  double gamma(double shape) noexcept;

  /// Beta(a, b) sample in [0, 1].
  double beta(double a, double b) noexcept;

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      using std::swap;
      swap(v[i - 1], v[bounded(i)]);
    }
  }

  /// Picks a uniformly random element index; container must be non-empty.
  template <typename Container>
  std::size_t pick_index(const Container& c) noexcept {
    GLAP_DEBUG_ASSERT(!c.empty(), "pick_index on empty container");
    return static_cast<std::size_t>(bounded(c.size()));
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4]{};
  bool have_spare_normal_ = false;
  double spare_normal_ = 0.0;
};

}  // namespace glap
