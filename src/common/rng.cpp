#include "common/rng.hpp"

#include <cmath>

namespace glap {

std::uint64_t Rng::bounded(std::uint64_t bound) noexcept {
  GLAP_DEBUG_ASSERT(bound > 0, "bounded(0) is undefined");
  // Lemire's nearly-divisionless method with rejection for exact uniformity.
  std::uint64_t x = (*this)();
  unsigned __int128 m = static_cast<unsigned __int128>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (lo < threshold) {
      x = (*this)();
      m = static_cast<unsigned __int128>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::normal() noexcept {
  if (have_spare_normal_) {
    have_spare_normal_ = false;
    return spare_normal_;
  }
  double u, v, s;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  spare_normal_ = v * factor;
  have_spare_normal_ = true;
  return u * factor;
}

double Rng::gamma(double shape) noexcept {
  GLAP_DEBUG_ASSERT(shape > 0, "gamma shape must be positive");
  if (shape < 1.0) {
    // Boost to shape+1 and scale back (Marsaglia-Tsang trick).
    const double u = uniform();
    return gamma(shape + 1.0) * std::pow(u, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x, v;
    do {
      x = normal();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = uniform();
    if (u < 1.0 - 0.0331 * (x * x) * (x * x)) return d * v;
    if (u > 0.0 && std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v)))
      return d * v;
  }
}

double Rng::beta(double a, double b) noexcept {
  const double x = gamma(a);
  const double y = gamma(b);
  const double sum = x + y;
  return sum > 0.0 ? x / sum : 0.5;
}

}  // namespace glap
