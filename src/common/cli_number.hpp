// Numbers that come from outside the program: command-line flags and
// arguments of the tools, benches and examples, and the GLAP_BENCH_*
// environment variables. The whole token must parse (std::from_chars), so
// "-1", "abc" and "5x" are usage errors naming the input, never a silent
// wrap-around or a zero.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>

namespace glap::cli {

/// `text` as a decimal integer in [lo, hi]; throws std::invalid_argument
/// naming `flag` for anything else.
inline std::uint64_t parse_uint(std::string_view flag, std::string_view text,
                                std::uint64_t lo, std::uint64_t hi) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || stop != end || value < lo ||
      value > hi)
    throw std::invalid_argument(
        std::string(flag) + " wants an integer in [" + std::to_string(lo) +
        ", " + std::to_string(hi) + "], got '" + std::string(text) + "'");
  return value;
}

namespace detail {
/// True when the whole of `text` is a decimal number, stored in `value`.
inline bool parse_double(std::string_view text, double& value) {
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  return !text.empty() && ec == std::errc() && stop == end;
}
}  // namespace detail

/// `text` as a percentage: a decimal number in [0, 100].
inline double parse_percent(std::string_view flag, std::string_view text) {
  double value = 0.0;
  if (!detail::parse_double(text, value) || !(value >= 0.0 && value <= 100.0))
    throw std::invalid_argument(std::string(flag) +
                                " wants a percentage in [0, 100], got '" +
                                std::string(text) + "'");
  return value;
}

/// `text` as a ratio or factor: a finite, non-negative decimal number.
inline double parse_ratio(std::string_view flag, std::string_view text) {
  double value = 0.0;
  if (!detail::parse_double(text, value) ||
      !(value >= 0.0 && std::isfinite(value)))
    throw std::invalid_argument(std::string(flag) +
                                " wants a non-negative number, got '" +
                                std::string(text) + "'");
  return value;
}

}  // namespace glap::cli
