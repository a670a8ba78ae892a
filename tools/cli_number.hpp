// Numeric flag values for the glap-trace and glap-lint command lines. The
// whole token must parse (std::from_chars), so "-1", "abc" and "5x" are
// usage errors naming the flag, never a silent wrap-around or a zero.
#pragma once

#include <charconv>
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

/// `text` as a percentage: a decimal number in [0, 100].
inline double parse_percent(std::string_view flag, std::string_view text) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || stop != end ||
      !(value >= 0.0 && value <= 100.0))
    throw std::invalid_argument(std::string(flag) +
                                " wants a percentage in [0, 100], got '" +
                                std::string(text) + "'");
  return value;
}

}  // namespace glap::cli
