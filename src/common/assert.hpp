// Lightweight contract-checking macros used across the library.
//
// GLAP_REQUIRE is always on (checks user-facing API preconditions and
// throws std::invalid_argument / std::logic_error style errors).
// GLAP_ASSERT compiles to a cheap check in all build types; internal
// invariants in hot loops should prefer GLAP_DEBUG_ASSERT which vanishes
// in release builds.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace glap {

/// Thrown when a documented API precondition is violated.
class precondition_error : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Thrown when an internal invariant is violated (indicates a bug).
class invariant_error : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

namespace detail {
/// Flight-recorder hook (common/flight_recorder.hpp): on the thread that
/// armed an active CrashDumpScope this points at its dump routine, so a
/// failed contract check leaves a post-mortem trace before the exception
/// propagates. Per thread, so a failure dumps only the ring its own
/// thread armed; null wherever no recorder is armed.
inline thread_local void (*fatal_hook)(const char* what) = nullptr;

inline void notify_fatal(const std::string& what) {
  if (fatal_hook != nullptr) fatal_hook(what.c_str());
}

[[noreturn]] inline void throw_precondition(const char* expr, const char* file,
                                            int line, const std::string& msg) {
  std::ostringstream os;
  os << "precondition failed: (" << expr << ") at " << file << ':' << line;
  if (!msg.empty()) os << " — " << msg;
  notify_fatal(os.str());
  throw precondition_error(os.str());
}

[[noreturn]] inline void throw_invariant(const char* expr, const char* file,
                                         int line, const std::string& msg) {
  std::ostringstream os;
  os << "invariant failed: (" << expr << ") at " << file << ':' << line;
  if (!msg.empty()) os << " — " << msg;
  notify_fatal(os.str());
  throw invariant_error(os.str());
}
}  // namespace detail

}  // namespace glap

#define GLAP_REQUIRE(expr, msg)                                         \
  do {                                                                  \
    if (!(expr))                                                        \
      ::glap::detail::throw_precondition(#expr, __FILE__, __LINE__,     \
                                         (msg));                        \
  } while (false)

#define GLAP_ASSERT(expr, msg)                                          \
  do {                                                                  \
    if (!(expr))                                                        \
      ::glap::detail::throw_invariant(#expr, __FILE__, __LINE__, (msg)); \
  } while (false)

#ifdef NDEBUG
#define GLAP_DEBUG_ASSERT(expr, msg) ((void)0)
#else
#define GLAP_DEBUG_ASSERT(expr, msg) GLAP_ASSERT(expr, msg)
#endif

// GLAP_HOT_REQUIRE guards preconditions on per-round hot paths (e.g.
// Engine::protocol_at bounds checks). It is GLAP_REQUIRE unless the build
// turns hot-path checks off (CMake -DGLAP_ENABLE_CHECKS=OFF, which defines
// GLAP_NO_HOT_CHECKS — intended for optimized bench/Release builds; keep
// checks ON in Debug and CI). Cold-path validation stays on GLAP_REQUIRE
// in every configuration.
#ifdef GLAP_NO_HOT_CHECKS
#define GLAP_HOT_REQUIRE(expr, msg) ((void)0)
#else
#define GLAP_HOT_REQUIRE(expr, msg) GLAP_REQUIRE(expr, msg)
#endif

// GLAP_ENABLE_CHECKS is the CMake option's name and is never defined for
// the compiler: a C++ guard on it would silently take the same branch in
// every build. Poisoned, any use after this header fails to compile
// (tests/fixtures/compile/enable_checks_guard.cpp); guard on
// GLAP_NO_HOT_CHECKS instead.
#pragma GCC poison GLAP_ENABLE_CHECKS
