// Always-on flight recorder (DESIGN.md §10.7): a bounded in-memory ring
// holding the GTB-encoded trace of the last N committed rounds, kept even
// when file tracing is off. When a run dies — a GLAP_REQUIRE/GLAP_ASSERT
// contract failure or a fatal signal — the ring is dumped as a valid GTB
// trace (plus the current metric snapshot when a registry is attached),
// so every CI failure and fault-injection run leaves a post-mortem
// artifact that `glap-trace` can analyze.
//
// The recorder buckets bytes per round: TraceLog::begin_round() seals the
// previous bucket and `append` extends the current one, so the ring always
// holds whole committed rounds and a dump is a parseable record stream.
// Events of the crashing round that were still sitting in the round
// buffer (not yet committed) are not recoverable — the dump ends at the
// last commit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace glap::metrics {
class MetricsRegistry;
}

namespace glap::flight {

class FlightRecorder {
 public:
  /// Default ring depth (rounds retained).
  static constexpr std::size_t kDefaultRounds = 8;

  explicit FlightRecorder(std::size_t max_rounds = kDefaultRounds);

  /// Seals the previous round's bucket and starts a new one (evicting the
  /// oldest bucket once the ring is full).
  void begin_round(std::uint64_t round);

  /// Appends GTB record bytes to the current round's bucket.
  void append(const char* data, std::size_t size);

  /// Attaches the registry whose snapshot joins every dump (not owned).
  void set_registry(const metrics::MetricsRegistry* registry) noexcept {
    registry_ = registry;
  }

  /// Writes a GTB header plus the retained rounds to `path`; when a
  /// registry is attached, its JSON snapshot lands at
  /// `<path>.metrics.json`. Returns false on I/O failure.
  [[nodiscard]] bool dump(const std::string& path) const;

  /// Signal-context dump: writes the header and retained buckets to an
  /// already-open fd with no allocation. Best-effort — a signal landing
  /// mid-append can leave the newest bucket truncated mid-record, which
  /// the truncation-tolerant TraceReader still parses up to that point.
  void dump_to_fd(int fd) const noexcept;

  [[nodiscard]] std::size_t max_rounds() const noexcept {
    return ring_.size();
  }
  /// Rounds currently retained (≤ max_rounds).
  [[nodiscard]] std::size_t rounds_retained() const noexcept;
  /// Round number of the oldest retained bucket (0 when empty).
  [[nodiscard]] std::uint64_t oldest_round() const noexcept;

 private:
  struct Bucket {
    std::uint64_t round = 0;
    bool used = false;
    std::string bytes;
  };

  /// Oldest-first bucket visit order.
  template <typename Fn>
  void for_each_bucket(Fn&& fn) const {
    for (std::size_t i = 1; i <= ring_.size(); ++i) {
      const Bucket& b = ring_[(cursor_ + i) % ring_.size()];
      if (b.used) fn(b);
    }
  }

  std::vector<Bucket> ring_;
  std::size_t cursor_ = 0;  ///< index of the current (open) bucket
  bool any_ = false;
  const metrics::MetricsRegistry* registry_ = nullptr;
};

/// RAII activation of crash dumping for one run: while alive, the
/// fatal-signal handlers (SIGSEGV, SIGABRT, SIGBUS, SIGFPE, SIGILL) and,
/// on the constructing thread, the assertion hook (common/assert.hpp)
/// dump `recorder` to `path`. Process-wide and non-reentrant: the first
/// scope claims the handlers atomically and any concurrent scope — on any
/// thread — is a no-op.
class CrashDumpScope {
 public:
  CrashDumpScope(FlightRecorder* recorder, const std::string& path);
  ~CrashDumpScope();

  CrashDumpScope(const CrashDumpScope&) = delete;
  CrashDumpScope& operator=(const CrashDumpScope&) = delete;

  /// True when this scope owns the process-wide hook installation.
  [[nodiscard]] bool active() const noexcept { return active_; }

 private:
  bool active_ = false;
};

}  // namespace glap::flight
