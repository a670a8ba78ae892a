// MetricsRegistry: low-overhead counters, gauges, Welford histograms and
// per-round series that protocols, the DataCenter and the harness publish
// into during a run.
//
// A run is single-threaded (DESIGN.md §8), so every instrument is plain
// storage written in execution order, and the Welford moments are a pure
// function of (config, seed). Instruments live in deques so pointers stay
// stable. Snapshot output (JSON/CSV) iterates names in sorted order, so the
// output never depends on registration order.
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.hpp"

namespace glap::metrics {

/// Monotonic integer counter.
class Counter {
 public:
  void inc(std::uint64_t delta = 1) noexcept { v_ += delta; }
  [[nodiscard]] std::uint64_t value() const noexcept { return v_; }
  void reset() noexcept { v_ = 0; }

 private:
  std::uint64_t v_ = 0;
};

/// Scalar set between rounds or at the end of the run.
class Gauge {
 public:
  void set(double v) noexcept { v_ = v; }
  [[nodiscard]] double value() const noexcept { return v_; }

 private:
  double v_ = 0.0;
};

/// Welford histogram; samples apply in observation order, which is the
/// run's execution order.
class OrderedHistogram {
 public:
  void observe(double v) { stats_.add(v); }

  [[nodiscard]] const RunningStats& stats() const noexcept { return stats_; }

 private:
  RunningStats stats_;
};

/// Per-round time series (one append per round).
class Series {
 public:
  void append(double v) { values_.push_back(v); }
  [[nodiscard]] const std::vector<double>& values() const noexcept {
    return values_;
  }

 private:
  std::vector<double> values_;
};

/// Named instrument registry. get-or-create is a linear name scan (cold
/// path — callers cache the returned pointer); instruments are
/// pointer-stable.
class MetricsRegistry {
 public:
  [[nodiscard]] Counter* counter(std::string_view name);
  [[nodiscard]] Gauge* gauge(std::string_view name);
  [[nodiscard]] OrderedHistogram* histogram(std::string_view name);
  [[nodiscard]] Series* series(std::string_view name);

  /// Full snapshot as a JSON object — counters, gauges, histogram moments,
  /// series — with names in sorted order. Byte-deterministic.
  void write_json(std::ostream& out) const;

  /// All series side by side as CSV (round index + one column per series,
  /// columns name-sorted). Series of different lengths pad with empty cells.
  void write_series_csv(std::ostream& out) const;

 private:
  template <typename T>
  struct Entry {
    std::string name;
    T instrument;
  };
  template <typename T>
  [[nodiscard]] T* get_or_create(std::deque<Entry<T>>& entries,
                                 std::string_view name);

  std::deque<Entry<Counter>> counters_;
  std::deque<Entry<Gauge>> gauges_;
  std::deque<Entry<OrderedHistogram>> histograms_;
  std::deque<Entry<Series>> series_;
};

}  // namespace glap::metrics
