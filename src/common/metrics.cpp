#include "common/metrics.hpp"

#include <algorithm>
#include <ostream>

#include "common/csv.hpp"
#include "common/json.hpp"

namespace glap::metrics {

template <typename T>
T* MetricsRegistry::get_or_create(std::deque<Entry<T>>& entries,
                                  std::string_view name) {
  for (auto& e : entries) {
    if (e.name == name) return &e.instrument;
  }
  entries.push_back({std::string(name), T{}});
  return &entries.back().instrument;
}

Counter* MetricsRegistry::counter(std::string_view name) {
  return get_or_create(counters_, name);
}
Gauge* MetricsRegistry::gauge(std::string_view name) {
  return get_or_create(gauges_, name);
}
OrderedHistogram* MetricsRegistry::histogram(std::string_view name) {
  return get_or_create(histograms_, name);
}
Series* MetricsRegistry::series(std::string_view name) {
  return get_or_create(series_, name);
}

namespace {

template <typename T, typename Fn>
void write_sorted(JsonWriter& w, std::string_view section,
                  const std::deque<T>& entries, Fn&& emit) {
  std::vector<const T*> sorted;
  sorted.reserve(entries.size());
  for (const auto& e : entries) sorted.push_back(&e);
  std::sort(sorted.begin(), sorted.end(),
            [](const T* a, const T* b) { return a->name < b->name; });
  w.key(section).begin_object();
  for (const T* e : sorted) {
    w.key(e->name);
    emit(*e);
  }
  w.end_object();
}

}  // namespace

void MetricsRegistry::write_json(std::ostream& out) const {
  JsonWriter w(out);
  w.begin_object();
  write_sorted(w, "counters", counters_,
               [&](const auto& e) { w.value(e.instrument.value()); });
  write_sorted(w, "gauges", gauges_,
               [&](const auto& e) { w.value(e.instrument.value()); });
  write_sorted(w, "histograms", histograms_, [&](const auto& e) {
    const RunningStats& s = e.instrument.stats();
    w.begin_object()
        .member("count", s.count())
        .member("mean", s.mean())
        .member("stddev", s.stddev())
        .member("min", s.min())
        .member("max", s.max())
        .member("sum", s.sum())
        .end_object();
  });
  write_sorted(w, "series", series_, [&](const auto& e) {
    w.begin_array();
    for (const double v : e.instrument.values()) w.value(v);
    w.end_array();
  });
  w.end_object();
  out << '\n';
}

void MetricsRegistry::write_series_csv(std::ostream& out) const {
  std::vector<const Entry<Series>*> sorted;
  sorted.reserve(series_.size());
  for (const auto& e : series_) sorted.push_back(&e);
  std::sort(sorted.begin(), sorted.end(),
            [](const auto* a, const auto* b) { return a->name < b->name; });

  CsvWriter csv(out);
  std::vector<std::string> header{"round"};
  std::size_t rows = 0;
  for (const auto* e : sorted) {
    header.push_back(e->name);
    rows = std::max(rows, e->instrument.values().size());
  }
  csv.write_row(header);
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<std::string> row{std::to_string(r)};
    for (const auto* e : sorted) {
      const auto& vals = e->instrument.values();
      row.push_back(r < vals.size() ? json_double(vals[r]) : std::string());
    }
    csv.write_row(row);
  }
}

}  // namespace glap::metrics
