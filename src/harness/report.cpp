#include "harness/report.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "common/assert.hpp"
#include "common/json.hpp"

namespace glap::harness {

BenchReport::BenchReport(std::string bench, std::string title)
    : bench_(std::move(bench)), title_(std::move(title)) {}

void BenchReport::add_table(const std::string& name,
                            std::vector<std::string> columns,
                            std::vector<std::vector<std::string>> rows) {
  for (const auto& row : rows)
    GLAP_REQUIRE(row.size() == columns.size(),
                 "report table row width must match its columns");
  tables_.push_back({name, std::move(columns), std::move(rows)});
}

void BenchReport::add_headline(const std::string& key,
                               const std::string& value) {
  headlines_.emplace_back(key, value);
}

std::string BenchReport::results_dir() {
  const char* env = std::getenv("GLAP_RESULTS_DIR");
  return env != nullptr && *env != '\0' ? env : "results";
}

std::string BenchReport::write() const {
  const std::filesystem::path dir(results_dir());
  std::filesystem::create_directories(dir);
  const std::filesystem::path path = dir / (bench_ + ".json");

  std::ofstream out(path);
  GLAP_REQUIRE(out.is_open(), "cannot open bench results file for writing");
  JsonWriter w(out);
  w.begin_object();
  w.member("bench", bench_);
  w.member("title", title_);
  w.key("scale").begin_object();
  w.key("sizes").begin_array();
  for (const std::size_t s : scale_.sizes) w.value(std::uint64_t{s});
  w.end_array();
  w.key("ratios").begin_array();
  for (const std::size_t r : scale_.ratios) w.value(std::uint64_t{r});
  w.end_array();
  w.member("repetitions", std::uint64_t{scale_.repetitions});
  w.member("rounds", std::uint64_t{scale_.rounds});
  w.member("warmup_rounds", std::uint64_t{scale_.warmup_rounds});
  w.end_object();
  w.key("tables").begin_array();
  for (const Table& t : tables_) {
    w.begin_object();
    w.member("name", t.name);
    w.key("columns").begin_array();
    for (const auto& c : t.columns) w.value(c);
    w.end_array();
    w.key("rows").begin_array();
    for (const auto& row : t.rows) {
      w.begin_array();
      for (const auto& cell : row) w.value(cell);
      w.end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.key("headlines").begin_object();
  for (const auto& [key, value] : headlines_) w.member(key, value);
  w.end_object();
  w.end_object();
  out << '\n';
  out.flush();
  GLAP_REQUIRE(out.good(), "write to '" + path.string() + "' failed");

  std::printf("[results] wrote %s\n", path.string().c_str());
  return path.string();
}

}  // namespace glap::harness
