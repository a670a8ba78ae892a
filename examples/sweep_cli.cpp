// Sweep CLI: run an arbitrary (algorithm, size, ratio, rounds, repeats)
// experiment from the command line and emit per-round metrics as CSV —
// the integration point for plotting the paper's figures with external
// tooling.
//
// Usage: sweep_cli <glap|grmp|ecocloud|pabfd|none> [pms] [ratio] [rounds]
//                  [warmup] [repeats] [seed]
// Output: CSV on stdout (rep,round,active,overloaded,migrations_cum,
//         migration_energy_j) followed by a '#'-prefixed summary.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <stdexcept>

#include "common/cli_number.hpp"
#include "common/csv.hpp"
#include "common/thread_pool.hpp"
#include "harness/sweep.hpp"

using namespace glap;

namespace {

harness::Algorithm parse_algorithm(const char* name) {
  if (!std::strcmp(name, "glap")) return harness::Algorithm::kGlap;
  if (!std::strcmp(name, "grmp")) return harness::Algorithm::kGrmp;
  if (!std::strcmp(name, "ecocloud")) return harness::Algorithm::kEcoCloud;
  if (!std::strcmp(name, "pabfd")) return harness::Algorithm::kPabfd;
  if (!std::strcmp(name, "none")) return harness::Algorithm::kNone;
  std::fprintf(stderr,
               "unknown algorithm '%s' (want glap|grmp|ecocloud|pabfd|none)\n",
               name);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <glap|grmp|ecocloud|pabfd|none> [pms] [ratio] "
                 "[rounds] [warmup] [repeats] [seed]\n",
                 argv[0]);
    return 2;
  }

  harness::ExperimentConfig config;
  config.algorithm = parse_algorithm(argv[1]);
  std::size_t repeats = 1;
  try {
    // Positional argument i, or `fallback` when it is absent.
    auto arg = [&](int i, const char* name, std::uint64_t fallback,
                   std::uint64_t lo, std::uint64_t hi) {
      return argc > i ? cli::parse_uint(name, argv[i], lo, hi) : fallback;
    };
    constexpr std::uint64_t kMaxRound =
        std::numeric_limits<sim::Round>::max();
    config.pm_count = arg(2, "pms", 200, 1, sim::kInvalidNode - 1);
    config.vm_ratio = arg(3, "ratio", 3, 1, sim::kInvalidNode - 1);
    config.rounds =
        static_cast<sim::Round>(arg(4, "rounds", 240, 0, kMaxRound));
    config.warmup_rounds =
        static_cast<sim::Round>(arg(5, "warmup", 240, 0, kMaxRound));
    repeats = arg(6, "repeats", 1, 1, 1000);
    config.seed =
        arg(7, "seed", 42, 0, std::numeric_limits<std::uint64_t>::max());
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "sweep_cli: %s\n", e.what());
    return 2;
  }
  config.fit_glap_phases_to_warmup();

  ThreadPool pool;
  const harness::CellResult cell =
      harness::run_cells({config}, repeats, pool).front();

  CsvWriter csv(std::cout);
  csv.write_row({"rep", "round", "active", "overloaded", "migrations_cum",
                 "migration_energy_j"});
  for (std::size_t rep = 0; rep < cell.runs.size(); ++rep)
    for (const auto& s : cell.runs[rep].rounds)
      csv.write_row_values({static_cast<double>(rep),
                            static_cast<double>(s.round),
                            static_cast<double>(s.active_pms),
                            static_cast<double>(s.overloaded_pms),
                            static_cast<double>(s.migrations_cum),
                            s.migration_energy_j});

  std::printf("# %s: mean_overloaded=%.3f mean_active=%.2f "
              "migrations=%.0f slav=%.3g mig_energy_kj=%.2f\n",
              config.label().c_str(),
              cell.mean_of([](const harness::RunResult& r) {
                return r.mean_overloaded();
              }),
              cell.mean_of([](const harness::RunResult& r) {
                return r.mean_active();
              }),
              cell.mean_of([](const harness::RunResult& r) {
                return static_cast<double>(r.total_migrations);
              }),
              cell.mean_of(
                  [](const harness::RunResult& r) { return r.slav; }),
              cell.mean_of([](const harness::RunResult& r) {
                return r.migration_energy_j / 1000.0;
              }));
  return 0;
}
