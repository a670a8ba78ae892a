// The paper's evaluation (§V). Fig. 5 runs GLAP's warmup alone; the rest
// is one grid, run once: every cluster size × VM:PM ratio × algorithm,
// each cell's repetitions seeded alike so every algorithm starts from the
// same initial placement. Figs. 6–10 and Table I are all views of that
// one result.
//
// Fig. 5  — cosine similarity of Q-values across PMs per warmup cycle,
//           learning only (WOG) vs learning then gossip aggregation (WG),
//           at the largest configured cluster size.
// Fig. 6  — packing: mean active PMs, the BFD oracle packing of the final
//           round (the paper's "baseline packing without any SLA
//           violation") and the mean overloaded fraction of active PMs.
// Fig. 7  — overloaded PMs sampled at the end of every round of every
//           execution; median / p10 / p90 of the pooled samples.
// Fig. 8  — migrations per round (median / p10 / p90) and run totals.
// Fig. 9  — cumulative migrations over the day, per ratio, at the largest
//           configured cluster size.
// Fig. 10 — energy overhead of migrations (paper Eq. 3), with total PM
//           energy for context.
// Table I — SLAV (SLAVO × SLALM) per size and ratio, and its components.
#include <array>

#include "bench_util.hpp"

using namespace glap;
using bench::Algorithm;
using harness::CellResult;
using harness::RunResult;

namespace {

using Cells = std::vector<CellResult>;

/// Builds one cell per (size × ratio × algorithm), ordered that way.
std::vector<harness::ExperimentConfig> build_cells(
    const harness::BenchScale& scale) {
  std::vector<harness::ExperimentConfig> cells;
  for (std::size_t size : scale.sizes)
    for (std::size_t ratio : scale.ratios)
      for (Algorithm algo : bench::all_algorithms())
        cells.push_back(bench::cell_config(algo, size, ratio, scale));
  return cells;
}

/// Fig. 5's cells: per ratio, GLAP's warmup without (WOG) and with (WG)
/// the aggregation phase, sampling Q-value similarity every round.
std::vector<harness::ExperimentConfig> build_convergence_cells(
    const harness::BenchScale& scale) {
  std::vector<harness::ExperimentConfig> cells;
  for (std::size_t ratio : scale.ratios)
    for (bool with_gossip : {false, true}) {
      harness::ExperimentConfig config = bench::cell_config(
          Algorithm::kGlap, scale.sizes.back(), ratio, scale);
      config.rounds = 1;  // only the warmup (learning) window matters here
      config.track_convergence = true;
      config.convergence_pairs = 64;
      if (!with_gossip) {
        // WOG: all pre-run rounds are learning, none aggregate.
        config.glap.learning_rounds = config.warmup_rounds;
        config.glap.aggregation_rounds = 0;
      }
      cells.push_back(config);
    }
  return cells;
}

/// Plateau = mean similarity over the last 10 warmup rounds;
/// rounds-to-0.999 is the first cycle at or above that similarity.
ConsoleTable convergence(const Cells& results) {
  ConsoleTable table(
      {"ratio", "variant", "plateau", "final", "rounds-to-0.999"});
  for (const auto& cell : results) {
    const auto& series = cell.runs.front().convergence;
    RunningStats tail;
    const std::size_t tail_from =
        series.size() > 10 ? series.size() - 10 : 0;
    for (std::size_t c = tail_from; c < series.size(); ++c)
      tail.add(series[c]);
    std::string to_unity = "-";
    for (std::size_t c = 0; c < series.size(); ++c)
      if (series[c] >= 0.999) {
        to_unity = std::to_string(c + 1);
        break;
      }
    table.add_row({std::to_string(cell.config.vm_ratio),
                   cell.config.glap.aggregation_rounds > 0 ? "WG" : "WOG",
                   format_double(tail.mean(), 3),
                   series.empty() ? "-" : format_double(series.back(), 4),
                   to_unity});
  }
  return table;
}

double total_migrations(const RunResult& r) {
  return static_cast<double>(r.total_migrations);
}

std::string algorithm_name(const CellResult& cell) {
  return std::string(to_string(cell.config.algorithm));
}

ConsoleTable packing(const Cells& results) {
  ConsoleTable table({"cell", "algorithm", "active(mean)", "bfd-oracle",
                      "active/oracle", "overloaded/active"});
  for (const auto& cell : results) {
    const double active =
        cell.mean_of([](const RunResult& r) { return r.mean_active(); });
    const double oracle = cell.mean_of([](const RunResult& r) {
      return static_cast<double>(r.final_bfd_bins);
    });
    const double frac = cell.mean_of(
        [](const RunResult& r) { return r.mean_overloaded_fraction(); });
    table.add_row({bench::cell_label(cell.config), algorithm_name(cell),
                   format_double(active, 1), format_double(oracle, 1),
                   format_double(oracle > 0 ? active / oracle : 0.0, 2),
                   format_double(frac, 3)});
  }
  return table;
}

ConsoleTable overloaded(const Cells& results) {
  ConsoleTable table({"cell", "algorithm", "median", "p10", "p90", "mean"});
  for (const auto& cell : results) {
    const auto summary = cell.pooled_round_summary(
        [](const RunResult& r) { return r.overloaded_series(); });
    table.add_row({bench::cell_label(cell.config), algorithm_name(cell),
                   format_double(summary.median, 1),
                   format_double(summary.p10, 1),
                   format_double(summary.p90, 1),
                   format_double(summary.mean, 2)});
  }
  return table;
}

ConsoleTable migrations(const Cells& results) {
  ConsoleTable table({"cell", "algorithm", "median/rd", "p10", "p90",
                      "total(mean)"});
  for (const auto& cell : results) {
    const auto summary = cell.pooled_round_summary(
        [](const RunResult& r) { return r.migrations_per_round_series(); });
    table.add_row({bench::cell_label(cell.config), algorithm_name(cell),
                   format_double(summary.median, 1),
                   format_double(summary.p10, 1),
                   format_double(summary.p90, 1),
                   format_double(cell.mean_of(total_migrations), 0)});
  }
  return table;
}

/// GLAP's reduction of a per-run metric, summed over cells, against each
/// baseline, next to the paper's percentages for EcoCloud, GRMP and PABFD.
ConsoleTable reductions(const Cells& results,
                        double (*metric)(const RunResult&),
                        const std::array<double, 3>& paper) {
  ConsoleTable table({"vs", "paper", "measured"});
  const Algorithm baselines[] = {Algorithm::kEcoCloud, Algorithm::kGrmp,
                                 Algorithm::kPabfd};
  for (std::size_t b = 0; b < paper.size(); ++b) {
    double glap_sum = 0.0, base_sum = 0.0;
    for (const auto& cell : results) {
      const double mean = cell.mean_of(metric);
      if (cell.config.algorithm == Algorithm::kGlap) glap_sum += mean;
      if (cell.config.algorithm == baselines[b]) base_sum += mean;
    }
    const double reduction =
        base_sum > 0.0 ? 100.0 * (1.0 - glap_sum / base_sum) : 0.0;
    table.add_row({std::string(to_string(baselines[b])),
                   "-" + format_double(paper[b], 0) + "%",
                   format_double(-reduction, 1) + "%"});
  }
  return table;
}

/// Mean cumulative migrations at eight checkpoints across the evaluation
/// window, one row per (ratio, algorithm) of the `size`-PM cells.
ConsoleTable cumulative(const Cells& results, std::size_t size) {
  const std::size_t rounds = results.front().runs.front().rounds.size();
  const std::size_t checkpoints = 8;
  std::vector<std::string> header{"ratio", "algorithm"};
  for (std::size_t c = 1; c <= checkpoints; ++c)
    header.push_back("r" + std::to_string(c * rounds / checkpoints));
  ConsoleTable table(std::move(header));
  for (const auto& cell : results) {
    if (cell.config.pm_count != size) continue;
    std::vector<std::string> row{std::to_string(cell.config.vm_ratio),
                                 algorithm_name(cell)};
    for (std::size_t c = 1; c <= checkpoints; ++c) {
      const std::size_t round = c * rounds / checkpoints - 1;
      const double cum = cell.mean_of([round](const RunResult& r) {
        return static_cast<double>(r.rounds[round].migrations_cum);
      });
      row.push_back(format_double(cum, 0));
    }
    table.add_row(std::move(row));
  }
  return table;
}

ConsoleTable energy(const Cells& results) {
  ConsoleTable table({"cell", "algorithm", "mig-energy(kJ)", "migrations",
                      "J/migration", "pm-energy(MJ)"});
  for (const auto& cell : results) {
    const double joules = cell.mean_of(
        [](const RunResult& r) { return r.migration_energy_j; });
    const double migs = cell.mean_of(total_migrations);
    const double total =
        cell.mean_of([](const RunResult& r) { return r.total_energy_j; });
    table.add_row({bench::cell_label(cell.config), algorithm_name(cell),
                   format_double(joules / 1000.0, 2), format_double(migs, 0),
                   format_double(migs > 0 ? joules / migs : 0.0, 1),
                   format_double(total / 1e6, 2)});
  }
  return table;
}

/// One row per (size, ratio), one column per algorithm: the cells come
/// ordered size, ratio, algorithm, so each row is a run of
/// `all_algorithms().size()` consecutive cells.
ConsoleTable slav(const Cells& results) {
  const auto& algorithms = bench::all_algorithms();
  std::vector<std::string> header{"cell"};
  for (Algorithm algo : algorithms) header.emplace_back(to_string(algo));
  ConsoleTable table(std::move(header));
  for (std::size_t i = 0; i < results.size(); i += algorithms.size()) {
    std::vector<std::string> row{bench::cell_label(results[i].config)};
    for (std::size_t a = 0; a < algorithms.size(); ++a)
      row.push_back(format_compact(
          results[i + a].mean_of([](const RunResult& r) { return r.slav; })));
    table.add_row(std::move(row));
  }
  return table;
}

ConsoleTable slav_components(const Cells& results) {
  ConsoleTable table({"cell", "algorithm", "SLAVO", "SLALM", "SLAV"});
  for (const auto& cell : results)
    table.add_row(
        {bench::cell_label(cell.config), algorithm_name(cell),
         format_compact(
             cell.mean_of([](const RunResult& r) { return r.slavo; })),
         format_compact(
             cell.mean_of([](const RunResult& r) { return r.slalm; })),
         format_compact(
             cell.mean_of([](const RunResult& r) { return r.slav; }))});
  return table;
}

}  // namespace

int main() {
  const char* title = "Paper evaluation — Figs. 5–10 and Table I";
  const harness::BenchScale scale = bench::scale_from_env();
  bench::print_bench_header(title, scale);

  ThreadPool pool;
  const Cells converging =
      harness::run_cells(build_convergence_cells(scale), 1, pool);
  const Cells results =
      harness::run_cells(build_cells(scale), scale.repetitions, pool);

  harness::BenchReport report("paper_sweep", title);
  report.set_scale(scale);
  // Prints one table under its title, mirrors it into the report, and
  // prints the paper's expected shape when given one.
  auto emit = [&](const std::string& heading, const char* name,
                  const ConsoleTable& table, const char* shape) {
    bench::emit(report, heading, name, table,
                shape != nullptr
                    ? std::string("expected shape (paper): ") + shape
                    : "");
  };

  const std::string largest = std::to_string(scale.sizes.back()) + " PMs";
  emit("Fig. 5 — Q-value convergence, " + largest +
           " (WOG = learning only, WG = learning + gossip aggregation)",
       "convergence", convergence(converging),
       "WOG plateaus well below 1 for every ratio; WG converges rapidly to "
       "1.0 once aggregation starts.");
  emit("Fig. 6 — active PMs vs BFD baseline, overloaded fraction", "packing",
       packing(results),
       "overloaded/active ordering GLAP < EcoCloud < PABFD < GRMP; GRMP and "
       "PABFD pack at/below the oracle, GLAP and EcoCloud slightly above "
       "it.");
  emit("Fig. 7 — overloaded PMs per round (median, p10, p90)", "overloaded",
       overloaded(results), nullptr);
  emit("Fig. 7 — GLAP overload reduction vs each baseline (mean over cells, "
       "by mean overloaded count)",
       "overload_reductions",
       reductions(results,
                  [](const RunResult& r) { return r.mean_overloaded(); },
                  {43.0, 78.0, 73.0}),
       "GLAP smallest everywhere; GRMP worst; stable across sizes and "
       "ratios.");
  emit("Fig. 8 — migrations per round (median, p10, p90) and totals",
       "migrations", migrations(results), nullptr);
  emit("Fig. 8 — GLAP migration reduction vs each baseline",
       "migration_reductions",
       reductions(results, total_migrations, {23.0, 37.0, 70.0}),
       "GLAP fewest migrations, PABFD by far the most; totals grow with the "
       "workload ratio.");
  emit("Fig. 9 — cumulative migrations over time, " + largest, "cumulative",
       cumulative(results, scale.sizes.back()),
       "distributed algorithms (GLAP, EcoCloud, GRMP) are concave — most "
       "migrations early; PABFD keeps migrating at a near-constant rate "
       "(linear).");
  emit("Fig. 10 — migration energy overhead (Eq. 3)", "energy",
       energy(results),
       "migration-energy ordering GLAP lowest, PABFD highest; energy tracks "
       "migration count but not proportionally (τ varies with resident "
       "memory).");
  emit("Table I — SLAV per size and ratio", "slav", slav(results), nullptr);
  emit("Table I — per-component means (SLAVO = overload time share, SLALM = "
       "migration degradation)",
       "slav_components", slav_components(results),
       "SLAV ordering GLAP < EcoCloud < PABFD < GRMP in each cell; SLAV grows "
       "with the ratio.");
  report.write();
  return 0;
}
