// The experiments beyond the paper's evaluation (DESIGN.md §7), run as one
// batch: every experiment's cells are built up front and run on one thread
// pool, one harness::run_cells call per repetition count, and each
// experiment's table lands in results/extensions.json.
//
// variants   — GLAP's two central design choices (DESIGN.md §3) removed one
//              at a time: the average/current state split and the
//              aggregation phase.
// substrate  — GLAP over Cyclon vs Newscast; PABFD with its MAD (the
//              paper's), IQR and local-regression threshold estimators.
// burstiness — paper §VI future work: the bursty/spiky archetype share of
//              the workload mix raised from the default to almost all.
// racks      — paper §VI future work: rack-aware GLAP (same-rack gossip
//              affinity) on a rack topology whose switches power down only
//              when their whole rack sleeps.
// adversity  — GLAP, GRMP and EcoCloud on the ideal transport, on the
//              modeled fabric (DESIGN.md §13), and at 0.1% / 1% / 5% loss;
//              headline: GLAP's active-PM cost of 1% loss.
// churn      — VM arrivals and departures, with GLAP's re-learning oracle
//              (§IV-B) on and off.
// fleet      — a mixed G4/G5 server fleet hosting mixed VM sizes.
// traffic    — control-plane messages per protocol as the cluster grows.
// counts     — per-phase engine call counts (DESIGN.md §10.4).
#include <cstddef>
#include <functional>
#include <iterator>
#include <map>

#include "bench_util.hpp"

using namespace glap;
using bench::Algorithm;
using harness::BenchScale;
using harness::CellResult;
using harness::ExperimentConfig;
using harness::RunResult;

namespace {

using Row = std::vector<std::string>;

/// One table: its cells, each cell's leading label columns, and the rows
/// a cell's results add after those labels.
struct Experiment {
  const char* name;   ///< report table name
  const char* title;  ///< console heading
  const char* note;   ///< expected shape, or how to read the table
  Row columns;
  std::size_t repetitions;
  std::function<std::vector<Row>(const CellResult&)> rows;
  /// Adds report headlines computed from this experiment's cells.
  std::function<void(harness::BenchReport&, const std::vector<CellResult>&)>
      headlines = nullptr;
  std::vector<ExperimentConfig> cells{};
  std::vector<Row> labels{};

  void add(const ExperimentConfig& config, Row label) {
    cells.push_back(config);
    labels.push_back(std::move(label));
  }
};

/// The mean of a per-run metric over a cell's repetitions, formatted.
std::string mean(const CellResult& cell,
                 const std::function<double(const RunResult&)>& metric,
                 int precision = 3) {
  return format_double(cell.mean_of(metric), precision);
}
std::string overloaded(const CellResult& cell) {
  return mean(cell, &RunResult::mean_overloaded);
}
std::string active(const CellResult& cell, int precision = 1) {
  return mean(cell, &RunResult::mean_active, precision);
}
std::string migrations(const CellResult& cell) {
  return mean(cell, &RunResult::total_migrations, 0);
}
std::string slav(const CellResult& cell) {
  return format_compact(cell.mean_of(&RunResult::slav));
}
/// The row most tables give a cell.
std::vector<Row> mean_row(const CellResult& cell) {
  return {{overloaded(cell), active(cell), migrations(cell), slav(cell)}};
}

std::string name_of(Algorithm algorithm) {
  return std::string(to_string(algorithm));
}

/// The middle ratio when there are several, else the only one.
std::size_t mid_ratio(const BenchScale& scale) {
  return scale.ratios.size() > 1 ? scale.ratios[1] : scale.ratios[0];
}

Experiment variants(const BenchScale& scale) {
  Experiment e{
      "variants", "Ablation — GLAP design choices",
      "expected: full GLAP matches or beats both ablations on overloaded "
      "PMs — the average/current split is what lets the IN-table "
      "anticipate demand variability, and unified tables make π_in "
      "decisions consistent across PMs.",
      {"cell", "variant", "overloaded(mean)", "active(mean)", "migrations",
       "SLAV"},
      scale.repetitions,
      [](const CellResult& c) {
        return std::vector<Row>{
            {overloaded(c), active(c, 3), migrations(c), slav(c)}};
      }};
  struct Variant {
    const char* name;
    bool use_average;
    bool aggregate;
  };
  for (std::size_t ratio : scale.ratios)
    for (const Variant& v : {Variant{"full GLAP", true, true},
                             Variant{"no avg/current split", false, true},
                             Variant{"no aggregation", true, false}}) {
      ExperimentConfig config = bench::cell_config(
          Algorithm::kGlap, scale.sizes.back(), ratio, scale);
      config.glap.use_average_state = v.use_average;
      if (!v.aggregate) {
        config.glap.learning_rounds += config.glap.aggregation_rounds;
        config.glap.aggregation_rounds = 0;
      }
      e.add(config, {bench::cell_label(config), v.name});
    }
  return e;
}

Experiment substrate(const BenchScale& scale) {
  Experiment e{
      "substrate", "Ablation — overlay layer & PABFD estimator",
      "expected: GLAP's numbers are overlay-agnostic (both layers provide "
      "uniform-ish live peer samples); PABFD's estimator shifts its "
      "aggressiveness — lower thresholds (more variance- or trend-sensitive "
      "estimators) evict more.",
      {"variant", "overloaded(mean)", "active(mean)", "migrations", "SLAV"},
      scale.repetitions, mean_row};
  const std::size_t size = scale.sizes.back();
  for (harness::OverlayKind overlay :
       {harness::OverlayKind::kCyclon, harness::OverlayKind::kNewscast}) {
    ExperimentConfig config =
        bench::cell_config(Algorithm::kGlap, size, mid_ratio(scale), scale);
    config.overlay = overlay;
    e.add(config, {"GLAP / " + std::string(to_string(overlay))});
  }
  for (baselines::ThresholdEstimator estimator :
       {baselines::ThresholdEstimator::kMad,
        baselines::ThresholdEstimator::kIqr,
        baselines::ThresholdEstimator::kLr}) {
    ExperimentConfig config =
        bench::cell_config(Algorithm::kPabfd, size, mid_ratio(scale), scale);
    config.pabfd.estimator = estimator;
    e.add(config, {"PABFD / " + std::string(to_string(estimator))});
  }
  return e;
}

Experiment burstiness(const BenchScale& scale) {
  Experiment e{
      "burstiness", "Future work — increasing workload burstiness",
      "reading: every policy overloads more as bursts dominate; the "
      "question is whether GLAP's relative advantage (lowest overloads) "
      "survives — the learned IN-table keys on the avg/current gap that "
      "bursty VMs exhibit.",
      {"workload", "algorithm", "overloaded(mean)", "active(mean)",
       "migrations", "SLAV"},
      scale.repetitions, mean_row};
  struct BurstMix {
    const char* name;
    double w_bursty;
    double w_spike;
  };
  for (const BurstMix& mix : {BurstMix{"default mix", 0.25, 0.10},
                              BurstMix{"bursty-heavy", 0.50, 0.20},
                              BurstMix{"almost all bursty", 0.70, 0.25}})
    for (Algorithm algo : bench::all_algorithms()) {
      ExperimentConfig config = bench::cell_config(
          algo, scale.sizes.back(), mid_ratio(scale), scale);
      const double rest = 1.0 - mix.w_bursty - mix.w_spike;
      config.workload.w_bursty = mix.w_bursty;
      config.workload.w_spike = mix.w_spike;
      config.workload.w_stable = rest * 0.25;
      config.workload.w_diurnal = rest * 0.375;
      config.workload.w_random_walk = rest * 0.375;
      e.add(config, {mix.name, name_of(algo)});
    }
  return e;
}

Experiment racks(const BenchScale& scale) {
  Experiment e{
      "racks", "Future work — rack-topology-aware consolidation",
      "expected: moderate affinity (~0.5) retires the most racks/switches "
      "at a comparable active-PM count. Very high affinity backfires: "
      "emptying a rack requires *cross-rack* migrations, which "
      "near-exclusive same-rack gossip starves — the "
      "exploration/exploitation trade-off of topology-aware gossip.",
      {"cell", "variant", "active-racks(mean)", "active-pms(mean)",
       "switch-energy(MJ)", "overloaded(mean)", "migrations"},
      scale.repetitions,
      [](const CellResult& c) {
        return std::vector<Row>{
            {mean(c, &RunResult::mean_active_racks, 1), active(c),
             mean(c, [](const RunResult& r) { return r.switch_energy_j / 1e6; },
                  2),
             overloaded(c), migrations(c)}};
      }};
  struct Variant {
    const char* name;
    double affinity;
  };
  for (std::size_t ratio : scale.ratios)
    for (const Variant& v :
         {Variant{"GLAP (topology-blind)", 0.0},
          Variant{"GLAP rack-aware (affinity 0.5)", 0.5},
          Variant{"GLAP rack-aware (affinity 0.9)", 0.9}}) {
      ExperimentConfig config = bench::cell_config(
          Algorithm::kGlap, scale.sizes.back(), ratio, scale);
      config.rack_size = 10;
      config.glap.rack_affinity = v.affinity;
      e.add(config, {bench::cell_label(config), v.name});
    }
  return e;
}

Experiment adversity(const BenchScale& scale) {
  Experiment e{
      "adversity", "Convergence under network adversity",
      "expected: GLAP's active-PM footprint and overload control degrade "
      "only mildly through 1% loss (gossip redundancy re-covers dropped "
      "exchanges) and visibly at 5%; the threshold baselines lose "
      "proportionally more exchanges because a dropped reply abandons the "
      "whole round.",
      {"algorithm", "network", "active-pms(mean)", "final-active",
       "overloaded(mean)", "migrations", "delivered%", "dropped(loss)"},
      scale.repetitions,
      [](const CellResult& c) {
        const double sends = c.mean_of(&RunResult::net_sends);
        const double delivered = c.mean_of(&RunResult::net_delivered);
        return std::vector<Row>{
            {active(c), mean(c, &RunResult::final_active_pms, 1),
             overloaded(c), migrations(c),
             sends > 0.0 ? format_double(100.0 * delivered / sends, 2)
                         : std::string("n/a"),
             mean(c, &RunResult::net_dropped_loss, 0)}};
      },
      // How much packing quality GLAP gives up at 1% loss, as a
      // percentage of its loss-free mean active-PM footprint: the first
      // cell is GLAP on the ideal transport, the fourth at 1% loss.
      [](harness::BenchReport& report, const std::vector<CellResult>& cells) {
        const double clean = cells[0].mean_of(&RunResult::mean_active);
        const double lossy = cells[3].mean_of(&RunResult::mean_active);
        report.add_headline(
            "glap_active_pm_cost_at_1pct_loss",
            format_double(100.0 * (lossy - clean) / clean, 2) + "%");
      }};
  struct Variant {
    const char* name;
    bool enabled;
    double loss;
  };
  for (Algorithm algo :
       {Algorithm::kGlap, Algorithm::kGrmp, Algorithm::kEcoCloud})
    for (const Variant& v : {Variant{"ideal (no model)", false, 0.0},
                             Variant{"modeled, lossless", true, 0.0},
                             Variant{"0.1% loss", true, 0.001},
                             Variant{"1% loss", true, 0.01},
                             Variant{"5% loss", true, 0.05}}) {
      ExperimentConfig config =
          bench::cell_config(algo, scale.sizes.back(), 3, scale);
      config.network.enabled = v.enabled;
      config.network.loss_rate = v.loss;
      e.add(config, {name_of(algo), v.name});
    }
  return e;
}

Experiment churn(const BenchScale& scale) {
  Experiment e{
      "churn", "Churn — consolidation under VM churn",
      "reading: churn stresses every policy (arrivals land by allocation, "
      "not by learned risk); GLAP's re-learning oracle refreshes the "
      "Q-tables as the workload population shifts — compare the GLAP rows "
      "against 'no relearn'.",
      {"churn", "algorithm", "overloaded(mean)", "active(mean)", "migrations",
       "relearns", "SLAV"},
      scale.repetitions,
      [](const CellResult& c) {
        return std::vector<Row>{
            {overloaded(c), active(c), migrations(c),
             mean(c, &RunResult::relearn_triggers, 1), slav(c)}};
      }};
  struct ChurnLevel {
    const char* name;
    double departure;
    double arrival;
  };
  for (const ChurnLevel& level :
       {ChurnLevel{"no churn", 0.0, 0.0},
        ChurnLevel{"moderate churn", 0.005, 0.02},
        ChurnLevel{"heavy churn", 0.02, 0.08}}) {
    auto config = [&](Algorithm algo) {
      ExperimentConfig c = bench::cell_config(algo, scale.sizes.back(),
                                              mid_ratio(scale), scale);
      c.churn.enabled = level.departure > 0.0 || level.arrival > 0.0;
      c.churn.departure_prob = level.departure;
      c.churn.arrival_prob = level.arrival;
      c.churn.initial_placed_fraction = 0.8;
      c.churn.relearn_min_interval = 40;
      c.churn.relearn_learning_rounds = 20;
      c.churn.relearn_aggregation_rounds = 10;
      return c;
    };
    for (Algorithm algo : bench::all_algorithms())
      e.add(config(algo), {level.name, name_of(algo)});
    // GLAP ablation: oracle disabled.
    ExperimentConfig no_relearn = config(Algorithm::kGlap);
    no_relearn.churn.glap_relearn = false;
    e.add(no_relearn, {level.name, "GLAP (no relearn)"});
  }
  return e;
}

Experiment fleet(const BenchScale& scale) {
  Experiment e{
      "fleet", "Heterogeneous fleet — mixed G4/G5 PMs, mixed VM sizes",
      "reading: the homogeneous-fleet orderings (overloads GLAP < EcoCloud "
      "< PABFD < GRMP) should survive heterogeneity; GLAP's per-PM states "
      "adapt naturally because each PM classifies utilization against its "
      "own capacity.",
      {"cell", "algorithm", "overloaded(mean)", "active(mean)", "migrations",
       "pm-energy(MJ)", "SLAV"},
      scale.repetitions,
      [](const CellResult& c) {
        return std::vector<Row>{
            {overloaded(c), active(c), migrations(c),
             mean(c, [](const RunResult& r) { return r.total_energy_j / 1e6; },
                  2),
             slav(c)}};
      }};
  for (std::size_t ratio : scale.ratios) {
    // Mixed VM sizes raise the average allocation ~30%; ratio 4 would
    // exceed the fleet's nominal capacity (no admission controller would
    // accept it), so the heterogeneous sweep stops at ratio 3.
    if (ratio > 3) continue;
    for (Algorithm algo : bench::all_algorithms()) {
      ExperimentConfig config =
          bench::cell_config(algo, scale.sizes.back(), ratio, scale);
      config.fleet.pm_classes = {{cloud::hp_proliant_ml110_g5(), 0.5},
                                 {cloud::hp_proliant_ml110_g4(), 0.5}};
      config.fleet.vm_classes = {{cloud::ec2_micro(), 0.8},
                                 {cloud::ec2_small(), 0.2}};
      e.add(config, {bench::cell_label(config), name_of(algo)});
    }
  }
  return e;
}

Experiment traffic(const BenchScale& scale) {
  Experiment e{
      "traffic",
      "Overhead — control-plane traffic per protocol and cluster size",
      "reading: gossip protocols stay at O(1) messages per PM per round as "
      "the cluster grows; PABFD's manager polls all N PMs every round (plus "
      "migration commands), the scalability bottleneck the paper argues "
      "against.",
      {"pms", "algorithm", "msgs(eval)", "msgs/pm/round", "bytes(eval)"},
      1,
      [](const CellResult& c) {
        const RunResult& run = c.runs.front();
        const double per_pm_round =
            static_cast<double>(run.messages) /
            (static_cast<double>(c.config.pm_count) * c.config.rounds);
        return std::vector<Row>{{std::to_string(run.messages),
                                 format_double(per_pm_round, 2),
                                 std::to_string(run.bytes)}};
      }};
  std::vector<std::size_t> sizes = scale.sizes;
  if (sizes.size() == 1) sizes = {sizes[0] / 2, sizes[0], sizes[0] * 2};
  for (std::size_t size : sizes)
    for (Algorithm algo : bench::all_algorithms())
      e.add(bench::cell_config(algo, size, scale.ratios[0], scale),
            {std::to_string(size), name_of(algo)});
  return e;
}

/// Call counts are a pure function of (config, seed); the profile's wall
/// times are host-dependent and stay out of the report.
Experiment counts(const BenchScale& scale) {
  Experiment e{
      "counts", "Engine phase profile — deterministic call counts", "",
      {"algorithm", "phase", "calls"},
      1,
      [](const CellResult& c) {
        std::vector<Row> rows;
        for (const auto& phase : c.runs.front().profile)
          rows.push_back({phase.label, std::to_string(phase.calls)});
        return rows;
      }};
  for (Algorithm algo : bench::all_algorithms()) {
    ExperimentConfig config = bench::cell_config(
        algo, scale.sizes.front(), scale.ratios.front(), scale);
    config.observability.profile = true;
    e.add(config, {name_of(algo)});
  }
  return e;
}

}  // namespace

int main() {
  const char* title = "Extensions beyond the paper (DESIGN.md §7)";
  const BenchScale scale = bench::scale_from_env();
  bench::print_bench_header(title, scale);

  const std::vector<Experiment> experiments{
      variants(scale), substrate(scale), burstiness(scale),
      racks(scale),    adversity(scale), churn(scale),
      fleet(scale),    traffic(scale),   counts(scale)};

  // Experiments that share a repetition count share one run_cells call,
  // so the pool stays busy across experiment boundaries.
  std::map<std::size_t, std::vector<std::size_t>> by_repetitions;
  for (std::size_t i = 0; i < experiments.size(); ++i)
    by_repetitions[experiments[i].repetitions].push_back(i);
  ThreadPool pool;
  std::vector<std::vector<CellResult>> results(experiments.size());
  for (const auto& [repetitions, members] : by_repetitions) {
    std::vector<ExperimentConfig> cells;
    for (std::size_t i : members)
      cells.insert(cells.end(), experiments[i].cells.begin(),
                   experiments[i].cells.end());
    std::vector<CellResult> ran = harness::run_cells(cells, repetitions, pool);
    auto next = std::make_move_iterator(ran.begin());
    for (std::size_t i : members) {
      const auto count =
          static_cast<std::ptrdiff_t>(experiments[i].cells.size());
      results[i].assign(next, next + count);
      next += count;
    }
  }

  harness::BenchReport report("extensions", title);
  report.set_scale(scale);
  for (std::size_t i = 0; i < experiments.size(); ++i) {
    const Experiment& e = experiments[i];
    ConsoleTable table(e.columns);
    for (std::size_t c = 0; c < e.cells.size(); ++c)
      for (Row row : e.rows(results[i][c])) {
        row.insert(row.begin(), e.labels[c].begin(), e.labels[c].end());
        table.add_row(std::move(row));
      }
    bench::emit(report, e.title, e.name, table, e.note);
    if (e.headlines) e.headlines(report, results[i]);
  }
  report.write();
  return 0;
}
