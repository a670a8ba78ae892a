// Future-work experiment (paper §VI): network-topology awareness.
//
// PMs sit in racks behind top-of-rack switches that only power down when
// the whole rack sleeps. Compares vanilla GLAP against the rack-aware
// variant (same-rack gossip affinity + drain-the-emptier-rack rule) on
// active racks, switch energy, and the SLA-relevant metrics — the
// rack-aware variant should retire strictly more switches at equal-ish
// consolidation quality.
#include "bench_util.hpp"

using namespace glap;

int main() {
  const harness::BenchScale scale = bench::scale_from_env();
  bench::print_bench_header(
      "Future work — rack-topology-aware consolidation", scale);

  const std::size_t size = scale.sizes.back();
  const std::size_t rack_size = 10;
  ThreadPool pool;

  struct Variant {
    const char* name;
    double affinity;
  };
  const std::vector<Variant> variants{
      {"GLAP (topology-blind)", 0.0},
      {"GLAP rack-aware (affinity 0.5)", 0.5},
      {"GLAP rack-aware (affinity 0.9)", 0.9},
  };

  std::vector<harness::ExperimentConfig> cells;
  for (std::size_t ratio : scale.ratios) {
    for (const Variant& v : variants) {
      harness::ExperimentConfig config;
      config.algorithm = harness::Algorithm::kGlap;
      config.pm_count = size;
      config.vm_ratio = ratio;
      apply_scale(config, scale);
      config.rack_size = rack_size;
      config.glap.rack_affinity = v.affinity;
      cells.push_back(config);
    }
  }

  const auto results = harness::run_cells(cells, scale.repetitions, pool);

  ConsoleTable table({"cell", "variant", "active-racks(mean)",
                      "active-pms(mean)", "switch-energy(MJ)",
                      "overloaded(mean)", "migrations"});
  std::size_t idx = 0;
  for (std::size_t ratio : scale.ratios) {
    (void)ratio;
    for (const Variant& v : variants) {
      const auto& cell = results[idx++];
      table.add_row(
          {bench::cell_label(cell.config), v.name,
           format_double(cell.mean_of([](const harness::RunResult& r) {
             return r.mean_active_racks();
           }), 1),
           format_double(cell.mean_of([](const harness::RunResult& r) {
             return r.mean_active();
           }), 1),
           format_double(cell.mean_of([](const harness::RunResult& r) {
             return r.switch_energy_j / 1e6;
           }), 2),
           format_double(cell.mean_of([](const harness::RunResult& r) {
             return r.mean_overloaded();
           })),
           format_double(cell.mean_of([](const harness::RunResult& r) {
             return static_cast<double>(r.total_migrations);
           }), 0)});
    }
  }
  std::fputs(table.render().c_str(), stdout);

  harness::BenchReport report(
      "topo_racks", "Future work — rack-topology-aware consolidation");
  report.set_scale(scale);
  report.add_table("racks", table);
  report.write();

  std::printf("\nexpected: moderate affinity (~0.5) retires the most "
              "racks/switches at a comparable active-PM count. Very high "
              "affinity backfires: emptying a rack requires *cross-rack* "
              "migrations, which near-exclusive same-rack gossip starves "
              "— the exploration/exploitation trade-off of topology-aware "
              "gossip.\n");
  return 0;
}
