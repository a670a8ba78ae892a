// Per-phase engine profile (DESIGN.md §10.4) across the four algorithms
// at the scale's first (size, ratio) cell.
//
// Two tables land in results/profile_phases.json:
//
//   counts  — phase call counts. Deterministic: a pure function of
//             (config, seed), so EXPERIMENTS.md drift-checks this table.
//   wall    — every phase with wall-clock totals and ns/call. Wall time
//             is host-dependent; this table is reported but never
//             drift-checked.
#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "harness/runner.hpp"

using namespace glap;

int main() {
  const harness::BenchScale scale = bench::scale_from_env();
  bench::print_bench_header(
      "Engine phase profile — per-phase calls (deterministic) and wall "
      "time (host-dependent)",
      scale);

  ConsoleTable counts({"algorithm", "phase", "calls"});
  ConsoleTable wall(
      {"algorithm", "phase", "calls", "wall_ms", "ns_per_call"});

  for (harness::Algorithm algo : bench::all_algorithms()) {
    harness::ExperimentConfig config;
    config.algorithm = algo;
    config.pm_count = scale.sizes.front();
    config.vm_ratio = scale.ratios.front();
    apply_scale(config, scale);
    config.observability.profile = true;

    const harness::RunResult result = harness::run_experiment(config);
    const std::string name(to_string(algo));
    for (const auto& phase : result.profile) {
      counts.add_row({name, phase.label, std::to_string(phase.calls)});
      const double ms = static_cast<double>(phase.wall_ns) / 1e6;
      const double per_call =
          phase.calls > 0
              ? static_cast<double>(phase.wall_ns) /
                    static_cast<double>(phase.calls)
              : 0.0;
      wall.add_row({name, phase.label, std::to_string(phase.calls),
                    format_double(ms, 2), format_double(per_call, 1)});
    }
  }

  std::printf("deterministic phase call counts:\n%s\n",
              counts.render().c_str());
  std::printf("wall-clock (host-dependent):\n%s",
              wall.render().c_str());

  harness::BenchReport report(
      "profile_phases",
      "Engine phase profile — deterministic call counts + wall time");
  report.set_scale(scale);
  report.add_table("counts", counts);
  report.add_table("wall", wall);
  report.write();
  return 0;
}
