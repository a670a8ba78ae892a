// Perf-trajectory baseline: times the Q-table micro-kernels (Bellman
// update, Algorithm 2 merge_average, Fig. 5 cosine similarity) plus one
// end-to-end default 150-PM GLAP experiment, and emits a JSON record.
//
// The committed BENCH_qtable.json at the repo root accumulates one entry
// per milestone (starting with the hash-map seed), so every future PR can
// be measured against the same kernel set on the same machine:
//
//   build-release/bench/perf_baseline [label] >> /dev/stdout
//
// With --scale [label] it sweeps cluster sizes 1k/10k/100k PMs, timing
// GLAP with quiescence off (the "serial" keys) against GLAP with
// quiescence on (the "event" keys, DESIGN.md §12) on a stable-heavy
// workload, and reports rounds/sec, speedup, mean parked fraction and
// RSS. The key names predate the single round loop and are kept so
// records stay comparable across BENCH_scale.json entries. The
// record is collected in BENCH_scale.json and mirrored to
// results/perf_scale.json. Sizes run ascending because VmHWM (the peak
// RSS readout) is monotone within a process.
//
// Build in Release (-O3); see scripts/ci.sh and README "Performance".
//
// glap-lint: allow-file(wall-clock): throughput benches time kernels and
// rounds by design; wall-clock readings are reported, never fed back into
// simulation state, so the seed-purity contract is untouched.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "harness/report.hpp"
#include "harness/runner.hpp"
#include "qlearn/qtable.hpp"

namespace {

std::string fmt(const char* spec, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), spec, v);
  return buf;
}

}  // namespace

namespace {

using namespace glap;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Fills `table` with `entries` distinct-ish random (state, action) pairs.
qlearn::QTable make_table(int entries, std::uint64_t seed) {
  qlearn::QTable table;
  Rng rng(seed);
  for (int i = 0; i < entries; ++i) {
    const auto s = qlearn::State::from_index(
        static_cast<std::uint16_t>(rng.bounded(qlearn::kLevelPairCount)));
    const auto a = qlearn::Action::from_index(
        static_cast<std::uint16_t>(rng.bounded(qlearn::kLevelPairCount)));
    table.set(s, a, rng.uniform());
  }
  return table;
}

/// ns/op for random Bellman updates over the full state space.
double time_update() {
  qlearn::QTable table;
  const qlearn::QLearningParams params;
  Rng rng(1);
  std::vector<qlearn::State> states;
  for (std::uint16_t i = 0; i < qlearn::kLevelPairCount; ++i)
    states.push_back(qlearn::State::from_index(i));
  constexpr int kOps = 2'000'000;
  const auto start = Clock::now();
  for (int i = 0; i < kOps; ++i) {
    const auto s = states[rng.bounded(states.size())];
    const auto a = states[rng.bounded(states.size())];
    const auto next = states[rng.bounded(states.size())];
    table.update(s, a, 4.0, next, params);
  }
  const double elapsed = seconds_since(start);
  if (table.size() == 0) std::abort();  // keep the work observable
  return elapsed / kOps * 1e9;
}

/// ns/op for merge_average of two ~2048-entry tables. The destination
/// copies are rebuilt outside the timed region so only the merge is timed.
double time_merge_2048() {
  const qlearn::QTable a = make_table(1024, 2);
  const qlearn::QTable b = make_table(1024, 3);
  constexpr std::size_t kPool = 64;
  constexpr int kBatches = 200;
  std::vector<qlearn::QTable> pool(kPool, a);
  double elapsed = 0.0;
  std::size_t guard = 0;
  for (int batch = 0; batch < kBatches; ++batch) {
    for (auto& t : pool) t = a;  // refill, untimed
    const auto start = Clock::now();
    for (auto& t : pool) t.merge_average(b);
    elapsed += seconds_since(start);
    guard += pool.back().size();
  }
  if (guard == 0) std::abort();
  return elapsed / (kPool * kBatches) * 1e9;
}

/// ns/op for cosine similarity of two 2048-entry tables.
double time_cosine_2048() {
  const qlearn::QTable a = make_table(2048, 4);
  const qlearn::QTable b = make_table(2048, 5);
  constexpr int kOps = 20'000;
  double guard = 0.0;
  const auto start = Clock::now();
  for (int i = 0; i < kOps; ++i) guard += qlearn::cosine_similarity(a, b);
  const double elapsed = seconds_since(start);
  if (guard < 0.0) std::abort();
  return elapsed / kOps * 1e9;
}

/// Rounds/sec of the default GLAP experiment at 150 PMs (720 evaluation
/// rounds + 700 warmup rounds with the full learning/aggregation stack).
double time_end_to_end(double* out_rounds) {
  harness::ExperimentConfig config;
  config.algorithm = harness::Algorithm::kGlap;
  config.pm_count = 150;
  config.fit_glap_phases_to_warmup();
  const double total_rounds =
      static_cast<double>(config.warmup_rounds + config.rounds);
  const auto start = Clock::now();
  const auto result = harness::run_experiment(config);
  const double elapsed = seconds_since(start);
  if (result.rounds.size() != config.rounds) std::abort();
  *out_rounds = total_rounds;
  return total_rounds / elapsed;
}

// ---- --scale: quiescence off vs on across cluster sizes ---------------

/// Reads a "Key:  <n> kB" line from /proc/self/status, in MiB (0.0 when
/// unavailable, e.g. non-Linux hosts).
double proc_status_mib(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(key);
  while (std::getline(in, line))
    if (line.compare(0, len, key) == 0 && line.size() > len &&
        line[len] == ':')
      return std::atof(line.c_str() + len + 1) / 1024.0;
  return 0.0;
}

std::string cpu_model_name() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size())
        return line.substr(colon + 2);
    }
  return "unknown";
}

struct ScaleRun {
  double rounds_per_sec = 0.0;
  double elapsed_s = 0.0;
  double parked_fraction = 0.0;  ///< mean quiescent PMs / pm_count (eval)
  double rss_hwm_mib = 0.0;      ///< process peak RSS after the run
  std::uint64_t migrations = 0;
  std::uint32_t final_active_pms = 0;
};

/// One GLAP run for the scale sweep. `event` turns quiescence on (the
/// "event" arm of the report); otherwise quiescence stays off (the
/// "serial" arm). Workload is stable-heavy: the quiescence payoff
/// targets steady-state fleets, and the demand-epsilon wake rule needs
/// most VMs to sit inside the epsilon band.
ScaleRun run_scale_cell(std::size_t pm_count, sim::Round warmup,
                        sim::Round eval, bool event) {
  harness::ExperimentConfig config;
  config.algorithm = harness::Algorithm::kGlap;
  config.pm_count = pm_count;
  config.warmup_rounds = warmup;
  config.rounds = eval;
  config.workload.w_stable = 0.70;
  config.workload.w_diurnal = 0.15;
  config.workload.w_random_walk = 0.10;
  config.workload.w_bursty = 0.04;
  config.workload.w_spike = 0.01;
  if (event) {
    config.glap.quiescence.enabled = true;
    config.glap.quiescence.demand_epsilon = 0.15;
    config.glap.quiescence.idle_rounds = 8;
  }
  config.fit_glap_phases_to_warmup();

  ScaleRun out;
  const auto start = Clock::now();
  const auto result = harness::run_experiment(config);
  out.elapsed_s = seconds_since(start);
  if (result.rounds.size() != config.rounds) std::abort();
  out.rounds_per_sec = static_cast<double>(warmup + eval) / out.elapsed_s;
  out.parked_fraction =
      result.mean_quiescent_pms() / static_cast<double>(pm_count);
  out.rss_hwm_mib = proc_status_mib("VmHWM");
  out.migrations = result.total_migrations;
  out.final_active_pms = result.final_active_pms;
  return out;
}

int run_scale(const std::string& label) {
  struct Size {
    const char* name;
    std::size_t pms;
    sim::Round warmup;
    sim::Round eval;
  };
  // Ascending sizes (VmHWM is monotone); the evaluation window dominates
  // the round budget because parking only begins after consolidation
  // starts. 100k runs a shorter window to bound the sweep's wall-clock.
  const Size sizes[] = {{"glap_1k", 1'000, 60, 1000},
                        {"glap_10k", 10'000, 60, 1000},
                        {"glap_100k", 100'000, 60, 400}};

  harness::BenchReport report(
      "perf_scale",
      "Scale sweep — GLAP with quiescence off (serial) vs on (event) "
      "(host-dependent)");
  report.add_headline("label", label);
  report.add_headline("machine", cpu_model_name());
  report.add_headline(
      "host_hardware_threads",
      std::to_string(std::thread::hardware_concurrency()));

  std::printf("{\n");
  std::printf("  \"label\": \"%s\",\n", label.c_str());
  std::printf("  \"machine\": \"%s\",\n", cpu_model_name().c_str());
  std::printf("  \"host_hardware_threads\": %u,\n",
              std::thread::hardware_concurrency());
  for (const Size& size : sizes) {
    std::fprintf(stderr, "[perf_baseline] %s serial...\n", size.name);
    const ScaleRun serial =
        run_scale_cell(size.pms, size.warmup, size.eval, /*event=*/false);
    std::fprintf(stderr, "[perf_baseline] %s quiescence...\n", size.name);
    const ScaleRun event =
        run_scale_cell(size.pms, size.warmup, size.eval, /*event=*/true);
    const double speedup = event.rounds_per_sec / serial.rounds_per_sec;

    std::printf("  \"%s_rounds\": %u,\n", size.name,
                static_cast<unsigned>(size.warmup + size.eval));
    std::printf("  \"%s_serial_rounds_per_sec\": %.2f,\n", size.name,
                serial.rounds_per_sec);
    std::printf("  \"%s_event_rounds_per_sec\": %.2f,\n", size.name,
                event.rounds_per_sec);
    std::printf("  \"%s_event_speedup\": %.2f,\n", size.name, speedup);
    std::printf("  \"%s_event_parked_fraction\": %.3f,\n", size.name,
                event.parked_fraction);
    std::printf("  \"%s_migrations_serial\": %llu,\n", size.name,
                static_cast<unsigned long long>(serial.migrations));
    std::printf("  \"%s_migrations_event\": %llu,\n", size.name,
                static_cast<unsigned long long>(event.migrations));
    std::printf("  \"%s_rss_hwm_mib\": %.1f%s\n", size.name,
                event.rss_hwm_mib, (&size == &sizes[2]) ? "" : ",");

    const std::string n(size.name);
    report.add_headline(n + "_rounds",
                        std::to_string(size.warmup + size.eval));
    report.add_headline(n + "_serial_rounds_per_sec",
                        fmt("%.2f", serial.rounds_per_sec));
    report.add_headline(n + "_event_rounds_per_sec",
                        fmt("%.2f", event.rounds_per_sec));
    report.add_headline(n + "_event_speedup", fmt("%.2f", speedup));
    report.add_headline(n + "_event_parked_fraction",
                        fmt("%.3f", event.parked_fraction));
    report.add_headline(n + "_rss_hwm_mib", fmt("%.1f", event.rss_hwm_mib));
  }
  std::printf("}\n");
  report.write();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--scale") == 0)
    return run_scale(argc > 2 ? argv[2] : "current");
  const std::string label = argc > 1 ? argv[1] : "current";

  std::fprintf(stderr, "[perf_baseline] qtable update...\n");
  const double update_ns = time_update();
  std::fprintf(stderr, "[perf_baseline] merge_average/2048...\n");
  const double merge_ns = time_merge_2048();
  std::fprintf(stderr, "[perf_baseline] cosine_similarity/2048...\n");
  const double cosine_ns = time_cosine_2048();
  std::fprintf(stderr, "[perf_baseline] end-to-end 150-PM GLAP run...\n");
  double total_rounds = 0.0;
  const double rounds_per_sec = time_end_to_end(&total_rounds);

  std::printf("{\n");
  std::printf("  \"label\": \"%s\",\n", label.c_str());
  std::printf("  \"qtable_update_ns\": %.1f,\n", update_ns);
  std::printf("  \"qtable_merge_average_2048_ns\": %.1f,\n", merge_ns);
  std::printf("  \"qtable_cosine_similarity_2048_ns\": %.1f,\n", cosine_ns);
  std::printf("  \"glap_150pm_rounds\": %.0f,\n", total_rounds);
  std::printf("  \"glap_150pm_rounds_per_sec\": %.2f\n", rounds_per_sec);
  std::printf("}\n");

  harness::BenchReport report(
      "perf_baseline", "Perf baseline — Q-table kernels and end-to-end "
                       "GLAP throughput (host-dependent)");
  report.add_headline("label", label);
  report.add_headline("qtable_update_ns", fmt("%.1f", update_ns));
  report.add_headline("qtable_merge_average_2048_ns", fmt("%.1f", merge_ns));
  report.add_headline("qtable_cosine_similarity_2048_ns",
                      fmt("%.1f", cosine_ns));
  report.add_headline("glap_150pm_rounds", fmt("%.0f", total_rounds));
  report.add_headline("glap_150pm_rounds_per_sec", fmt("%.2f", rounds_per_sec));
  report.write();
  return 0;
}
