// Trace-overhead smoke: the observability layer must be (near) free when
// it is off, and cheap when it is on.
//
// Every gate compares two runs of the same binary on the same host, so the
// ratios are self-normalised: host speed and drift cancel out. Check 1
// runs at 150 PMs (200 warmup + 150 eval rounds), check 2 at 1000 PMs,
// check 3 at 10k PMs:
//
//   1. enabled-cost gate: rounds/sec with metrics + full JSONL tracing
//      enabled must stay above --min-on-ratio (default 0.5) of the
//      tracing-off throughput;
//   2. metrics-only gate: at 1000 PMs, metrics ON with tracing OFF must
//      stay above --min-metrics-ratio (default 0.9) of metrics OFF — the
//      registry's counters are the only instrumentation on that path, and
//      they must cost no more than a few percent.
//   3. scale gate: at 10k PMs with quiescence (the CI scale-smoke shape),
//      a sampled GTB trace (5% shuffle keep, DESIGN.md §10.6) must come
//      out at least --min-size-ratio (default 10) x smaller than the full
//      JSONL trace of the same run, and its throughput must stay above
//      --min-sampled-ratio (default 0.95) of tracing-off — compact
//      sampled tracing is near-free at scale.
//
// All measured numbers land in results/trace_overhead.json.
//
// scripts/ci.sh runs this as its trace-overhead stage:
//
//   build-release/bench/trace_overhead
//
// glap-lint: allow-file(wall-clock): this bench exists to measure wall-
// clock throughput ratios; timings are compared and reported, never fed
// back into simulation state.
#include <chrono>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "common/cli_number.hpp"
#include "harness/report.hpp"
#include "harness/runner.hpp"

namespace {

using namespace glap;
using Clock = std::chrono::steady_clock;

harness::ExperimentConfig overhead_config() {
  harness::ExperimentConfig config;
  config.algorithm = harness::Algorithm::kGlap;
  config.pm_count = 150;
  config.warmup_rounds = 200;
  config.rounds = 150;
  config.fit_glap_phases_to_warmup();
  return config;
}

/// Best-of-`reps` rounds/sec; `sink` != nullptr enables metrics + tracing.
double rounds_per_sec(std::ostringstream* sink, int reps) {
  harness::ExperimentConfig config = overhead_config();
  const double total_rounds =
      static_cast<double>(config.warmup_rounds + config.rounds);
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    if (sink != nullptr) {
      sink->str({});
      config.observability.metrics = true;
      config.observability.trace_sink = sink;
    }
    const auto start = Clock::now();
    const auto result = harness::run_experiment(config);
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (result.rounds.size() != config.rounds) std::abort();
    best = std::max(best, total_rounds / elapsed);
  }
  return best;
}

/// Best-of-`reps` rounds/sec at 1000 PMs with tracing off throughout;
/// `metrics_on` toggles the registry (the only instrumentation measured).
double metrics_rounds_per_sec(bool metrics_on, int reps) {
  harness::ExperimentConfig config = overhead_config();
  config.pm_count = 1000;
  config.warmup_rounds = 80;
  config.rounds = 60;
  config.fit_glap_phases_to_warmup();
  config.observability.metrics = metrics_on;
  const double total_rounds =
      static_cast<double>(config.warmup_rounds + config.rounds);
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = Clock::now();
    const auto result = harness::run_experiment(config);
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (result.rounds.size() != config.rounds) std::abort();
    best = std::max(best, total_rounds / elapsed);
  }
  return best;
}

/// One 10k-PM quiescence measurement (the CI scale-smoke shape).
struct ScaleRun {
  double rps = 0.0;
  std::size_t trace_bytes = 0;
};

enum class ScaleMode { kOff, kFullJsonl, kSampledGtb };

ScaleRun scale_run(ScaleMode mode, int reps) {
  harness::ExperimentConfig config;
  config.algorithm = harness::Algorithm::kGlap;
  config.pm_count = 10000;
  config.warmup_rounds = 40;
  config.rounds = 30;
  config.glap.quiescence.enabled = true;
  config.glap.quiescence.demand_epsilon = 0.15;
  config.glap.quiescence.idle_rounds = 8;
  config.fit_glap_phases_to_warmup();
  const double total_rounds =
      static_cast<double>(config.warmup_rounds + config.rounds);
  std::ostringstream sink;
  if (mode != ScaleMode::kOff) {
    config.observability.trace_sink = &sink;
    if (mode == ScaleMode::kSampledGtb) {
      config.observability.trace_format = trace::Format::kGtb;
      config.observability.trace_sample_shuffle = 0.05;
      config.observability.trace_sample_net = 0.05;
    }
  }
  ScaleRun best;
  for (int rep = 0; rep < reps; ++rep) {
    sink.str({});
    const auto start = Clock::now();
    const auto result = harness::run_experiment(config);
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (result.rounds.size() != config.rounds) std::abort();
    best.rps = std::max(best.rps, total_rounds / elapsed);
    best.trace_bytes = sink.str().size();
  }
  return best;
}

/// The four gate thresholds (see the header comment for their defaults).
struct Gates {
  double min_on_ratio = 0.5;
  double min_metrics_ratio = 0.9;
  double min_sampled_ratio = 0.95;
  double min_size_ratio = 10.0;
};

/// Reads `--<gate> <ratio>` pairs; an unknown flag, a missing value or a
/// malformed ratio throws std::invalid_argument naming it.
Gates parse_gates(int argc, char** argv) {
  Gates gates;
  const std::pair<std::string_view, double*> flags[] = {
      {"--min-on-ratio", &gates.min_on_ratio},
      {"--min-metrics-ratio", &gates.min_metrics_ratio},
      {"--min-sampled-ratio", &gates.min_sampled_ratio},
      {"--min-size-ratio", &gates.min_size_ratio}};
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    double* gate = nullptr;
    for (const auto& [name, field] : flags)
      if (arg == name) gate = field;
    if (gate == nullptr)
      throw std::invalid_argument("unknown flag '" + std::string(arg) + "'");
    if (i + 1 == argc)
      throw std::invalid_argument(std::string(arg) + " needs a value");
    *gate = cli::parse_ratio(arg, argv[++i]);
  }
  return gates;
}

}  // namespace

int main(int argc, char** argv) {
  Gates gates;
  try {
    gates = parse_gates(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "[trace_overhead] %s\n", e.what());
    return 2;
  }

  std::fprintf(stderr, "[trace_overhead] tracing off (3 runs)...\n");
  const double off = rounds_per_sec(nullptr, 3);
  std::fprintf(stderr, "[trace_overhead] metrics + tracing on (3 runs)...\n");
  std::ostringstream sink;
  const double on = rounds_per_sec(&sink, 3);

  std::printf("[trace_overhead] off: %.2f rounds/sec, on: %.2f rounds/sec "
              "(on/off %.2f), trace bytes/run: %zu\n",
              off, on, off > 0 ? on / off : 0.0, sink.str().size());

  bool ok = true;
  if (on < gates.min_on_ratio * off) {
    std::fprintf(stderr,
                 "[trace_overhead] FAIL: enabled tracing costs too much "
                 "(%.2f < %.2f x %.2f)\n",
                 on, gates.min_on_ratio, off);
    ok = false;
  }

  std::fprintf(stderr,
               "[trace_overhead] 1000 PMs, metrics off (3 runs)...\n");
  const double metrics_off = metrics_rounds_per_sec(false, 3);
  std::fprintf(stderr,
               "[trace_overhead] 1000 PMs, metrics on (3 runs)...\n");
  const double metrics_on = metrics_rounds_per_sec(true, 3);
  std::printf("[trace_overhead] 1000 PMs metrics off: %.2f rounds/sec, "
              "on: %.2f rounds/sec (on/off %.2f)\n",
              metrics_off, metrics_on,
              metrics_off > 0 ? metrics_on / metrics_off : 0.0);
  if (metrics_on < gates.min_metrics_ratio * metrics_off) {
    std::fprintf(stderr,
                 "[trace_overhead] FAIL: metrics alone cost too much at "
                 "1000 PMs (%.2f < %.2f x %.2f)\n",
                 metrics_on, gates.min_metrics_ratio, metrics_off);
    ok = false;
  }

  std::fprintf(stderr, "[trace_overhead] 10k PMs, tracing off (2 runs)...\n");
  const ScaleRun scale_off = scale_run(ScaleMode::kOff, 2);
  std::fprintf(stderr, "[trace_overhead] 10k PMs, full JSONL (1 run)...\n");
  const ScaleRun scale_full = scale_run(ScaleMode::kFullJsonl, 1);
  std::fprintf(stderr,
               "[trace_overhead] 10k PMs, sampled GTB (2 runs)...\n");
  const ScaleRun scale_sampled = scale_run(ScaleMode::kSampledGtb, 2);
  std::printf(
      "[trace_overhead] 10k PMs off: %.2f rounds/sec; full JSONL %zu "
      "bytes; sampled GTB %.2f rounds/sec, %zu bytes (%.1fx smaller, "
      "sampled/off %.2f)\n",
      scale_off.rps, scale_full.trace_bytes, scale_sampled.rps,
      scale_sampled.trace_bytes,
      scale_sampled.trace_bytes > 0
          ? static_cast<double>(scale_full.trace_bytes) /
                static_cast<double>(scale_sampled.trace_bytes)
          : 0.0,
      scale_off.rps > 0 ? scale_sampled.rps / scale_off.rps : 0.0);
  if (static_cast<double>(scale_sampled.trace_bytes) * gates.min_size_ratio >
      static_cast<double>(scale_full.trace_bytes)) {
    std::fprintf(stderr,
                 "[trace_overhead] FAIL: sampled GTB trace is not %.0fx "
                 "smaller than full JSONL (%zu x %.0f > %zu)\n",
                 gates.min_size_ratio, scale_sampled.trace_bytes,
                 gates.min_size_ratio, scale_full.trace_bytes);
    ok = false;
  }
  if (scale_sampled.rps < gates.min_sampled_ratio * scale_off.rps) {
    std::fprintf(stderr,
                 "[trace_overhead] FAIL: sampled GTB tracing costs more "
                 "than %.0f%% at 10k PMs (%.2f < %.2f x %.2f)\n",
                 100.0 * (1.0 - gates.min_sampled_ratio), scale_sampled.rps,
                 gates.min_sampled_ratio, scale_off.rps);
    ok = false;
  }

  harness::BenchReport report(
      "trace_overhead",
      "Trace overhead — rounds/sec off vs on (host-dependent)");
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f", off);
  report.add_headline("rounds_per_sec_off", buf);
  std::snprintf(buf, sizeof(buf), "%.2f", on);
  report.add_headline("rounds_per_sec_on", buf);
  std::snprintf(buf, sizeof(buf), "%.2f", off > 0 ? on / off : 0.0);
  report.add_headline("on_off_ratio", buf);
  std::snprintf(buf, sizeof(buf), "%.2f", metrics_off);
  report.add_headline("rounds_per_sec_1000pm_metrics_off", buf);
  std::snprintf(buf, sizeof(buf), "%.2f", metrics_on);
  report.add_headline("rounds_per_sec_1000pm_metrics_on", buf);
  std::snprintf(buf, sizeof(buf), "%.2f",
                metrics_off > 0 ? metrics_on / metrics_off : 0.0);
  report.add_headline("metrics_on_off_ratio_1000pm", buf);
  report.add_headline("status", ok ? "OK" : "FAIL");
  report.write();

  return ok ? 0 : 1;
}
