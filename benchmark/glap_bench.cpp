// GLAP benchmark binary. Runs one workload in this process and prints one
// JSON object of raw measurements on stdout; benchmark/run.py derives the
// metrics from it and checks the digests.
//
//   glap_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//              [--size full|smoke]
//
// The system is driven only through public entry points the roadmap keeps:
// harness::run_experiment / harness::run_cells for every timed run, plus
// outside probes of single public functions in the trace, cloud and qlearn
// layers. Workloads set semantic config only, never an engine mode.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <sched.h>

#include "cloud/datacenter.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "harness/runner.hpp"
#include "harness/sweep.hpp"
#include "qlearn/qtable.hpp"
#include "trace/google_synth.hpp"

namespace {

using namespace glap;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// VmHWM (peak resident set) of this process in MiB.
double vm_hwm_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::atof(line.c_str() + 6) / 1024.0;
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

/// The sweep's pool size: min(4, CPUs in this process's affinity mask).
std::size_t sweep_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0)
    throw std::runtime_error("sched_getaffinity failed");
  return std::min<std::size_t>(4, static_cast<std::size_t>(CPU_COUNT(&set)));
}

// ---- workloads ------------------------------------------------------------

struct Workload {
  std::vector<harness::ExperimentConfig> cells;
  std::size_t reps = 1;     ///< repetitions per cell (run_cells); sweep only
  bool sweep = false;       ///< run through run_cells on the thread pool
  bool trace_sink = false;  ///< GTB trace into an in-memory sink
};

/// The four workloads. `smoke` shrinks sizes and round counts ~10x for the
/// self-test; everything else about the workload stays the same.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool smoke) {
  const std::size_t shrink = smoke ? 10 : 1;
  Workload w;
  harness::ExperimentConfig c;
  c.seed = seed;
  if (name == "paper_1k") {
    c.pm_count = 1000 / shrink;
    c.warmup_rounds = 700 / shrink;
    c.rounds = 720 / shrink;
  } else if (name == "steady_10k") {
    c.pm_count = 10'000 / shrink;
    c.warmup_rounds = 60;
    c.rounds = 1000 / shrink;
    c.workload.w_stable = 0.70;
    c.workload.w_diurnal = 0.15;
    c.workload.w_random_walk = 0.10;
    c.workload.w_bursty = 0.04;
    c.workload.w_spike = 0.01;
    c.glap.quiescence.enabled = true;
    c.glap.quiescence.demand_epsilon = 0.15;
    c.glap.quiescence.idle_rounds = 8;
  } else if (name == "lossy_churn_1k") {
    c.pm_count = 1000 / shrink;
    c.warmup_rounds = 200 / shrink;
    c.rounds = 720 / shrink;
    c.rack_size = 40 / shrink;
    c.network.enabled = true;
    c.network.loss_rate = 0.01;
    c.network.migration_contention = true;
    c.churn.enabled = true;
    c.churn.departure_prob = 0.015;
    c.churn.arrival_prob = 0.15;
    c.churn.initial_placed_fraction = 0.9;
    c.churn.glap_relearn = true;
    c.observability.trace_format = trace::Format::kGtb;
    c.observability.trace_sample_shuffle = 0.05;
    c.observability.trace_sample_net = 0.05;
    w.trace_sink = true;
  } else if (name == "sweep_500") {
    c.pm_count = 500 / shrink;
    c.warmup_rounds = 700 / shrink;
    c.rounds = 720 / shrink;
    w.sweep = true;
    w.reps = 2;
    using harness::Algorithm;
    for (const auto alg : {Algorithm::kGlap, Algorithm::kEcoCloud,
                           Algorithm::kGrmp, Algorithm::kPabfd})
      for (const std::size_t ratio : {2, 3, 4}) {
        harness::ExperimentConfig cell = c;
        cell.algorithm = alg;
        cell.vm_ratio = ratio;
        cell.fit_glap_phases_to_warmup();
        w.cells.push_back(cell);
      }
    return w;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  c.fit_glap_phases_to_warmup();
  w.cells.push_back(c);
  return w;
}

// ---- correctness digest ---------------------------------------------------

/// FNV-1a over little-endian 64-bit words.
struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i)
      h = (h ^ ((v >> (8 * i)) & 0xff)) * 1099511628211ULL;
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
};

/// Digest of everything a RunResult reports that must not change when only
/// speed changes.
std::uint64_t digest(const harness::RunResult& r) {
  Fnv f;
  f.u64(r.total_migrations);
  f.u64(r.final_active_pms);
  f.u64(r.final_overloaded_pms);
  f.f64(r.slav);
  f.f64(r.total_energy_j);
  f.f64(r.migration_energy_j);
  f.u64(r.messages);
  f.u64(r.bytes);
  f.u64(r.net_sends);
  f.u64(r.net_delivered);
  f.u64(r.net_delayed);
  f.u64(r.net_dropped_loss);
  f.u64(r.net_dropped_congestion);
  f.u64(r.relearn_triggers);
  f.u64(r.rounds.size());
  for (const auto& s : r.rounds) f.u64(s.active_pms);
  return f.h;
}

std::uint64_t combine(const std::vector<std::uint64_t>& run_digests) {
  Fnv f;
  for (const std::uint64_t d : run_digests) f.u64(d);
  return f.h;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Invariants every run must satisfy at any seed; a violation is a failed
/// run (the process exits non-zero).
void check_run(const harness::ExperimentConfig& c,
               const harness::RunResult& r) {
  auto require = [&](bool ok, const char* what) {
    if (!ok) throw std::runtime_error(c.label() + ": " + what);
  };
  require(r.rounds.size() == c.rounds, "wrong number of round samples");
  require(r.final_active_pms <= c.pm_count, "more active PMs than PMs");
  require(std::isfinite(r.slav) && r.slav >= 0.0, "SLAV not finite");
  require(std::isfinite(r.total_energy_j) && r.total_energy_j >= 0.0,
          "energy not finite");
  std::uint64_t cum = 0;
  for (const auto& s : r.rounds) {
    require(s.migrations_cum >= cum, "cumulative migrations decreased");
    require(s.active_pms <= c.pm_count, "round sample over fleet size");
    cum = s.migrations_cum;
  }
  if (!r.rounds.empty()) {
    require(r.rounds.back().active_pms == r.final_active_pms,
            "final active PMs disagree with the last round");
    require(cum == r.total_migrations, "migration total disagrees");
    require(r.final_active_pms > 0, "no active PM at run end");
  }
  require(r.net_delivered + r.net_dropped_loss + r.net_dropped_congestion <=
              r.net_sends,
          "more network outcomes than sends");
  if (c.network.enabled && c.rounds > 0)
    require(r.net_sends > 0, "network enabled but nothing sent");
}

// ---- one timed operation ----------------------------------------------------

struct Op {
  double wall_s = 0.0;
  std::uint64_t rounds = 0;     ///< simulated rounds, summed over all runs
  std::uint64_t digest = 0;
  std::uint64_t trace_bytes = 0;
};

/// Runs the whole workload once: run_cells on `pool` for the sweep,
/// run_experiment otherwise. `setup_only` keeps the config but runs zero
/// rounds, which times substrate and protocol construction alone.
Op run_op(const Workload& w, ThreadPool& pool, bool setup_only) {
  std::vector<harness::ExperimentConfig> cells = w.cells;
  std::ostringstream sink;
  for (auto& c : cells) {
    if (setup_only) {
      c.warmup_rounds = 0;
      c.rounds = 0;
      c.fit_glap_phases_to_warmup();
    }
    if (w.trace_sink) c.observability.trace_sink = &sink;
  }
  Op op;
  std::vector<std::uint64_t> digests;
  const auto start = Clock::now();
  if (w.sweep) {
    const auto results = harness::run_cells(cells, w.reps, pool);
    op.wall_s = seconds_since(start);
    for (std::size_t i = 0; i < results.size(); ++i)
      for (std::size_t rep = 0; rep < results[i].runs.size(); ++rep) {
        auto config = cells[i];
        config.seed += rep;
        check_run(config, results[i].runs[rep]);
        digests.push_back(digest(results[i].runs[rep]));
      }
  } else {
    const auto result = harness::run_experiment(cells.front());
    op.wall_s = seconds_since(start);
    check_run(cells.front(), result);
    digests.push_back(digest(result));
  }
  for (const auto& c : cells)
    op.rounds += w.reps * (c.warmup_rounds + c.rounds);
  op.digest = combine(digests);
  op.trace_bytes = static_cast<std::uint64_t>(sink.tellp());
  return op;
}

// ---- traced pass ------------------------------------------------------------

/// One run_experiment call with the profiler and metric registry on. With
/// `time_untraced` the same call first runs untraced, so a cell of the sweep
/// is also timed alone. Returns the traced run's digest.
std::uint64_t traced_run(JsonWriter& j, const harness::ExperimentConfig& base,
                         bool trace_sink, bool time_untraced) {
  harness::ExperimentConfig config = base;
  j.begin_object()
      .member("algorithm", std::string(harness::to_string(config.algorithm)))
      .member("seed", config.seed);
  if (time_untraced) {
    std::ostringstream sink;
    if (trace_sink) config.observability.trace_sink = &sink;
    const auto start = Clock::now();
    const auto plain = harness::run_experiment(config);
    j.member("untraced_wall_s", seconds_since(start));
    check_run(config, plain);
    j.member("untraced_digest", hex(digest(plain)));
  }

  std::ostringstream traced_sink;
  if (trace_sink) config.observability.trace_sink = &traced_sink;
  config.observability.profile = true;
  config.observability.metrics = true;
  const auto start = Clock::now();
  const auto traced = harness::run_experiment(config);
  const double traced_wall = seconds_since(start);
  check_run(config, traced);

  const std::uint64_t traced_digest = digest(traced);
  j.member("wall_s", traced_wall)
      .member("digest", hex(traced_digest))
      .member("pm_count", static_cast<std::uint64_t>(config.pm_count))
      .member("parked_pms_mean", traced.mean_quiescent_pms())
      .member("messages", traced.messages)
      .member("bytes", traced.bytes)
      .member("relearn_triggers",
              static_cast<std::uint64_t>(traced.relearn_triggers))
      .member("trace_bytes", static_cast<std::uint64_t>(traced_sink.tellp()))
      .member("net_sends", traced.net_sends)
      .member("net_delivered", traced.net_delivered);
  j.key("profile").begin_array();
  for (const auto& p : traced.profile)
    j.begin_object()
        .member("label", p.label)
        .member("calls", p.calls)
        .member("wall_ns", p.wall_ns)
        .end_object();
  j.end_array();
  std::ostringstream registry;
  traced.metrics->write_json(registry);
  // The registry snapshot nests as a JSON string: the writer has no raw mode.
  j.member("registry", registry.str());
  j.end_object();
  return traced_digest;
}

// ---- outside probes of single layers ---------------------------------------

/// Keeps probe results observable so the timed calls cannot be elided.
double g_sink = 0.0;

/// trace: GoogleSynth demand models, ns per VM-round of next().
/// cloud: DataCenter::observe_demands ns per VM-round, end_round ns per round.
void probe_layers(JsonWriter& j, const harness::ExperimentConfig& c) {
  const std::size_t vms = c.vm_count();
  const std::size_t rounds = std::max<std::size_t>(20, 2'000'000 / vms);

  const trace::GoogleSynth synth(c.workload, c.seed);
  std::vector<trace::DemandModelPtr> models;
  models.reserve(vms);
  for (std::size_t v = 0; v < vms; ++v) models.push_back(synth.make_model(v));
  std::vector<std::vector<Resources>> demands(rounds,
                                              std::vector<Resources>(vms));
  auto start = Clock::now();
  for (std::size_t r = 0; r < rounds; ++r)
    for (std::size_t v = 0; v < vms; ++v)
      demands[r][v] = models[v]->next().clamped(0.0, 1.0);
  const double next_s = seconds_since(start);

  cloud::DataCenter dc(c.pm_count, vms, c.datacenter);
  Rng rng(hash_combine(c.seed, hash_tag("placement")));
  dc.place_randomly(rng);
  double observe_s = 0.0;
  double end_round_s = 0.0;
  for (std::size_t r = 0; r < rounds; ++r) {
    start = Clock::now();
    dc.observe_demands(demands[r]);
    observe_s += seconds_since(start);
    start = Clock::now();
    dc.end_round();
    end_round_s += seconds_since(start);
  }
  g_sink += dc.total_energy_joules();

  const double vm_rounds = static_cast<double>(vms * rounds);
  j.member("trace.demand_next_ns", next_s * 1e9 / vm_rounds)
      .member("cloud.observe_demands_ns", observe_s * 1e9 / vm_rounds)
      .member("cloud.end_round_ns",
              end_round_s * 1e9 / static_cast<double>(rounds));
}

/// qlearn kernels on tables filled like learned ones (~40% of entries).
void probe_qlearn(JsonWriter& j, std::uint64_t seed) {
  using qlearn::QTable;
  Rng rng(hash_combine(seed, hash_tag("qlearn-probe")));
  auto pair_at = [](std::uint64_t i) {
    return qlearn::LevelPair::from_index(
        static_cast<std::uint16_t>(i % qlearn::kLevelPairCount));
  };
  QTable a, b;
  for (std::size_t k = 0; k < QTable::kEntryCount; ++k) {
    const auto state = pair_at(k / qlearn::kLevelPairCount);
    if (rng.uniform() < 0.4) a.set(state, pair_at(k), rng.uniform());
    if (rng.uniform() < 0.4) b.set(state, pair_at(k), rng.uniform());
  }
  const qlearn::QLearningParams params;
  constexpr std::size_t kUpdates = 2'000'000;
  std::vector<std::uint64_t> draws(3 * 4096);
  for (auto& d : draws) d = rng.bounded(qlearn::kLevelPairCount);
  auto start = Clock::now();
  for (std::size_t i = 0; i < kUpdates; ++i) {
    const std::size_t k = 3 * (i % 4096);
    a.update(pair_at(draws[k]), pair_at(draws[k + 1]), 1.0,
             pair_at(draws[k + 2]), params);
  }
  const double update_s = seconds_since(start);

  constexpr std::size_t kMerges = 20'000;
  QTable m = a;
  start = Clock::now();
  for (std::size_t i = 0; i < kMerges; ++i) m.merge_average(i % 2 ? a : b);
  const double merge_s = seconds_since(start);

  constexpr std::size_t kCosines = 20'000;
  double cos_sum = 0.0;
  start = Clock::now();
  for (std::size_t i = 0; i < kCosines; ++i)
    cos_sum += qlearn::cosine_similarity(i % 2 ? a : m, b);
  const double cosine_s = seconds_since(start);
  g_sink += cos_sum + m.value(pair_at(1), pair_at(2));

  j.member("qlearn.update_ns", update_s * 1e9 / kUpdates)
      .member("qlearn.merge_average_ns", merge_s * 1e9 / kMerges)
      .member("qlearn.cosine_ns", cosine_s * 1e9 / kCosines);
}

// ---- main -------------------------------------------------------------------

/// Setup-only calls timed per process, after one untimed cold call (fresh
/// heap, idle pool); setup_s is their median.
constexpr std::size_t kSetupsPerRun = 7;

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 0.0;
  bool trace = false;
  bool smoke = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") a.workload = value;
    else if (flag == "--seed") a.seed = std::stoull(value);
    else if (flag == "--seconds") a.seconds = std::stod(value);
    else if (flag == "--trace") a.trace = value == "1";
    else if (flag == "--size") a.smoke = value == "smoke";
    else throw std::invalid_argument("unknown flag " + flag);
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  return a;
}

int run(const Args& args) {
  const Workload w = make_workload(args.workload, args.seed, args.smoke);
  // Only the sweep submits work to the pool; every other workload runs on
  // this thread alone.
  const std::size_t threads = w.sweep ? sweep_threads() : 1;
  ThreadPool pool(threads);

  std::ostringstream out;
  JsonWriter j(out);
  j.begin_object()
      .member("workload", args.workload)
      .member("seed", args.seed)
      .member("size", std::string(args.smoke ? "smoke" : "full"))
      .member("threads", static_cast<std::uint64_t>(threads))
      .member("compiler", std::string(GLAP_BENCH_COMPILER))
      .member("build_flags", std::string(GLAP_BENCH_FLAGS));

  run_op(w, pool, /*setup_only=*/true);
  j.member("setup_rss_mib", vm_hwm_mib());
  j.key("setup_s").begin_array();
  for (std::size_t i = 0; i < kSetupsPerRun; ++i)
    j.value(run_op(w, pool, /*setup_only=*/true).wall_s);
  j.end_array();

  // Closed batch: whole-workload runs back to back, at least one, while the
  // next is expected to end within `seconds`.
  std::vector<Op> ops;
  const auto start = Clock::now();
  do {
    ops.push_back(run_op(w, pool, /*setup_only=*/false));
  } while (seconds_since(start) + ops.back().wall_s <= args.seconds);
  j.key("ops").begin_array();
  for (const Op& op : ops)
    j.begin_object()
        .member("wall_s", op.wall_s)
        .member("rounds", op.rounds)
        .member("digest", hex(op.digest))
        .member("trace_bytes", op.trace_bytes)
        .end_object();
  j.end_array().member("peak_rss_mib", vm_hwm_mib());

  if (args.trace) {
    // Same cells and seeds as run_cells, in the same order, so the combined
    // digest must equal the untraced one.
    std::vector<std::uint64_t> digests;
    j.key("traced_runs").begin_array();
    for (const auto& cell : w.cells)
      for (std::size_t rep = 0; rep < w.reps; ++rep) {
        auto config = cell;
        config.seed += rep;
        digests.push_back(traced_run(j, config, w.trace_sink, w.sweep));
      }
    j.end_array().member("traced_digest", hex(combine(digests)));
    j.key("probes").begin_object();
    probe_layers(j, w.cells.front());
    probe_qlearn(j, args.seed);
    j.member("sink", g_sink).end_object();
  }
  j.end_object();
  std::cout << out.str() << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "glap_bench: " << e.what() << '\n';
    return 1;
  }
}
