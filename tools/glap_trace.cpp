// glap-trace: analysis CLI over the round-level trace in either encoding
// — JSONL (DESIGN.md §10.2) or the GTB binary format (§10.6); the reader
// auto-detects which one a file carries. The parsing and analysis logic
// lives in src/common (trace_reader, trace_format, trace_check); this
// binary is argument handling and report formatting.
//
//   glap-trace lineage  <trace> [--vm ID] [--pm ID] [--top N]
//   glap-trace episodes <trace> [--pm ID] [--min-rounds N]
//   glap-trace check    <trace> [--churn-tolerant] [--strict] [--max-print N]
//   glap-trace stats    <trace> [--results]
//   glap-trace convert  <in> <out> [--to jsonl|gtb]
//   glap-trace gen      <out>   [--algorithm GLAP|GRMP|EcoCloud|PABFD]
//                               [--pms N] [--ratio R] [--warmup N]
//                               [--rounds N] [--seed S]
//                               [--quiesce] [--epsilon-pct PCT]
//                               [--idle-rounds N] [--net] [--loss PCT]
//                               [--binary] [--sample-shuffle PCT]
//                               [--sample-net PCT] [--flight-dump PATH]
//
// Each subcommand accepts only its own flags; an unknown flag (a typo, or
// one another subcommand takes) is a usage error.
//
// A trace cut mid-record (crashed run, signal-context flight dump) is
// analyzed up to the cut with a warning, not rejected.
//
// Exit codes (pinned by DESIGN.md §10.5 and tests/integration):
//   0  success; for `check`, the trace satisfies every invariant
//   1  `check` found invariant violations
//   2  usage error, unreadable input, or a malformed trace line
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/cli_number.hpp"
#include "common/stats.hpp"
#include "common/trace_check.hpp"
#include "common/trace_format.hpp"
#include "common/trace_reader.hpp"
#include "harness/report.hpp"
#include "harness/runner.hpp"

namespace {

using namespace glap;

constexpr int kExitOk = 0;
constexpr int kExitViolations = 1;
constexpr int kExitError = 2;

/// Upper bound of the count flags (--top, --min-rounds, --max-print).
constexpr std::uint64_t kMaxCount = std::numeric_limits<std::size_t>::max();

int usage() {
  std::fprintf(
      stderr,
      "usage: glap-trace <subcommand> <file> [options]\n"
      "  lineage  <trace> [--vm ID] [--pm ID] [--top N]   migration chains "
      "+ PM occupancy timelines\n"
      "  episodes <trace> [--pm ID] [--min-rounds N]      overload episodes\n"
      "  check    <trace> [--churn-tolerant] [--strict] [--max-print N]\n"
      "                                                   invariant verifier "
      "(exit 1 on violation)\n"
      "  stats    <trace> [--results]                     per-kind counts / "
      "percentiles (--results mirrors\n"
      "                                                   to results/"
      "trace_stats.json)\n"
      "  convert  <in> <out> [--to jsonl|gtb]             re-encode a trace "
      "(default: the other format)\n"
      "  gen      <out> [--algorithm A] [--pms N] [--ratio R] [--warmup N]\n"
      "                 [--rounds N] [--seed S] [--quiesce] [--epsilon-pct PCT]\n"
      "                 [--idle-rounds N] [--net] [--loss PCT] [--binary]\n"
      "                 [--sample-shuffle PCT] [--sample-net PCT]\n"
      "                 [--flight-dump PATH]\n"
      "                                                   run an experiment "
      "and write its trace\n"
      "both trace encodings (JSONL text, GTB binary) are auto-detected\n");
  return kExitError;
}

struct Args {
  std::string file;
  std::string file2;  ///< second positional; only `convert` takes one
  std::map<std::string, std::string> flags;  ///< "--x v" and bare "--x"
};

bool parse_args(int argc, char** argv, Args* out) {
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0)
        out->flags[arg] = argv[++i];
      else
        out->flags[arg] = "";
    } else if (out->file.empty()) {
      out->file = arg;
    } else if (out->file2.empty()) {
      out->file2 = arg;
    } else {
      std::fprintf(stderr, "glap-trace: unexpected argument '%s'\n",
                   arg.c_str());
      return false;
    }
  }
  if (out->file.empty()) {
    std::fprintf(stderr, "glap-trace: missing file argument\n");
    return false;
  }
  return true;
}

bool has_flag(const Args& args, const char* name) {
  return args.flags.count(name) != 0;
}

/// The integer value of flag `name` in [lo, hi], or `fallback` when the
/// flag is absent. A malformed value throws, which main() reports as a
/// usage error (exit 2) before any trace is read or run started.
std::uint64_t flag_uint(const Args& args, const char* name,
                        std::uint64_t fallback, std::uint64_t lo,
                        std::uint64_t hi) {
  const auto it = args.flags.find(name);
  return it == args.flags.end() ? fallback
                                : cli::parse_uint(name, it->second, lo, hi);
}

/// A percentage flag in [0, 100], or `fallback` when absent.
double flag_percent(const Args& args, const char* name, double fallback) {
  const auto it = args.flags.find(name);
  return it == args.flags.end() ? fallback
                                : cli::parse_percent(name, it->second);
}

/// A VM or PM id filter: -1 (no filter) when the flag is absent.
std::int64_t flag_id(const Args& args, const char* name) {
  constexpr auto kMaxId =
      static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max());
  return has_flag(args, name)
             ? static_cast<std::int64_t>(flag_uint(args, name, 0, 0, kMaxId))
             : -1;
}

/// Streams every event of `path` into the analyzers via `fn`. Returns
/// false (after printing the offending line) on I/O or parse errors. A
/// trace cut mid-record — a crash artifact — yields its parsed prefix
/// with a warning instead of an error, so post-mortem analysis works.
template <typename Fn>
bool for_each_event(const std::string& path, Fn&& fn) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    std::fprintf(stderr, "glap-trace: cannot open '%s'\n", path.c_str());
    return false;
  }
  trace::TraceReader reader(in);
  trace::TraceEvent event;
  std::string error;
  while (true) {
    const auto status = reader.next(&event, &error);
    if (status == trace::TraceReader::Status::kEof) return true;
    if (status == trace::TraceReader::Status::kTruncated) {
      std::fprintf(stderr,
                   "glap-trace: warning: %s:%zu: %s — analyzing the %zu "
                   "record(s) before the cut\n",
                   path.c_str(), reader.line_number(), error.c_str(),
                   reader.line_number() - 1);
      return true;
    }
    if (status == trace::TraceReader::Status::kError) {
      std::fprintf(stderr, "glap-trace: %s:%zu: %s\n", path.c_str(),
                   reader.line_number(), error.c_str());
      return false;
    }
    fn(event, reader.line_number());
  }
}

// ---- lineage ------------------------------------------------------------

int cmd_lineage(const Args& args) {
  const std::int64_t only_vm = flag_id(args, "--vm");
  const std::int64_t only_pm = flag_id(args, "--pm");
  const std::uint64_t top = flag_uint(args, "--top", 20, 0, kMaxCount);

  trace::LineageBuilder lineage;
  if (!for_each_event(args.file,
                      [&](const trace::TraceEvent& e, std::size_t) {
                        lineage.add(e);
                      }))
    return kExitError;

  if (only_pm < 0) {
    std::printf("== VM migration chains (%zu VMs migrated) ==\n",
                lineage.vm_chains().size());
    std::uint64_t printed = 0;
    for (const auto& [vm, hops] : lineage.vm_chains()) {
      if (only_vm >= 0 && vm != only_vm) continue;
      if (only_vm < 0 && printed++ >= top) {
        std::printf("  ... (--top %llu reached; --vm ID for one chain)\n",
                    static_cast<unsigned long long>(top));
        break;
      }
      std::printf("vm %lld: pm %lld", static_cast<long long>(vm),
                  static_cast<long long>(hops.front().from));
      for (const auto& hop : hops)
        std::printf(" -(r%llu)-> pm %lld",
                    static_cast<unsigned long long>(hop.round),
                    static_cast<long long>(hop.to));
      double energy = 0.0;
      for (const auto& hop : hops) energy += hop.energy_j;
      std::printf("  [%zu hops, %.1f J]\n", hops.size(), energy);
    }
  }
  if (only_vm < 0) {
    std::printf("== PM occupancy timelines (%zu PMs touched) ==\n",
                lineage.pm_timelines().size());
    std::uint64_t printed = 0;
    for (const auto& [pm, events] : lineage.pm_timelines()) {
      if (only_pm >= 0 && pm != only_pm) continue;
      if (only_pm < 0 && printed++ >= top) {
        std::printf("  ... (--top %llu reached; --pm ID for one timeline)\n",
                    static_cast<unsigned long long>(top));
        break;
      }
      std::printf("pm %lld:", static_cast<long long>(pm));
      for (const auto& ev : events) {
        const char* what = "?";
        switch (ev.what) {
          case trace::OccupancyEvent::What::kVmIn: what = "+vm"; break;
          case trace::OccupancyEvent::What::kVmOut: what = "-vm"; break;
          case trace::OccupancyEvent::What::kPowerOn: what = "on"; break;
          case trace::OccupancyEvent::What::kPowerOff: what = "off"; break;
        }
        if (ev.vm >= 0)
          std::printf(" r%llu:%s%lld",
                      static_cast<unsigned long long>(ev.round), what,
                      static_cast<long long>(ev.vm));
        else
          std::printf(" r%llu:%s", static_cast<unsigned long long>(ev.round),
                      what);
      }
      std::printf("\n");
    }
  }
  return kExitOk;
}

// ---- episodes -----------------------------------------------------------

int cmd_episodes(const Args& args) {
  const std::int64_t only_pm = flag_id(args, "--pm");
  const std::uint64_t min_rounds =
      flag_uint(args, "--min-rounds", 1, 0, kMaxCount);

  trace::EpisodeDetector detector;
  if (!for_each_event(args.file,
                      [&](const trace::TraceEvent& e, std::size_t) {
                        detector.add(e);
                      }))
    return kExitError;

  const auto episodes = detector.finish();

  std::printf("%-8s %-8s %-8s %-9s %s\n", "pm", "onset", "rounds", "peak_cpu",
              "resolution");
  std::size_t shown = 0, migration_resolved = 0;
  for (const auto& ep : episodes) {
    if (only_pm >= 0 && ep.pm != only_pm) continue;
    if (ep.rounds < min_rounds) continue;
    ++shown;
    if (ep.resolved_by_migration) ++migration_resolved;
    char resolution[80];
    if (ep.ongoing)
      std::snprintf(resolution, sizeof resolution, "ongoing at trace end");
    else if (ep.resolved_by_migration)
      std::snprintf(resolution, sizeof resolution,
                    "migration of vm %lld in round %llu",
                    static_cast<long long>(ep.resolving_vm),
                    static_cast<unsigned long long>(ep.resolving_round));
    else
      std::snprintf(resolution, sizeof resolution, "demand drop");
    std::printf("%-8lld %-8llu %-8llu %-9.3f %s\n",
                static_cast<long long>(ep.pm),
                static_cast<unsigned long long>(ep.onset_round),
                static_cast<unsigned long long>(ep.rounds), ep.peak_cpu,
                resolution);
  }
  std::printf("-- %zu episode(s), %zu resolved by migration\n", shown,
              migration_resolved);
  return kExitOk;
}

// ---- check --------------------------------------------------------------

int cmd_check(const Args& args) {
  const std::uint64_t max_print =
      flag_uint(args, "--max-print", 20, 0, kMaxCount);
  trace::InvariantChecker::Options options;
  options.churn_tolerant = has_flag(args, "--churn-tolerant");
  options.strict_overload_target = has_flag(args, "--strict");
  trace::InvariantChecker checker(options);
  if (!for_each_event(args.file,
                      [&](const trace::TraceEvent& e, std::size_t line) {
                        checker.add(e, line);
                      }))
    return kExitError;
  checker.finish();

  const auto& violations = checker.violations();
  if (violations.empty()) {
    std::printf("glap-trace check: OK — %llu events, 0 violations\n",
                static_cast<unsigned long long>(checker.events_checked()));
    return kExitOk;
  }
  std::uint64_t printed = 0;
  for (const auto& v : violations) {
    if (printed++ >= max_print) {
      std::fprintf(stderr, "  ... (%zu more; raise --max-print)\n",
                   violations.size() - static_cast<std::size_t>(max_print));
      break;
    }
    std::fprintf(stderr, "%s:%zu: [%s] round %llu: %s\n", args.file.c_str(),
                 v.line, v.rule.c_str(),
                 static_cast<unsigned long long>(v.round),
                 v.message.c_str());
  }
  std::fprintf(stderr,
               "glap-trace check: FAIL — %zu violation(s) in %llu events\n",
               violations.size(),
               static_cast<unsigned long long>(checker.events_checked()));
  return kExitViolations;
}

// ---- stats --------------------------------------------------------------

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4g", v);
  return buf;
}

int cmd_stats(const Args& args) {
  trace::StatsCollector collector;
  if (!for_each_event(args.file,
                      [&](const trace::TraceEvent& e, std::size_t) {
                        collector.add(e);
                      }))
    return kExitError;
  const trace::TraceStats& stats = collector.stats();

  std::vector<std::vector<std::string>> count_rows;
  for (const trace::WireName& kind :
       trace::WireNames<trace::EventKind>::kEntries)
    count_rows.push_back(
        {std::string(kind.name), std::to_string(stats.counts[kind.code])});

  const std::vector<std::pair<const char*, const std::vector<double>*>>
      fields = {
          {"migration.cpu", &stats.migration_cpu},
          {"migration.energy_j", &stats.migration_energy_j},
          {"shuffle.sent", &stats.shuffle_sent},
          {"overload.cpu", &stats.overload_cpu},
          {"qsim.similarity", &stats.qsim_similarity},
          {"net.send_bytes", &stats.net_send_bytes},
          {"net.deliver_delay", &stats.net_deliver_delay},
          {"round.active_pms", &stats.round_active_pms},
          {"round.overloaded_pms", &stats.round_overloaded_pms},
          {"round.migrations", &stats.round_migrations},
          {"round.messages", &stats.round_messages},
          {"round.bytes", &stats.round_bytes},
      };
  std::vector<std::vector<std::string>> field_rows;
  for (const auto& [name, values] : fields) {
    const PercentileSummary s = summarize(*values);
    field_rows.push_back({name, std::to_string(s.count), fmt(s.min),
                          fmt(s.p10), fmt(s.median), fmt(s.p90), fmt(s.p95),
                          fmt(s.p99), fmt(s.max), fmt(s.mean)});
  }

  std::printf("%-14s %s\n", "event", "count");
  for (const auto& row : count_rows)
    std::printf("%-14s %s\n", row[0].c_str(), row[1].c_str());
  std::printf("rounds %llu..%llu, %llu lines total\n",
              static_cast<unsigned long long>(stats.first_round),
              static_cast<unsigned long long>(stats.last_round),
              static_cast<unsigned long long>(stats.total_lines));
  std::printf("\n%-22s %-7s %-9s %-9s %-9s %-9s %-9s %-9s %-9s %s\n",
              "field", "n", "min", "p10", "p50", "p90", "p95", "p99", "max",
              "mean");
  for (const auto& row : field_rows)
    std::printf("%-22s %-7s %-9s %-9s %-9s %-9s %-9s %-9s %-9s %s\n",
                row[0].c_str(), row[1].c_str(), row[2].c_str(),
                row[3].c_str(), row[4].c_str(), row[5].c_str(),
                row[6].c_str(), row[7].c_str(), row[8].c_str(),
                row[9].c_str());

  if (has_flag(args, "--results")) {
    harness::BenchReport report(
        "trace_stats", "Trace statistics — per-event-kind counts and "
                       "field percentiles (150-PM GLAP reference trace)");
    report.add_table("events", {"event", "count"}, count_rows);
    report.add_table("fields",
                     {"field", "n", "min", "p10", "p50", "p90", "p95",
                      "p99", "max", "mean"},
                     field_rows);
    report.add_headline("total_lines", std::to_string(stats.total_lines));
    report.add_headline("first_round", std::to_string(stats.first_round));
    report.add_headline("last_round", std::to_string(stats.last_round));
    std::printf("wrote %s\n", report.write().c_str());
  }
  return kExitOk;
}

// ---- convert ------------------------------------------------------------

int cmd_convert(const Args& args) {
  if (args.file2.empty()) {
    std::fprintf(stderr, "glap-trace convert: needs <in> <out>\n");
    return kExitError;
  }
  std::ifstream in(args.file, std::ios::binary);
  if (!in.is_open()) {
    std::fprintf(stderr, "glap-trace: cannot open '%s'\n", args.file.c_str());
    return kExitError;
  }
  trace::TraceReader reader(in);

  bool to_gtb = false;
  bool truncated = false;
  std::ofstream out;
  std::string buf;
  // Opened lazily, after the reader has sniffed the input encoding, so
  // the default target can be "the other format".
  auto open_out = [&]() -> bool {
    const auto to = args.flags.find("--to");
    if (to == args.flags.end()) {
      to_gtb = !reader.binary();
    } else if (to->second == "jsonl" || to->second == "gtb") {
      to_gtb = to->second == "gtb";
    } else {
      std::fprintf(stderr,
                   "glap-trace convert: --to wants 'jsonl' or 'gtb', "
                   "got '%s'\n",
                   to->second.c_str());
      return false;
    }
    out.open(args.file2, std::ios::binary | std::ios::trunc);
    if (!out.is_open()) {
      std::fprintf(stderr, "glap-trace: cannot open '%s' for writing\n",
                   args.file2.c_str());
      return false;
    }
    if (to_gtb) {
      buf.clear();
      trace::append_gtb_header(&buf);
      out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    }
    return true;
  };

  std::size_t records = 0;
  trace::TraceEvent event;
  std::string error;
  while (true) {
    const auto status = reader.next(&event, &error);
    if (status == trace::TraceReader::Status::kEof) break;
    if (status == trace::TraceReader::Status::kTruncated) {
      std::fprintf(stderr,
                   "glap-trace: warning: %s:%zu: %s — converting the "
                   "records before the cut\n",
                   args.file.c_str(), reader.line_number(), error.c_str());
      truncated = true;
      break;
    }
    if (status == trace::TraceReader::Status::kError) {
      std::fprintf(stderr, "glap-trace: %s:%zu: %s\n", args.file.c_str(),
                   reader.line_number(), error.c_str());
      return kExitError;
    }
    if (!out.is_open() && !open_out()) return kExitError;
    buf.clear();
    if (to_gtb)
      trace::append_gtb_record(event, &buf);
    else
      trace::render_jsonl(event, &buf);
    out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    ++records;
  }
  if (!out.is_open() && !open_out()) return kExitError;  // empty input
  out.flush();
  if (!out.good()) {
    std::fprintf(stderr, "glap-trace: write to '%s' failed\n",
                 args.file2.c_str());
    return kExitError;
  }
  std::fprintf(stderr, "glap-trace convert: %zu record(s) -> %s (%s)%s\n",
               records, args.file2.c_str(), to_gtb ? "gtb" : "jsonl",
               truncated ? ", input truncated" : "");
  return kExitOk;
}

// ---- gen ----------------------------------------------------------------

int cmd_gen(const Args& args) {
  harness::ExperimentConfig config;
  config.algorithm = harness::Algorithm::kGlap;
  config.pm_count = 150;
  config.vm_ratio = 2;
  config.warmup_rounds = 200;
  config.rounds = 150;
  config.seed = 42;

  const auto algo = args.flags.find("--algorithm");
  if (algo != args.flags.end()) {
    const std::string& name = algo->second;
    if (name == "GLAP") config.algorithm = harness::Algorithm::kGlap;
    else if (name == "GRMP") config.algorithm = harness::Algorithm::kGrmp;
    else if (name == "EcoCloud")
      config.algorithm = harness::Algorithm::kEcoCloud;
    else if (name == "PABFD") config.algorithm = harness::Algorithm::kPabfd;
    else {
      std::fprintf(stderr,
                   "glap-trace gen: unknown --algorithm '%s' (want GLAP, "
                   "GRMP, EcoCloud or PABFD)\n",
                   name.c_str());
      return kExitError;
    }
  }
  // Every numeric flag is parsed here, before the run starts: PM ids are
  // sim::NodeId below the engine's kInvalidNode, round counts sim::Round.
  constexpr std::uint64_t kMaxRound = std::numeric_limits<sim::Round>::max();
  config.pm_count = flag_uint(args, "--pms", 150, 1, sim::kInvalidNode - 1);
  config.vm_ratio = flag_uint(args, "--ratio", 2, 1, sim::kInvalidNode - 1);
  config.warmup_rounds =
      static_cast<sim::Round>(flag_uint(args, "--warmup", 200, 0, kMaxRound));
  config.rounds =
      static_cast<sim::Round>(flag_uint(args, "--rounds", 150, 0, kMaxRound));
  config.seed = flag_uint(args, "--seed", 42, 0,
                          std::numeric_limits<std::uint64_t>::max());
  const std::uint64_t epsilon_pct =
      flag_uint(args, "--epsilon-pct", 15, 0, 100);
  const auto idle_rounds = static_cast<sim::Round>(
      flag_uint(args, "--idle-rounds", 8, 0, kMaxRound));
  const std::uint64_t loss_pct = flag_uint(args, "--loss", 0, 0, 100);
  if (has_flag(args, "--quiesce")) {
    // Quiescence defaults tuned for short gen runs: wake on any visible
    // demand move, park after a short calm streak.
    config.glap.quiescence.enabled = true;
    config.glap.quiescence.demand_epsilon =
        0.01 * static_cast<double>(epsilon_pct);
    config.glap.quiescence.idle_rounds = idle_rounds;
  }
  if (has_flag(args, "--net") || has_flag(args, "--loss")) {
    // Network model (DESIGN.md §13): --loss takes percent (1 = 1% drop).
    config.network.enabled = true;
    config.network.loss_rate = 0.01 * static_cast<double>(loss_pct);
  }
  config.fit_glap_phases_to_warmup();
  config.observability.trace_path = args.file;
  if (has_flag(args, "--binary"))
    config.observability.trace_format = trace::Format::kGtb;
  // Sampling keeps take percent, like --loss: --sample-net 10 keeps ~10%
  // of net messages (decided per message by a pure hash, DESIGN.md §10.6).
  config.observability.trace_sample_shuffle =
      0.01 * flag_percent(args, "--sample-shuffle", 100.0);
  config.observability.trace_sample_net =
      0.01 * flag_percent(args, "--sample-net", 100.0);
  const auto flight_dump = args.flags.find("--flight-dump");
  if (flight_dump != args.flags.end())
    config.observability.flight_dump_path = flight_dump->second;

  std::fprintf(stderr, "glap-trace gen: %s -> %s\n", config.label().c_str(),
               args.file.c_str());
  const harness::RunResult result = harness::run_experiment(config);
  std::fprintf(stderr,
               "glap-trace gen: %zu evaluation rounds, %llu migrations\n",
               result.rounds.size(),
               static_cast<unsigned long long>(result.total_migrations));
  return kExitOk;
}

/// A subcommand and the only flags it accepts.
struct Command {
  std::string_view name;
  int (*run)(const Args&);
  std::vector<std::string_view> flags;
};

const std::vector<Command>& commands() {
  static const std::vector<Command> table = {
      {"lineage", cmd_lineage, {"--vm", "--pm", "--top"}},
      {"episodes", cmd_episodes, {"--pm", "--min-rounds"}},
      {"check", cmd_check, {"--churn-tolerant", "--strict", "--max-print"}},
      {"stats", cmd_stats, {"--results"}},
      {"convert", cmd_convert, {"--to"}},
      {"gen",
       cmd_gen,
       {"--algorithm", "--pms", "--ratio", "--warmup", "--rounds", "--seed",
        "--quiesce", "--epsilon-pct", "--idle-rounds", "--net", "--loss",
        "--binary", "--sample-shuffle", "--sample-net", "--flight-dump"}},
  };
  return table;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  const Command* command = nullptr;
  for (const Command& c : commands())
    if (c.name == cmd) command = &c;
  if (command == nullptr) {
    std::fprintf(stderr, "glap-trace: unknown subcommand '%s'\n", cmd.c_str());
    return usage();
  }
  Args args;
  if (!parse_args(argc, argv, &args)) return usage();
  for (const auto& [flag, value] : args.flags) {
    if (std::find(command->flags.begin(), command->flags.end(), flag) ==
        command->flags.end()) {
      std::fprintf(stderr, "glap-trace %s: unknown flag '%s'\n", cmd.c_str(),
                   flag.c_str());
      return usage();
    }
  }
  if (cmd != "convert" && !args.file2.empty()) {
    std::fprintf(stderr, "glap-trace: unexpected argument '%s'\n",
                 args.file2.c_str());
    return usage();
  }
  try {
    return command->run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "glap-trace: %s\n", e.what());
    return kExitError;
  }
}
