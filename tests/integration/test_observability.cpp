// Observability integration: the traces of a tiny 8-PM GLAP run and of a
// small all-kinds run match their committed golden files byte-for-byte
// in both encodings, and metric/trace output is reproducible run to run.
//
// Regenerate the golden files after an intentional trace-schema change
// by running the *GoldenFile tests with GLAP_UPDATE_GOLDEN=1 set:
//
//   GLAP_UPDATE_GOLDEN=1 ./build/tests/test_integration
//       --gtest_filter='Observability.*GoldenFile'
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "common/flight_recorder.hpp"
#include "common/metrics.hpp"
#include "common/trace_check.hpp"
#include "common/trace_format.hpp"
#include "harness/runner.hpp"
#include "support/golden.hpp"

namespace glap::harness {
namespace {

ExperimentConfig tiny_config() {
  ExperimentConfig config;
  config.algorithm = Algorithm::kGlap;
  config.pm_count = 8;
  config.vm_ratio = 2;
  config.warmup_rounds = 20;
  config.rounds = 8;
  config.seed = 5;
  config.fit_glap_phases_to_warmup();
  return config;
}

struct Captured {
  std::string trace;
  std::string metrics_json;
};

Captured run_captured(ExperimentConfig config) {
  std::ostringstream sink;
  config.observability.metrics = true;
  config.observability.trace_sink = &sink;
  const RunResult result = run_experiment(config);
  Captured captured;
  captured.trace = sink.str();
  std::ostringstream metrics_out;
  result.metrics->write_json(metrics_out);
  captured.metrics_json = metrics_out.str();
  return captured;
}

TEST(Observability, TraceMatchesGoldenFile) {
  const std::string path =
      std::string(GLAP_TESTS_DIR) + "/integration/golden/trace_8pm.jsonl";
  const Captured captured = run_captured(tiny_config());
  ASSERT_FALSE(captured.trace.empty());
  testing_support::expect_matches_golden(
      path, captured.trace,
      "trace schema or event stream changed; if intentional, regenerate "
      "with GLAP_UPDATE_GOLDEN=1");
}

TEST(Observability, GtbTraceMatchesGoldenFile) {
  const std::string path =
      std::string(GLAP_TESTS_DIR) + "/integration/golden/trace_8pm.gtb";
  ExperimentConfig config = tiny_config();
  config.observability.trace_format = trace::Format::kGtb;
  const Captured captured = run_captured(config);
  ASSERT_GT(captured.trace.size(), trace::kGtbHeaderBytes);
  testing_support::expect_matches_golden(
      path, captured.trace,
      "GTB wire format or event stream changed; if intentional, regenerate "
      "with GLAP_UPDATE_GOLDEN=1 (and check the JSONL golden too)");
}

// A small run that exercises every emit site: the network model at 1%
// loss with migration contention on links slow enough to congestion-drop,
// quiescence, churn with re-learning and the Fig. 5 convergence probe.
// Its two goldens pin one or more lines of every event kind and every
// net op. The seed is the first from 0 whose trace covers all of them,
// including a congestion drop and an uplink queue line.
ExperimentConfig all_kinds_config() {
  ExperimentConfig config = tiny_config();
  config.pm_count = 8;
  config.vm_ratio = 4;
  config.warmup_rounds = 12;
  config.rounds = 12;
  config.seed = 14;
  config.track_convergence = true;
  config.convergence_pairs = 8;
  config.network.enabled = true;
  config.network.loss_rate = 0.01;
  config.network.migration_contention = true;
  config.network.access_gbps = 0.02;
  config.rack_size = 4;
  config.glap.quiescence.enabled = true;
  config.glap.quiescence.demand_epsilon = 0.15;
  config.glap.quiescence.idle_rounds = 2;
  config.glap.quiescence.similarity_threshold = 0.5;
  config.churn.enabled = true;
  config.churn.departure_prob = 0.02;
  config.churn.arrival_prob = 0.2;
  config.churn.initial_placed_fraction = 0.9;
  config.churn.relearn_min_interval = 6;
  config.churn.relearn_learning_rounds = 4;
  config.churn.relearn_aggregation_rounds = 4;
  config.fit_glap_phases_to_warmup();
  return config;
}

TEST(Observability, AllKindsTraceCoversEveryKindAndNetOp) {
  const Captured captured = run_captured(all_kinds_config());
  std::istringstream in(captured.trace);
  trace::TraceReader reader(in);
  trace::StatsCollector stats;
  // Churn departures leave no trace event, hence churn_tolerant.
  trace::InvariantChecker checker({.churn_tolerant = true});
  std::uint64_t sends = 0, delivers = 0, loss_drops = 0, congestion_drops = 0,
                uplink_queues = 0;
  trace::TraceEvent e;
  std::string error;
  while (reader.next(&e, &error) == trace::TraceReader::Status::kEvent) {
    stats.add(e);
    checker.add(e, reader.line_number());
    if (e.kind != trace::EventKind::kNet) continue;
    sends += e.net.op == trace::NetOp::kSend;
    delivers += e.net.op == trace::NetOp::kDeliver;
    loss_drops += e.net.op == trace::NetOp::kDrop &&
                  e.net.reason == trace::DropReason::kLoss;
    congestion_drops += e.net.op == trace::NetOp::kDrop &&
                        e.net.reason == trace::DropReason::kCongestion;
    uplink_queues += e.net.op == trace::NetOp::kQueue &&
                     e.net.link == trace::Link::kUplink;
  }
  EXPECT_TRUE(error.empty()) << error;
  checker.finish();
  for (const trace::Violation& v : checker.violations())
    ADD_FAILURE() << "line " << v.line << " [" << v.rule << "] " << v.message;
  for (const trace::EventKind kind :
       {trace::EventKind::kMigration, trace::EventKind::kPower,
        trace::EventKind::kShuffle, trace::EventKind::kOverload,
        trace::EventKind::kActivity, trace::EventKind::kNet,
        trace::EventKind::kRound, trace::EventKind::kQsim,
        trace::EventKind::kRelearn})
    EXPECT_GT(stats.stats().counts[static_cast<std::size_t>(kind)], 0u)
        << trace::wire_name(kind);
  EXPECT_GT(sends, 0u);
  EXPECT_GT(delivers, 0u);
  EXPECT_GT(loss_drops, 0u);
  EXPECT_GT(congestion_drops, 0u);
  EXPECT_GT(uplink_queues, 0u);
}

TEST(Observability, AllKindsTraceMatchesGoldenFile) {
  const std::string path =
      std::string(GLAP_TESTS_DIR) + "/integration/golden/trace_allkinds.jsonl";
  const Captured captured = run_captured(all_kinds_config());
  testing_support::expect_matches_golden(
      path, captured.trace,
      "trace schema or event stream changed; if intentional, regenerate "
      "with GLAP_UPDATE_GOLDEN=1");
}

TEST(Observability, AllKindsGtbTraceMatchesGoldenFile) {
  const std::string path =
      std::string(GLAP_TESTS_DIR) + "/integration/golden/trace_allkinds.gtb";
  ExperimentConfig config = all_kinds_config();
  config.observability.trace_format = trace::Format::kGtb;
  const Captured captured = run_captured(config);
  testing_support::expect_matches_golden(
      path, captured.trace,
      "GTB wire format or event stream changed; if intentional, regenerate "
      "with GLAP_UPDATE_GOLDEN=1 (and check the JSONL golden too)");
}

TEST(Observability, GtbAndJsonlTracesDecodeIdentically) {
  // The two goldens pin the same run; here the live streams are checked
  // against each other: every analyzer outcome (check violations, stats)
  // must be byte-identical whichever encoding carried the events.
  const Captured jsonl = run_captured(tiny_config());
  ExperimentConfig config = tiny_config();
  config.observability.trace_format = trace::Format::kGtb;
  const Captured gtb = run_captured(config);
  ASSERT_LT(gtb.trace.size(), jsonl.trace.size());

  const auto analyze = [](const std::string& bytes) {
    std::istringstream in(bytes);
    trace::TraceReader reader(in);
    trace::InvariantChecker checker;
    trace::StatsCollector stats;
    std::string rendered;
    trace::TraceEvent e;
    std::string error;
    while (true) {
      const auto status = reader.next(&e, &error);
      EXPECT_NE(status, trace::TraceReader::Status::kError)
          << "record " << reader.line_number() << ": " << error;
      if (status != trace::TraceReader::Status::kEvent) break;
      checker.add(e, reader.line_number());
      stats.add(e);
      trace::render_jsonl(e, &rendered);
    }
    checker.finish();
    EXPECT_TRUE(checker.violations().empty());
    struct Outcome {
      std::string rendered;
      std::uint64_t events = 0;
      std::uint64_t migrations = 0;
    } outcome;
    outcome.rendered = std::move(rendered);
    outcome.events = checker.events_checked();
    outcome.migrations = stats.stats().counts[static_cast<std::size_t>(
        trace::EventKind::kMigration)];
    return outcome;
  };

  const auto a = analyze(jsonl.trace);
  const auto b = analyze(gtb.trace);
  EXPECT_EQ(a.rendered, b.rendered);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.migrations, b.migrations);
  // The JSONL stream re-rendered from its own parse is the stream itself,
  // so transitively the GTB trace converts to the exact JSONL bytes.
  EXPECT_EQ(a.rendered, jsonl.trace);
}

TEST(Observability, TraceCarriesTheExpectedEventMix) {
  const Captured captured = run_captured(tiny_config());
  const ExperimentConfig config = tiny_config();
  std::size_t round_lines = 0;
  std::istringstream lines(captured.trace);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("{\"ev\":\"round\"", 0) == 0) ++round_lines;
  }
  // One summary line per evaluation round.
  EXPECT_EQ(round_lines, config.rounds);
  // The GLAP warmup emits gossip shuffles.
  EXPECT_NE(captured.trace.find("\"ev\":\"shuffle\""), std::string::npos);
}

TEST(Observability, MetricsAndTraceAreReproducible) {
  ExperimentConfig config;
  config.algorithm = Algorithm::kGlap;
  config.pm_count = 32;
  config.vm_ratio = 3;
  config.warmup_rounds = 40;
  config.rounds = 15;
  config.seed = 9;
  config.fit_glap_phases_to_warmup();
  // Profiler counts are part of the snapshot identity contract: with
  // profile on, the registry carries profile.<phase>.calls counters that
  // must also be bit-identical run to run.
  config.observability.profile = true;

  const Captured first = run_captured(config);
  const Captured second = run_captured(config);

  EXPECT_EQ(first.trace, second.trace);
  EXPECT_EQ(first.metrics_json, second.metrics_json);
  EXPECT_NE(first.metrics_json.find("profile."), std::string::npos);
}

TEST(Observability, MetricsSinksWriteFiles) {
  ExperimentConfig config = tiny_config();
  const std::string dir = ::testing::TempDir();
  config.observability.metrics_json_path = dir + "glap_metrics_test.json";
  config.observability.series_csv_path = dir + "glap_series_test.csv";
  const RunResult result = run_experiment(config);
  ASSERT_NE(result.metrics, nullptr);

  std::ifstream json_in(config.observability.metrics_json_path);
  ASSERT_TRUE(json_in.is_open());
  std::stringstream json_buf;
  json_buf << json_in.rdbuf();
  EXPECT_NE(json_buf.str().find("\"counters\""), std::string::npos);
  EXPECT_NE(json_buf.str().find("\"dc.migrations\""), std::string::npos);

  std::ifstream csv_in(config.observability.series_csv_path);
  ASSERT_TRUE(csv_in.is_open());
  std::string header;
  std::getline(csv_in, header);
  EXPECT_EQ(header,
            "round,active_pms,migrations_round,net_bytes,net_messages,"
            "overloaded_pms");
}

/// Runs tiny_config() with one file sink on /dev/full: the run must throw
/// naming the file, not report success over a truncated file. The tiny
/// run's flight ring dump fits inside the stream buffer, where only a
/// flush reveals the failure.
void expect_full_disk_fails(std::string ObservabilityConfig::*sink) {
  const std::string full = "/dev/full";
  if (!std::filesystem::exists(full)) GTEST_SKIP() << full << " is absent";
  ExperimentConfig config = tiny_config();
  config.observability.*sink = full;
  try {
    (void)run_experiment(config);
    ADD_FAILURE() << "run reported success after a failed write";
  } catch (const precondition_error& e) {
    EXPECT_NE(std::string(e.what()).find("'" + full + "'"),
              std::string::npos)
        << e.what();
  }
}

TEST(Observability, TraceSinkOnAFullDiskThrows) {
  expect_full_disk_fails(&ObservabilityConfig::trace_path);
}

TEST(Observability, MetricsJsonOnAFullDiskThrows) {
  expect_full_disk_fails(&ObservabilityConfig::metrics_json_path);
}

TEST(Observability, SeriesCsvOnAFullDiskThrows) {
  expect_full_disk_fails(&ObservabilityConfig::series_csv_path);
}

TEST(Observability, FlightDumpOnAFullDiskThrows) {
  expect_full_disk_fails(&ObservabilityConfig::flight_dump_path);
}

TEST(Observability, DisabledRunPublishesNoRegistry) {
  const RunResult result = run_experiment(tiny_config());
  EXPECT_EQ(result.metrics, nullptr);
}

TEST(Observability, FlightDumpIsAParseableTraceOfTheLastRounds) {
  // The recorder runs even with file tracing off; flight_dump_path forces
  // an end-of-run dump so the ring's contents can be inspected without a
  // crash. The dump must be a valid GTB trace of the last N rounds.
  ExperimentConfig config = tiny_config();
  config.observability.flight_dump_path =
      ::testing::TempDir() + "glap_flight_obs.gtb";
  (void)run_experiment(config);

  std::ifstream in(config.observability.flight_dump_path, std::ios::binary);
  ASSERT_TRUE(in.is_open());
  trace::TraceReader reader(in);
  trace::TraceEvent e;
  std::string error;
  std::uint64_t first_round = 0, last_round = 0, summaries = 0;
  bool any = false;
  while (reader.next(&e, &error) == trace::TraceReader::Status::kEvent) {
    if (!any) first_round = e.round;
    any = true;
    last_round = e.round;
    if (e.kind == trace::EventKind::kRound) ++summaries;
  }
  EXPECT_TRUE(error.empty()) << error;
  ASSERT_TRUE(any) << "flight dump holds no events";
  EXPECT_TRUE(reader.binary());
  // The ring's rounds, ending at the final evaluation round.
  static_assert(flight::FlightRecorder::kDefaultRounds == 8);
  ASSERT_EQ(config.rounds, 8u);
  EXPECT_EQ(summaries, 8u);
  EXPECT_GE(first_round, config.warmup_rounds);
  EXPECT_EQ(last_round, config.warmup_rounds + config.rounds - 1);
  std::remove(config.observability.flight_dump_path.c_str());
}

}  // namespace
}  // namespace glap::harness
