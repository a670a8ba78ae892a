// End-to-end trace toolchain: the JSONL trace of a 150-PM run of every
// algorithm parses cleanly, satisfies every invariant `glap-trace check`
// enforces, and stays consistent with the run's own aggregates; a
// hand-corrupted trace is flagged with a pointed diagnostic.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/trace_check.hpp"
#include "common/trace_reader.hpp"
#include "harness/runner.hpp"

namespace glap::harness {
namespace {

ExperimentConfig tools_config(Algorithm algorithm) {
  ExperimentConfig config;
  config.algorithm = algorithm;
  config.pm_count = 150;
  config.vm_ratio = 2;
  config.warmup_rounds = 80;
  config.rounds = 60;
  config.seed = 42;
  config.fit_glap_phases_to_warmup();
  return config;
}

struct TracedRun {
  RunResult result;
  std::vector<trace::TraceEvent> events;
};

TracedRun run_traced(ExperimentConfig config) {
  std::ostringstream sink;
  config.observability.trace_sink = &sink;
  TracedRun run;
  run.result = run_experiment(config);

  std::istringstream in(sink.str());
  trace::TraceReader reader(in);
  trace::TraceEvent event;
  std::string error;
  while (true) {
    const auto status = reader.next(&event, &error);
    EXPECT_NE(status, trace::TraceReader::Status::kError)
        << "line " << reader.line_number() << ": " << error;
    if (status != trace::TraceReader::Status::kEvent) break;
    run.events.push_back(event);
  }
  return run;
}

class TraceToolsTest : public ::testing::TestWithParam<Algorithm> {};

TEST_P(TraceToolsTest, TraceSatisfiesEveryInvariantAt150Pms) {
  const TracedRun run = run_traced(tools_config(GetParam()));
  ASSERT_FALSE(run.events.empty());

  trace::InvariantChecker checker;
  std::size_t line = 0;
  for (const auto& e : run.events) checker.add(e, ++line);
  checker.finish();
  for (const auto& v : checker.violations())
    ADD_FAILURE() << "line " << v.line << " [" << v.rule
                  << "]: " << v.message;
  EXPECT_EQ(checker.events_checked(), run.events.size());
}

TEST_P(TraceToolsTest, TraceAgreesWithTheRunsOwnAggregates) {
  const ExperimentConfig config = tools_config(GetParam());
  const TracedRun run = run_traced(config);

  trace::StatsCollector stats;
  trace::LineageBuilder lineage;
  for (const auto& e : run.events) {
    stats.add(e);
    lineage.add(e);
  }
  const auto& counts = stats.stats().counts;
  const auto count = [&](trace::EventKind k) {
    return counts[static_cast<std::size_t>(k)];
  };

  // Consolidation runs only in the evaluation window, so every migration
  // event must be accounted for in the run's total.
  EXPECT_EQ(count(trace::EventKind::kMigration),
            run.result.total_migrations);
  EXPECT_EQ(count(trace::EventKind::kRound),
            static_cast<std::uint64_t>(config.rounds));

  std::uint64_t hops = 0;
  for (const auto& [vm, chain] : lineage.vm_chains()) hops += chain.size();
  EXPECT_EQ(hops, run.result.total_migrations);
}

INSTANTIATE_TEST_SUITE_P(Algorithms, TraceToolsTest,
                         ::testing::Values(Algorithm::kGlap, Algorithm::kGrmp,
                                           Algorithm::kEcoCloud,
                                           Algorithm::kPabfd),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(TraceTools, CorruptedTraceIsFlaggedWithAPointedDiagnostic) {
  TracedRun run = run_traced(tools_config(Algorithm::kPabfd));

  // Hand-corrupt the first migration: redirect it onto its source PM.
  bool corrupted = false;
  for (auto& e : run.events)
    if (e.kind == trace::EventKind::kMigration) {
      e.migration.to = e.migration.from;
      corrupted = true;
      break;
    }
  ASSERT_TRUE(corrupted) << "run produced no migrations to corrupt";

  trace::InvariantChecker checker;
  std::size_t line = 0;
  for (const auto& e : run.events) checker.add(e, ++line);
  checker.finish();

  ASSERT_FALSE(checker.violations().empty());
  const auto& v = checker.violations().front();
  EXPECT_EQ(v.rule, "migration-self");
  EXPECT_NE(v.message.find("onto itself"), std::string::npos) << v.message;
  EXPECT_GT(v.line, 0u);
}

}  // namespace
}  // namespace glap::harness
