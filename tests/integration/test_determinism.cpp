// Harness-level determinism: run_experiment is a pure function of
// (config, seed). Two runs of the same config agree bit-for-bit — every
// per-round sample, every floating-point aggregate and the profile call
// counts — for every algorithm in the suite, and in the scenarios that
// exercise the most state: quiescence with churn, and the network model
// with loss (alone and with quiescence).
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/trace_format.hpp"
#include "harness/runner.hpp"

namespace glap::harness {
namespace {

ExperimentConfig small_config(Algorithm algorithm) {
  ExperimentConfig config;
  config.algorithm = algorithm;
  config.pm_count = 80;
  config.vm_ratio = 2;
  config.warmup_rounds = 60;
  config.rounds = 40;
  config.seed = 7;
  config.fit_glap_phases_to_warmup();
  // Profiler phase *counts* are part of the determinism contract
  // (DESIGN.md §10.4); wall-clock is not and is never compared.
  config.observability.profile = true;
  return config;
}

/// The deterministic half of the phase profile: (label, calls) pairs,
/// in report order. Wall-clock time is excluded.
std::vector<std::pair<std::string, std::uint64_t>> profile_calls(
    const RunResult& result) {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (const auto& phase : result.profile)
    out.emplace_back(phase.label, phase.calls);
  return out;
}

void expect_identical(const RunResult& a, const RunResult& b,
                      const char* what) {
  EXPECT_EQ(a.total_migrations, b.total_migrations) << what;
  EXPECT_EQ(a.migration_energy_j, b.migration_energy_j) << what;
  EXPECT_EQ(a.total_energy_j, b.total_energy_j) << what;
  EXPECT_EQ(a.slavo, b.slavo) << what;
  EXPECT_EQ(a.slalm, b.slalm) << what;
  EXPECT_EQ(a.slav, b.slav) << what;
  EXPECT_EQ(a.messages, b.messages) << what;
  EXPECT_EQ(a.bytes, b.bytes) << what;
  EXPECT_EQ(a.final_active_pms, b.final_active_pms) << what;
  EXPECT_EQ(a.final_overloaded_pms, b.final_overloaded_pms) << what;
  EXPECT_EQ(a.final_bfd_bins, b.final_bfd_bins) << what;
  EXPECT_EQ(profile_calls(a), profile_calls(b)) << what;
  ASSERT_EQ(a.rounds.size(), b.rounds.size()) << what;
  for (std::size_t r = 0; r < a.rounds.size(); ++r) {
    EXPECT_EQ(a.rounds[r].active_pms, b.rounds[r].active_pms)
        << what << " round " << r;
    EXPECT_EQ(a.rounds[r].overloaded_pms, b.rounds[r].overloaded_pms)
        << what << " round " << r;
    EXPECT_EQ(a.rounds[r].migrations_cum, b.rounds[r].migrations_cum)
        << what << " round " << r;
    EXPECT_EQ(a.rounds[r].migrations_round, b.rounds[r].migrations_round)
        << what << " round " << r;
    EXPECT_EQ(a.rounds[r].migration_energy_j, b.rounds[r].migration_energy_j)
        << what << " round " << r;
    EXPECT_EQ(a.rounds[r].quiescent_pms, b.rounds[r].quiescent_pms)
        << what << " round " << r;
  }
}

class DeterminismTest : public ::testing::TestWithParam<Algorithm> {};

TEST_P(DeterminismTest, RunIsReproducible) {
  const ExperimentConfig config = small_config(GetParam());
  const RunResult a = run_experiment(config);
  const RunResult b = run_experiment(config);
  expect_identical(a, b, "repeat");
  EXPECT_FALSE(a.profile.empty()) << "profile was not collected";
}

INSTANTIATE_TEST_SUITE_P(Algorithms, DeterminismTest,
                         ::testing::Values(Algorithm::kGlap, Algorithm::kGrmp,
                                           Algorithm::kEcoCloud,
                                           Algorithm::kPabfd),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

// Quiescence contract: a run long enough for PMs to converge and park,
// with churn and demand drift supplying gossip / demand / migration
// re-activations, must be reproducible AND must actually exercise the
// park/wake cycle (otherwise this test would pass vacuously).
TEST(Determinism, QuiescenceWithChurnIsReproducible) {
  ExperimentConfig config = small_config(Algorithm::kGlap);
  config.rounds = 80;
  config.glap.quiescence.enabled = true;
  config.glap.quiescence.idle_rounds = 3;
  config.glap.quiescence.demand_epsilon = 0.10;
  config.churn.enabled = true;
  config.churn.departure_prob = 0.003;
  config.churn.arrival_prob = 0.05;
  const RunResult serial = run_experiment(config);
  expect_identical(serial, run_experiment(config), "repeat+quiescence+churn");

  std::uint32_t peak = 0;
  bool woke = false;
  for (std::size_t r = 0; r < serial.rounds.size(); ++r) {
    peak = std::max(peak, serial.rounds[r].quiescent_pms);
    if (r > 0 &&
        serial.rounds[r].quiescent_pms < serial.rounds[r - 1].quiescent_pms)
      woke = true;
  }
  EXPECT_GT(peak, 0u) << "no PM ever parked — the scenario is too noisy";
  EXPECT_TRUE(woke) << "no parked PM was ever re-activated";
}

// ---- Network model (DESIGN.md §13.3) ------------------------------------
// Message ids — and with them every loss decision and queueing outcome —
// are assigned in executed interaction order. The contract extends
// expect_identical with the network-model totals.

void expect_identical_net(const RunResult& a, const RunResult& b,
                          const char* what) {
  expect_identical(a, b, what);
  EXPECT_EQ(a.net_sends, b.net_sends) << what;
  EXPECT_EQ(a.net_delivered, b.net_delivered) << what;
  EXPECT_EQ(a.net_delayed, b.net_delayed) << what;
  EXPECT_EQ(a.net_dropped_loss, b.net_dropped_loss) << what;
  EXPECT_EQ(a.net_dropped_congestion, b.net_dropped_congestion) << what;
}

TEST(Determinism, NetworkRunIsReproducible) {
  ExperimentConfig config = small_config(Algorithm::kGlap);
  config.network.enabled = true;
  config.network.loss_rate = 0.01;
  const RunResult a = run_experiment(config);
  const RunResult b = run_experiment(config);
  expect_identical_net(a, b, "repeat+network");
  EXPECT_GT(a.net_dropped_loss, 0u) << "1% loss never fired";
}

// The baselines route probes and gossip through the model too.
class NetworkDeterminismTest : public ::testing::TestWithParam<Algorithm> {};

TEST_P(NetworkDeterminismTest, LossyRunIsReproducible) {
  ExperimentConfig config = small_config(GetParam());
  config.network.enabled = true;
  config.network.loss_rate = 0.01;
  const RunResult a = run_experiment(config);
  EXPECT_GT(a.net_sends, 0u) << "network model saw no traffic";
  expect_identical_net(a, run_experiment(config), "repeat+network");
}

INSTANTIATE_TEST_SUITE_P(Baselines, NetworkDeterminismTest,
                         ::testing::Values(Algorithm::kGrmp,
                                           Algorithm::kEcoCloud),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(Determinism, NetworkWithQuiescenceIsReproducible) {
  // Quiescence + network exercises the deferred-exchange machinery: a
  // delayed reply must block the initiator's park vote and the kNetwork
  // wake must fire identically in every run.
  ExperimentConfig config = small_config(Algorithm::kGlap);
  config.rounds = 60;
  config.network.enabled = true;
  config.network.loss_rate = 0.005;
  config.glap.quiescence.enabled = true;
  config.glap.quiescence.idle_rounds = 4;
  config.glap.quiescence.demand_epsilon = 0.10;
  const RunResult a = run_experiment(config);
  expect_identical_net(a, run_experiment(config), "repeat+network+quiescence");
  EXPECT_GT(a.net_sends, 0u) << "network model saw no traffic";
}

// ---- trace-byte determinism (DESIGN.md §10.6) ---------------------------
// The GTB binary trace's bytes — not just the decoded events — are part of
// the determinism contract, with or without sampling.

std::string captured_trace(ExperimentConfig config) {
  std::ostringstream sink;
  config.observability.trace_sink = &sink;
  config.observability.trace_format = trace::Format::kGtb;
  run_experiment(config);
  return sink.str();
}

TEST(Determinism, SampledGtbTraceIsReproducibleAndSmaller) {
  // Sampling keeps a pure-hash subset, so the surviving byte stream is
  // reproducible — and a strict subset of the full trace.
  ExperimentConfig config = small_config(Algorithm::kGlap);
  config.observability.trace_sample_shuffle = 0.25;
  const std::string sampled = captured_trace(config);
  ASSERT_GT(sampled.size(), trace::kGtbHeaderBytes);
  EXPECT_EQ(sampled, captured_trace(config));

  ExperimentConfig full = config;
  full.observability.trace_sample_shuffle = 1.0;
  EXPECT_LT(sampled.size(), captured_trace(full).size())
      << "0.25 shuffle keep did not shrink the trace";
}

}  // namespace
}  // namespace glap::harness
