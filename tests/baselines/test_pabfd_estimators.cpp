// Tests for PABFD's alternative adaptive-threshold estimators (the GLAP
// paper notes the comparator work evaluated MAD, IQR and Robust Local
// Regression).
#include <gtest/gtest.h>

#include "baselines/pabfd.hpp"

namespace glap::baselines {
namespace {

TEST(Iqr, HandComputedValues) {
  // Sorted {1..8}: Q1 = 2.75, Q3 = 6.25 (linear interpolation) -> 3.5.
  EXPECT_DOUBLE_EQ(PabfdManager::iqr({1, 2, 3, 4, 5, 6, 7, 8}), 3.5);
  EXPECT_DOUBLE_EQ(PabfdManager::iqr({4, 4, 4}), 0.0);
  EXPECT_DOUBLE_EQ(PabfdManager::iqr({7}), 0.0);
  EXPECT_THROW((void)PabfdManager::iqr({}), precondition_error);
}

TEST(Iqr, OrderIndependent) {
  EXPECT_DOUBLE_EQ(PabfdManager::iqr({8, 1, 6, 3, 5, 2, 7, 4}),
                   PabfdManager::iqr({1, 2, 3, 4, 5, 6, 7, 8}));
}

TEST(LrForecast, ExtrapolatesLinearTrend) {
  // y = 2t + 1 over t=0..4 -> forecast at t=5 is 11.
  EXPECT_NEAR(PabfdManager::lr_forecast({1, 3, 5, 7, 9}), 11.0, 1e-9);
}

TEST(LrForecast, FlatSeriesForecastsItself) {
  EXPECT_NEAR(PabfdManager::lr_forecast({0.5, 0.5, 0.5, 0.5}), 0.5, 1e-12);
}

TEST(LrForecast, DecreasingTrend) {
  EXPECT_LT(PabfdManager::lr_forecast({0.9, 0.7, 0.5, 0.3}), 0.3);
  EXPECT_THROW((void)PabfdManager::lr_forecast({1.0}), precondition_error);
}

/// Rounds each bed runs: past PabfdManager::kMinHistory, so the
/// estimator (not the default threshold) decides.
constexpr int kRounds = static_cast<int>(PabfdManager::kMinHistory) + 2;

/// Two PMs with both VMs on the manager's PM 0: the empty PM 1 sleeps at
/// the first controller period, and no consolidation ever moves a VM onto
/// PM 0, so its history is exactly the demand the test feeds.
struct EstimatorBed {
  cloud::DataCenter dc;
  sim::Engine engine;
  sim::Slot<PabfdManager> slot;

  explicit EstimatorBed(const PabfdConfig& config)
      : dc(2, 2, cloud::DataCenterConfig{}),
        engine(2, 1),
        slot(PabfdManager::install(engine, config, dc)) {
    dc.place(0, 0);
    dc.place(1, 0);
  }

  void run_rounds(int n, double lo, double hi) {
    for (int round = 0; round < n; ++round) {
      const double f = (round % 2 == 0) ? lo : hi;
      std::vector<Resources> demands(2, Resources{f, 0.2});
      dc.observe_demands(demands);
      engine.step();
    }
  }

  double threshold() {
    return engine.protocol_at(slot, 0).upper_threshold(0);
  }
};

TEST(Estimators, VolatileHistoryLowersThresholdForAll) {
  for (ThresholdEstimator est : {ThresholdEstimator::kMad,
                                 ThresholdEstimator::kIqr}) {
    const PabfdConfig config{.estimator = est};
    EstimatorBed volatile_bed(config);
    volatile_bed.run_rounds(kRounds, 0.2, 0.8);
    EstimatorBed stable_bed(config);
    stable_bed.run_rounds(kRounds, 0.5, 0.5);
    EXPECT_LT(volatile_bed.threshold(), stable_bed.threshold())
        << to_string(est);
    EXPECT_DOUBLE_EQ(stable_bed.threshold(), 1.0) << to_string(est);
  }
}

TEST(Estimators, LrPenalizesRisingTrend) {
  const PabfdConfig config{.estimator = ThresholdEstimator::kLr};
  // Rising utilization: each VM ramps its demand upward.
  EstimatorBed rising(config);
  for (int round = 0; round < kRounds; ++round) {
    const double f = 0.1 + 0.05 * round;
    std::vector<Resources> demands(2, Resources{f, 0.2});
    rising.dc.observe_demands(demands);
    rising.engine.step();
  }
  EstimatorBed flat(config);
  flat.run_rounds(kRounds, 0.5, 0.5);
  EXPECT_LT(rising.threshold(), flat.threshold());
  EXPECT_NEAR(flat.threshold(), 1.0, 1e-9);
}

TEST(Estimators, NamesRoundTrip) {
  EXPECT_STREQ(to_string(ThresholdEstimator::kMad), "MAD");
  EXPECT_STREQ(to_string(ThresholdEstimator::kIqr), "IQR");
  EXPECT_STREQ(to_string(ThresholdEstimator::kLr), "LR");
}

}  // namespace
}  // namespace glap::baselines
