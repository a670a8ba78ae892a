#include "net/network_model.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "common/metrics.hpp"
#include "common/tracing.hpp"

namespace glap::net {
namespace {

NetworkConfig healthy() {
  NetworkConfig c;
  c.enabled = true;
  return c;
}

TEST(NetworkModelTopology, RacksGroupConsecutiveIds) {
  NetworkModel net(100, 32, healthy(), 1);
  EXPECT_EQ(net.rack_of(0), 0u);
  EXPECT_EQ(net.rack_of(31), 0u);
  EXPECT_EQ(net.rack_of(32), 1u);
  EXPECT_EQ(net.rack_of(99), 3u);
  EXPECT_EQ(net.rack_count(), 4u);  // ceil(100 / 32)
}

TEST(NetworkModelTopology, RatesFollowOversubscription) {
  NetworkConfig c = healthy();
  c.access_gbps = 1.0;
  NetworkModel net(64, 32, c, 1);
  const double access = 1e9 / 8.0 * kRoundSeconds;
  EXPECT_DOUBLE_EQ(net.access_bytes_per_round(), access);
  // Uplink serves 32 PMs at 4:1 oversubscription = 8 access links' worth.
  static_assert(NetworkModel::kOversubscription == 4.0);
  EXPECT_DOUBLE_EQ(net.uplink_bytes_per_round(), access * 32.0 / 4.0);
}

TEST(NetworkModelTopology, ConfigValidationRejectsNonsense) {
  NetworkConfig c = healthy();
  c.loss_rate = 1.0;
  EXPECT_THROW(NetworkModel(10, 5, c, 1), precondition_error);
  c = healthy();
  c.access_gbps = 0.0;
  EXPECT_THROW(NetworkModel(10, 5, c, 1), precondition_error);
  EXPECT_THROW(NetworkModel(0, 5, healthy(), 1), precondition_error);
}

TEST(NetworkModelDelivery, HealthyFabricDeliversSameRound) {
  NetworkModel net(64, 32, healthy(), 7);
  net.begin_round(0);
  // Intra-rack and inter-rack gossip-sized exchanges both complete within
  // the round at healthy defaults — the modeled network is behaviorally
  // the ideal one.
  const Verdict intra = net.round_trip(0, 1, 128, 128, Channel::kShuffle);
  EXPECT_TRUE(intra.ok());
  const Verdict inter =
      net.round_trip(0, 40, 4096, 4096, Channel::kAggregation);
  EXPECT_TRUE(inter.ok());
  EXPECT_EQ(net.totals().sends, 2u);
  EXPECT_EQ(net.totals().delivered, 2u);
  EXPECT_EQ(net.totals().dropped_loss, 0u);
  EXPECT_EQ(net.totals().dropped_congestion, 0u);
}

TEST(NetworkModelDelivery, MsgIdsAreAssignedInAdmissionOrder) {
  NetworkModel net(64, 32, healthy(), 7);
  net.begin_round(0);
  EXPECT_EQ(net.round_trip(0, 1, 8, 8, Channel::kShuffle).msg_id, 0u);
  EXPECT_EQ(net.round_trip(2, 3, 8, 8, Channel::kShuffle).msg_id, 1u);
  EXPECT_EQ(net.round_trip(4, 5, 8, 8, Channel::kProbe).msg_id, 2u);
}

TEST(NetworkModelDelivery, PayloadChargesEveryLinkOnTheRoute) {
  NetworkModel net(64, 32, healthy(), 7);
  net.begin_round(0);
  net.round_trip(0, 40, 100, 50, Channel::kConsolidation);
  EXPECT_DOUBLE_EQ(net.access_backlog(0), 150.0);
  EXPECT_DOUBLE_EQ(net.access_backlog(40), 150.0);
  EXPECT_DOUBLE_EQ(net.uplink_backlog(0), 150.0);
  EXPECT_DOUBLE_EQ(net.uplink_backlog(1), 150.0);
  // Intra-rack traffic never touches an uplink.
  net.round_trip(1, 2, 100, 0, Channel::kConsolidation);
  EXPECT_DOUBLE_EQ(net.uplink_backlog(0), 150.0);
}

TEST(NetworkModelDelivery, BeginRoundDrainsOneRoundOfService) {
  NetworkModel net(64, 32, healthy(), 7);
  net.begin_round(0);
  net.round_trip(0, 1, 1000, 1000, Channel::kShuffle);
  EXPECT_GT(net.access_backlog(0), 0.0);
  // One round of 1 GbE service dwarfs a 2 kB backlog.
  net.begin_round(1);
  EXPECT_DOUBLE_EQ(net.access_backlog(0), 0.0);
}

TEST(NetworkModelDrops, DropTailCongestionRejectsAndKeepsQueue) {
  NetworkModel net(64, 32, healthy(), 7);
  net.begin_round(0);
  const double limit =
      NetworkModel::kQueueLimitRounds * net.access_bytes_per_round();
  const auto big = static_cast<std::size_t>(limit * 0.75);
  EXPECT_TRUE(net.round_trip(0, 1, big, 0, Channel::kAggregation).ok());
  const double before = net.access_backlog(0);
  const Verdict v = net.round_trip(0, 1, big, 0, Channel::kAggregation);
  EXPECT_EQ(v.reason, DropReason::kCongestion);
  // Drop-tail: the rejected payload never joins the queue.
  EXPECT_DOUBLE_EQ(net.access_backlog(0), before);
  EXPECT_EQ(net.totals().dropped_congestion, 1u);
}

TEST(NetworkModelDrops, AdmittedExchangeLandsInItsOwnRound) {
  // Drop-tail admission caps every queue below one round of service, so
  // even an exchange that queues behind nearly a quarter round of traffic
  // on every link of its route is delivered in the round it was sent.
  std::ostringstream out;
  {
    trace::TraceLog log(out);
    NetworkModel net(64, 32, healthy(), 7);
    net.set_telemetry(nullptr, &log);
    log.begin_round(0);
    net.begin_round(0);
    const double limit =
        NetworkModel::kQueueLimitRounds * net.access_bytes_per_round();
    ASSERT_DOUBLE_EQ(
        NetworkModel::kQueueLimitRounds * net.uplink_bytes_per_round(),
        8.0 * limit);
    const auto fill = static_cast<std::size_t>(limit) - 1000;
    // Eight cross-rack streams bring both uplinks to 8000 B under their
    // limit; two intra-rack ones bring the endpoints' access links to
    // 1000 B under theirs.
    for (sim::NodeId i = 0; i < 8; ++i)
      ASSERT_TRUE(
          net.round_trip(2 + i, 42 + i, fill, 0, Channel::kAggregation)
              .ok());
    ASSERT_TRUE(net.round_trip(0, 1, fill, 0, Channel::kAggregation).ok());
    ASSERT_TRUE(net.round_trip(40, 41, fill, 0, Channel::kAggregation).ok());
    const Verdict v = net.round_trip(0, 40, 500, 500, Channel::kAggregation);
    EXPECT_TRUE(v.ok());
    EXPECT_EQ(v.msg_id, 10u);
    // The route's access links now sit exactly at the limit: one more
    // byte is congestion-dropped.
    EXPECT_EQ(net.round_trip(0, 40, 1, 0, Channel::kAggregation).reason,
              DropReason::kCongestion);
    EXPECT_EQ(net.totals().delivered, 11u);
    log.commit_round();
  }
  EXPECT_NE(out.str().find("{\"ev\":\"net\",\"round\":0,\"op\":\"deliver\","
                           "\"src\":0,\"dst\":40,\"msg\":10,\"delay\":0}"),
            std::string::npos);
}

TEST(NetworkModelDrops, LossIsDeterministicPerSeedAndMsgId) {
  NetworkConfig c = healthy();
  c.loss_rate = 0.05;
  auto run = [&](std::uint64_t seed) {
    NetworkModel net(64, 32, c, seed);
    net.begin_round(0);
    std::vector<int> reasons;
    for (int i = 0; i < 400; ++i)
      reasons.push_back(static_cast<int>(
          net.round_trip(0, 1, 64, 64, Channel::kShuffle).reason));
    return reasons;
  };
  const auto a = run(42);
  EXPECT_EQ(a, run(42));  // same seed: identical verdict sequence
  EXPECT_NE(a, run(43));  // different seed: different loss pattern
  // ~9.75% round-trip loss over 400 trials: some of each, never all.
  const auto drops = static_cast<std::size_t>(
      std::count(a.begin(), a.end(), static_cast<int>(DropReason::kLoss)));
  EXPECT_GT(drops, 0u);
  EXPECT_LT(drops, 200u);
}

TEST(NetworkModelDrops, RoundTripLossExceedsOneWayLoss) {
  NetworkConfig c = healthy();
  c.loss_rate = 0.2;
  NetworkModel rt(64, 32, c, 9);
  rt.begin_round(0);
  constexpr int kTrials = 2000;
  for (int i = 0; i < kTrials; ++i)
    rt.round_trip(0, 1, 8, 8, Channel::kShuffle);
  // Both legs can be lost: the combined probability 1-(1-p)^2 = 0.36,
  // well above the one-leg 0.2 (binomial sd ~ 0.011).
  const double rate =
      static_cast<double>(rt.totals().dropped_loss) / kTrials;
  EXPECT_NEAR(rate, 0.36, 0.04);
  EXPECT_GT(rate, c.loss_rate + 0.1);
}

TEST(NetworkModelTelemetry, CountersMirrorTotals) {
  NetworkConfig c = healthy();
  c.loss_rate = 0.5;
  metrics::MetricsRegistry registry;
  NetworkModel net(64, 32, c, 11);
  net.set_telemetry(&registry, nullptr);
  net.begin_round(0);
  for (int i = 0; i < 50; ++i)
    net.round_trip(0, 1, 16, 16, Channel::kConsolidation);
  EXPECT_EQ(registry.counter("netmodel.sends")->value(), 50);
  EXPECT_EQ(registry.counter("netmodel.delivered")->value(),
            static_cast<std::int64_t>(net.totals().delivered));
  EXPECT_EQ(registry.counter("netmodel.dropped_loss")->value(),
            static_cast<std::int64_t>(net.totals().dropped_loss));
  EXPECT_EQ(net.totals().delivered + net.totals().dropped_loss, 50u);
}

TEST(NetworkModelTelemetry, MigrationContentionChargesAndReportsQueueAhead) {
  NetworkModel net(64, 32, healthy(), 13);
  net.begin_round(0);
  // Empty fabric: the stream starts instantly.
  EXPECT_DOUBLE_EQ(net.migration_delay_seconds(0, 40, 4096.0), 0.0);
  EXPECT_GT(net.uplink_backlog(0), 0.0);
  // A second migration to the same target queues behind the first; the
  // bottleneck is the shared (slow) access link of PM 40, not the uplink.
  const double wait = net.migration_delay_seconds(1, 40, 4096.0);
  EXPECT_GT(wait, 0.0);
  EXPECT_NEAR(wait,
              4096e6 / (net.access_bytes_per_round() / kRoundSeconds),
              1e-6);
  EXPECT_EQ(net.totals().sends, 2u);
  EXPECT_EQ(net.totals().delivered, 2u);
}

TEST(NetworkModelTelemetry, DisabledContentionChargesNothing) {
  NetworkConfig c = healthy();
  c.migration_contention = false;
  NetworkModel net(64, 32, c, 13);
  net.begin_round(0);
  EXPECT_DOUBLE_EQ(net.migration_delay_seconds(0, 40, 4096.0), 0.0);
  EXPECT_DOUBLE_EQ(net.uplink_backlog(0), 0.0);
  EXPECT_EQ(net.totals().sends, 0u);
}

TEST(NetworkModelTrace, EmitsSendDeliverDropAndQueueEvents) {
  NetworkConfig c = healthy();
  c.loss_rate = 0.5;
  std::ostringstream out;
  {
    trace::TraceLog log(out);
    NetworkModel net(64, 32, c, 17);
    net.set_telemetry(nullptr, &log);
    log.begin_round(0);
    net.begin_round(0);
    for (int i = 0; i < 20; ++i)
      net.round_trip(0, 40, 256, 256, Channel::kLearning);
    log.commit_round();
    net.trace_queue_depths(0);
  }
  const std::string text = out.str();
  EXPECT_NE(text.find("\"ev\":\"net\",\"round\":0,\"op\":\"send\""),
            std::string::npos);
  EXPECT_NE(text.find("\"channel\":\"learning\""), std::string::npos);
  EXPECT_NE(text.find("\"op\":\"deliver\""), std::string::npos);
  EXPECT_NE(text.find("\"reason\":\"loss\""), std::string::npos);
  // Delivered payloads left a backlog, so queue lines follow.
  EXPECT_NE(text.find("\"op\":\"queue\",\"link\":\"access\",\"id\":0"),
            std::string::npos);
  EXPECT_NE(text.find("\"link\":\"uplink\""), std::string::npos);
}

}  // namespace
}  // namespace glap::net
