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

constexpr double kRoundSeconds = 120.0;

TEST(NetworkModelTopology, RacksGroupConsecutiveIds) {
  NetworkModel net(100, 32, healthy(), kRoundSeconds, 1);
  EXPECT_EQ(net.rack_of(0), 0u);
  EXPECT_EQ(net.rack_of(31), 0u);
  EXPECT_EQ(net.rack_of(32), 1u);
  EXPECT_EQ(net.rack_of(99), 3u);
  EXPECT_EQ(net.rack_count(), 4u);  // ceil(100 / 32)
}

TEST(NetworkModelTopology, RatesFollowOversubscription) {
  NetworkConfig c = healthy();
  c.access_gbps = 1.0;
  NetworkModel net(64, 32, c, kRoundSeconds, 1);
  const double access = 1e9 / 8.0 * kRoundSeconds;
  EXPECT_DOUBLE_EQ(net.access_bytes_per_round(), access);
  // Uplink serves 32 PMs at 4:1 oversubscription = 8 access links' worth.
  static_assert(NetworkModel::kOversubscription == 4.0);
  EXPECT_DOUBLE_EQ(net.uplink_bytes_per_round(), access * 32.0 / 4.0);
}

TEST(NetworkModelTopology, ConfigValidationRejectsNonsense) {
  NetworkConfig c = healthy();
  c.loss_rate = 1.0;
  EXPECT_THROW(NetworkModel(10, 5, c, kRoundSeconds, 1), precondition_error);
  c = healthy();
  c.queue_limit_rounds = 0.0;
  EXPECT_THROW(NetworkModel(10, 5, c, kRoundSeconds, 1), precondition_error);
  EXPECT_THROW(NetworkModel(0, 5, healthy(), kRoundSeconds, 1),
               precondition_error);
  EXPECT_THROW(NetworkModel(10, 5, healthy(), 0.0, 1), precondition_error);
}

TEST(NetworkModelDelivery, HealthyFabricDeliversSameRound) {
  NetworkModel net(64, 32, healthy(), kRoundSeconds, 7);
  net.begin_round(0);
  // Intra-rack and inter-rack gossip-sized exchanges both complete within
  // the round at healthy defaults — the modeled network is behaviorally
  // the ideal one.
  const Verdict intra = net.round_trip(0, 1, 128, 128, Channel::kShuffle);
  EXPECT_TRUE(intra.ok());
  EXPECT_EQ(intra.delay, 0u);
  const Verdict inter =
      net.round_trip(0, 40, 4096, 4096, Channel::kAggregation);
  EXPECT_TRUE(inter.ok());
  EXPECT_EQ(net.totals().sends, 2u);
  EXPECT_EQ(net.totals().delivered, 2u);
  EXPECT_EQ(net.totals().dropped_loss, 0u);
  EXPECT_EQ(net.totals().dropped_congestion, 0u);
}

TEST(NetworkModelDelivery, MsgIdsAreAssignedInAdmissionOrder) {
  NetworkModel net(64, 32, healthy(), kRoundSeconds, 7);
  net.begin_round(0);
  EXPECT_EQ(net.round_trip(0, 1, 8, 8, Channel::kShuffle).msg_id, 0u);
  EXPECT_EQ(net.round_trip(2, 3, 8, 8, Channel::kShuffle).msg_id, 1u);
  EXPECT_EQ(net.round_trip(4, 5, 8, 8, Channel::kProbe).msg_id, 2u);
}

TEST(NetworkModelDelivery, PayloadChargesEveryLinkOnTheRoute) {
  NetworkModel net(64, 32, healthy(), kRoundSeconds, 7);
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
  NetworkModel net(64, 32, healthy(), kRoundSeconds, 7);
  net.begin_round(0);
  net.round_trip(0, 1, 1000, 1000, Channel::kShuffle);
  EXPECT_GT(net.access_backlog(0), 0.0);
  // One round of 1 GbE service dwarfs a 2 kB backlog.
  net.begin_round(1);
  EXPECT_DOUBLE_EQ(net.access_backlog(0), 0.0);
}

TEST(NetworkModelDrops, DropTailCongestionRejectsAndKeepsQueue) {
  NetworkConfig c = healthy();
  c.queue_limit_rounds = 0.25;
  NetworkModel net(64, 32, c, kRoundSeconds, 7);
  net.begin_round(0);
  const double limit = 0.25 * net.access_bytes_per_round();
  const auto big = static_cast<std::size_t>(limit * 0.75);
  EXPECT_TRUE(net.round_trip(0, 1, big, 0, Channel::kAggregation).ok());
  const double before = net.access_backlog(0);
  const Verdict v = net.round_trip(0, 1, big, 0, Channel::kAggregation);
  EXPECT_EQ(v.outcome, Verdict::Outcome::kDropped);
  EXPECT_EQ(v.reason, DropReason::kCongestion);
  // Drop-tail: the rejected payload never joins the queue.
  EXPECT_DOUBLE_EQ(net.access_backlog(0), before);
  EXPECT_EQ(net.totals().dropped_congestion, 1u);
}

TEST(NetworkModelDrops, QueueingDelayDefersPastTheRoundBoundary) {
  // Shrink the round so a modest backlog is worth >= 1 round of service,
  // and raise the queue limit so admission still succeeds. Propagation
  // alone (two access hops) stays a tenth of a round.
  NetworkConfig c = healthy();
  c.queue_limit_rounds = 10.0;
  const double round_s = 20.0 * NetworkModel::kAccessLatencyS;
  // One round (1 ms) serves 125 kB per access link.
  NetworkModel net(64, 32, c, round_s, 7);
  net.begin_round(0);
  EXPECT_TRUE(net.round_trip(0, 1, 200000, 0, Channel::kAggregation).ok());
  // The second exchange queues behind 200 kB > 1 round of service.
  const Verdict v = net.round_trip(0, 1, 100, 0, Channel::kAggregation);
  EXPECT_EQ(v.outcome, Verdict::Outcome::kDelayed);
  EXPECT_GE(v.delay, 1u);
  EXPECT_EQ(net.totals().delayed, 1u);
}

TEST(NetworkModelDrops, LossIsDeterministicPerSeedAndMsgId) {
  NetworkConfig c = healthy();
  c.loss_rate = 0.05;
  auto run = [&](std::uint64_t seed) {
    NetworkModel net(64, 32, c, kRoundSeconds, seed);
    net.begin_round(0);
    std::vector<int> outcomes;
    for (int i = 0; i < 400; ++i)
      outcomes.push_back(static_cast<int>(
          net.round_trip(0, 1, 64, 64, Channel::kShuffle).outcome));
    return outcomes;
  };
  const auto a = run(42);
  EXPECT_EQ(a, run(42));  // same seed: identical verdict sequence
  EXPECT_NE(a, run(43));  // different seed: different loss pattern
  // ~9.75% round-trip loss over 400 trials: some of each, never all.
  const auto drops = static_cast<std::size_t>(
      std::count(a.begin(), a.end(),
                 static_cast<int>(Verdict::Outcome::kDropped)));
  EXPECT_GT(drops, 0u);
  EXPECT_LT(drops, 200u);
}

TEST(NetworkModelDrops, RoundTripLossExceedsOneWayLoss) {
  NetworkConfig c = healthy();
  c.loss_rate = 0.2;
  NetworkModel rt(64, 32, c, kRoundSeconds, 9);
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
  NetworkModel net(64, 32, c, kRoundSeconds, 11);
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
  NetworkModel net(64, 32, healthy(), kRoundSeconds, 13);
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
  NetworkModel net(64, 32, c, kRoundSeconds, 13);
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
    NetworkModel net(64, 32, c, kRoundSeconds, 17);
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
