// MetricsRegistry semantics: counters, histograms applied in observation
// order, name-sorted deterministic snapshots.
#include "common/metrics.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace glap::metrics {
namespace {

TEST(Counter, AccumulatesAndResets) {
  Counter c;
  c.inc();
  c.inc(10);
  c.inc(100);
  EXPECT_EQ(c.value(), 111u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, HoldsLastValue) {
  Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.set(2.5);
  g.set(-1.25);
  EXPECT_EQ(g.value(), -1.25);
}

TEST(OrderedHistogram, ObserveAppliesImmediatelyInOrder) {
  RunningStats reference;
  OrderedHistogram h;
  for (const double v : {3.0, 1.0, 4.0, 1.5}) {
    reference.add(v);
    h.observe(v);
    EXPECT_EQ(h.stats().count(), reference.count());
  }
  EXPECT_EQ(h.stats().mean(), reference.mean());
  EXPECT_EQ(h.stats().variance(), reference.variance());
  EXPECT_EQ(h.stats().min(), 1.0);
  EXPECT_EQ(h.stats().max(), 4.0);
}

TEST(MetricsRegistry, GetOrCreateReturnsStablePointers) {
  MetricsRegistry reg;
  Counter* a = reg.counter("x");
  Counter* b = reg.counter("x");
  EXPECT_EQ(a, b);
  EXPECT_NE(reg.counter("y"), a);
  EXPECT_EQ(reg.gauge("x"), reg.gauge("x"));
  EXPECT_EQ(reg.histogram("h"), reg.histogram("h"));
  EXPECT_EQ(reg.series("s"), reg.series("s"));
}

TEST(MetricsRegistry, JsonIsNameSortedAndIndependentOfRegistrationOrder) {
  auto render = [](bool reversed) {
    MetricsRegistry reg;
    const char* names[] = {"alpha", "zeta"};
    for (int i = 0; i < 2; ++i) {
      const char* name = names[reversed ? 1 - i : i];
      reg.counter(name)->inc(name[0] == 'a' ? 1 : 2);
    }
    reg.gauge("g")->set(0.5);
    std::ostringstream out;
    reg.write_json(out);
    return out.str();
  };
  const std::string forward = render(false);
  EXPECT_EQ(forward, render(true));
  // alpha sorts before zeta regardless of registration order.
  EXPECT_LT(forward.find("alpha"), forward.find("zeta"));
}

TEST(MetricsRegistry, SeriesCsvPadsShorterColumns) {
  MetricsRegistry reg;
  Series* a = reg.series("a");
  a->append(1.0);
  a->append(2.0);
  reg.series("b")->append(0.5);
  std::ostringstream out;
  reg.write_series_csv(out);
  EXPECT_EQ(out.str(),
            "round,a,b\n"
            "0,1,0.5\n"
            "1,2,\n");
}

}  // namespace
}  // namespace glap::metrics
