#include "trace/trace_store.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "common/assert.hpp"
#include "trace/demand_models.hpp"

namespace glap::trace {
namespace {

TEST(TraceStore, SetAndGet) {
  TraceStore store(2, 3);
  store.set(0, 0, {0.1, 0.2});
  store.set(1, 2, {0.9, 0.8});
  EXPECT_EQ(store.at(0, 0), (Resources{0.1, 0.2}));
  EXPECT_EQ(store.at(1, 2), (Resources{0.9, 0.8}));
  EXPECT_EQ(store.at(0, 1), (Resources{0.0, 0.0}));
}

TEST(TraceStore, BoundsAndRangeChecks) {
  TraceStore store(2, 2);
  EXPECT_THROW((void)store.at(2, 0), precondition_error);
  EXPECT_THROW((void)store.at(0, 2), precondition_error);
  EXPECT_THROW(store.set(0, 0, {1.5, 0.0}), precondition_error);
  EXPECT_THROW(store.set(0, 0, {0.0, -0.1}), precondition_error);
  EXPECT_THROW(TraceStore(0, 5), precondition_error);
}

TEST(TraceStore, FromModelsMaterializesSeries) {
  StableModel m0(0.3, 0.4, 0.0, Rng(1));
  StableModel m1(0.6, 0.2, 0.0, Rng(2));
  std::vector<DemandModel*> models{&m0, &m1};
  const TraceStore store = TraceStore::from_models(models, 10);
  EXPECT_EQ(store.vm_count(), 2u);
  EXPECT_EQ(store.round_count(), 10u);
  EXPECT_NEAR(store.at(0, 0).cpu, 0.3, 1e-12);
  EXPECT_NEAR(store.at(1, 5).cpu, 0.6, 1e-12);
}

TEST(TraceStore, SeriesMean) {
  TraceStore store(1, 4);
  store.set(0, 0, {0.0, 0.0});
  store.set(0, 1, {0.4, 0.2});
  store.set(0, 2, {0.4, 0.2});
  store.set(0, 3, {0.8, 0.4});
  const Resources mean = store.series_mean(0);
  EXPECT_NEAR(mean.cpu, 0.4, 1e-12);
  EXPECT_NEAR(mean.mem, 0.2, 1e-12);
}

TEST(TraceStore, CsvRoundTrip) {
  TraceStore store(2, 2);
  store.set(0, 0, {0.1, 0.2});
  store.set(0, 1, {0.3, 0.4});
  store.set(1, 0, {0.5, 0.6});
  store.set(1, 1, {0.7, 0.8});
  std::ostringstream os;
  store.save_csv(os);
  std::istringstream in(os.str());
  const TraceStore loaded = TraceStore::load_csv(in);
  EXPECT_EQ(loaded.vm_count(), 2u);
  EXPECT_EQ(loaded.round_count(), 2u);
  for (std::size_t vm = 0; vm < 2; ++vm)
    for (std::size_t r = 0; r < 2; ++r) {
      EXPECT_NEAR(loaded.at(vm, r).cpu, store.at(vm, r).cpu, 1e-9);
      EXPECT_NEAR(loaded.at(vm, r).mem, store.at(vm, r).mem, 1e-9);
    }
}

TEST(TraceStore, CsvMissingColumnRejected) {
  std::istringstream in("vm,round,cpu\n0,0,0.5\n");
  EXPECT_THROW(TraceStore::load_csv(in), precondition_error);
}

TEST(TraceStore, CsvGapsRejected) {
  // vm 0 has rounds {0,1} but vm 1 only round 0.
  std::istringstream in(
      "vm,round,cpu,mem\n0,0,0.1,0.1\n0,1,0.2,0.2\n1,0,0.3,0.3\n");
  EXPECT_THROW(TraceStore::load_csv(in), precondition_error);
}

TEST(TraceStore, CsvEmptyRejected) {
  std::istringstream in("vm,round,cpu,mem\n");
  EXPECT_THROW(TraceStore::load_csv(in), precondition_error);
}

TEST(ReplayModel, ReplaysAndCycles) {
  TraceStore store(1, 3);
  store.set(0, 0, {0.1, 0.1});
  store.set(0, 1, {0.2, 0.2});
  store.set(0, 2, {0.3, 0.3});
  ReplayModel model(store, 0);
  EXPECT_NEAR(model.next().cpu, 0.1, 1e-12);
  EXPECT_NEAR(model.next().cpu, 0.2, 1e-12);
  EXPECT_NEAR(model.next().cpu, 0.3, 1e-12);
  EXPECT_NEAR(model.next().cpu, 0.1, 1e-12);  // cycles
}

TEST(ReplayModel, LongRunMeanIsSeriesMean) {
  TraceStore store(1, 2);
  store.set(0, 0, {0.2, 0.4});
  store.set(0, 1, {0.6, 0.8});
  ReplayModel model(store, 0);
  EXPECT_NEAR(model.long_run_mean().cpu, 0.4, 1e-12);
  EXPECT_NEAR(model.long_run_mean().mem, 0.6, 1e-12);
}

TEST(ReplayModel, RejectsBadVmIndex) {
  TraceStore store(1, 1);
  EXPECT_THROW(ReplayModel(store, 1), precondition_error);
}

}  // namespace
}  // namespace glap::trace
