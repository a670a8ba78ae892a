#include "trace/google_synth.hpp"

#include <gtest/gtest.h>

#include "common/stats.hpp"

namespace glap::trace {
namespace {

TEST(GoogleSynth, DeterministicPerSeedAndVm) {
  GoogleSynth a({}, 42), b({}, 42);
  for (std::uint64_t vm : {0ull, 1ull, 99ull}) {
    auto ma = a.make_model(vm);
    auto mb = b.make_model(vm);
    for (int i = 0; i < 200; ++i) {
      const Resources da = ma->next();
      const Resources db = mb->next();
      ASSERT_EQ(da.cpu, db.cpu);
      ASSERT_EQ(da.mem, db.mem);
    }
  }
}

TEST(GoogleSynth, DifferentVmsGetDifferentStreams) {
  GoogleSynth synth({}, 42);
  auto a = synth.make_model(0);
  auto b = synth.make_model(1);
  double diff = 0.0;
  for (int i = 0; i < 100; ++i)
    diff += std::abs(a->next().cpu - b->next().cpu);
  EXPECT_GT(diff, 0.1);
}

TEST(GoogleSynth, DifferentSeedsGetDifferentEnsembles) {
  GoogleSynth a({}, 1), b({}, 2);
  auto ma = a.make_model(0);
  auto mb = b.make_model(0);
  double diff = 0.0;
  for (int i = 0; i < 100; ++i)
    diff += std::abs(ma->next().cpu - mb->next().cpu);
  EXPECT_GT(diff, 0.1);
}

TEST(GoogleSynth, EnsembleCpuMeanIsGoogleLike) {
  // VMs use far less than their allocation: ensemble CPU mean well below
  // 0.6 of nominal, above 0.1 (not idle).
  GoogleSynth synth({}, 7);
  RunningStats means;
  for (std::uint64_t vm = 0; vm < 200; ++vm) {
    auto model = synth.make_model(vm);
    RunningStats s;
    for (int i = 0; i < 500; ++i) s.add(model->next().cpu);
    means.add(s.mean());
  }
  EXPECT_GT(means.mean(), 0.1);
  EXPECT_LT(means.mean(), 0.6);
}

TEST(GoogleSynth, EnsembleIsHeterogeneous) {
  // Per-VM long-run means must vary substantially (different PMs host
  // different workload patterns — the premise of per-PM thresholds).
  GoogleSynth synth({}, 7);
  RunningStats means;
  for (std::uint64_t vm = 0; vm < 200; ++vm) {
    auto model = synth.make_model(vm);
    RunningStats s;
    for (int i = 0; i < 300; ++i) s.add(model->next().cpu);
    means.add(s.mean());
  }
  EXPECT_GT(means.stddev(), 0.08);
}

TEST(GoogleSynth, SamplesBounded) {
  GoogleSynth synth({}, 13);
  for (std::uint64_t vm = 0; vm < 50; ++vm) {
    auto model = synth.make_model(vm);
    for (int i = 0; i < 300; ++i) {
      const Resources d = model->next();
      ASSERT_GE(d.cpu, 0.0);
      ASSERT_LE(d.cpu, 1.0);
      ASSERT_GE(d.mem, 0.0);
      ASSERT_LE(d.mem, 1.0);
    }
  }
}

TEST(GoogleSynth, MemoryLowerAndSteadierThanCpu) {
  GoogleSynth synth({}, 17);
  RunningStats cpu_sd, mem_sd;
  for (std::uint64_t vm = 0; vm < 100; ++vm) {
    auto model = synth.make_model(vm);
    RunningStats cpu, mem;
    for (int i = 0; i < 400; ++i) {
      const Resources d = model->next();
      cpu.add(d.cpu);
      mem.add(d.mem);
    }
    cpu_sd.add(cpu.stddev());
    mem_sd.add(mem.stddev());
  }
  EXPECT_LT(mem_sd.mean(), cpu_sd.mean());
}

TEST(GoogleSynth, SingleArchetypeWeights) {
  // Forcing all weight onto the stable archetype yields low-variance VMs.
  GoogleSynthConfig config;
  config.w_stable = 1.0;
  config.w_diurnal = config.w_random_walk = config.w_bursty =
      config.w_spike = 0.0;
  GoogleSynth synth(config, 19);
  for (std::uint64_t vm = 0; vm < 20; ++vm) {
    auto model = synth.make_model(vm);
    RunningStats s;
    for (int i = 0; i < 500; ++i) s.add(model->next().cpu);
    EXPECT_LT(s.stddev(), 0.05);
  }
}

TEST(GoogleSynth, ValidatesConfig) {
  GoogleSynthConfig zero_weights;
  zero_weights.w_stable = zero_weights.w_diurnal =
      zero_weights.w_random_walk = zero_weights.w_bursty =
          zero_weights.w_spike = 0.0;
  EXPECT_THROW(GoogleSynth(zero_weights, 1), precondition_error);
}

}  // namespace
}  // namespace glap::trace
