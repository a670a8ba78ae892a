#include <gtest/gtest.h>

#include "cloud/power.hpp"
#include "cloud/sla.hpp"
#include "common/assert.hpp"

namespace glap::cloud {
namespace {

TEST(LinearPowerModel, Endpoints) {
  LinearPowerModel model({.idle_watts = 93.7, .max_watts = 135.0});
  EXPECT_DOUBLE_EQ(model.power_watts(0.0), 93.7);
  EXPECT_DOUBLE_EQ(model.power_watts(1.0), 135.0);
}

TEST(LinearPowerModel, Linearity) {
  LinearPowerModel model({.idle_watts = 100.0, .max_watts = 200.0});
  EXPECT_DOUBLE_EQ(model.power_watts(0.5), 150.0);
  EXPECT_DOUBLE_EQ(model.power_watts(0.25), 125.0);
}

TEST(LinearPowerModel, ClampsUtilization) {
  LinearPowerModel model({.idle_watts = 100.0, .max_watts = 200.0});
  EXPECT_DOUBLE_EQ(model.power_watts(-1.0), 100.0);
  EXPECT_DOUBLE_EQ(model.power_watts(2.0), 200.0);
}

TEST(LinearPowerModel, EnergyIntegration) {
  LinearPowerModel model({.idle_watts = 100.0, .max_watts = 200.0});
  EXPECT_DOUBLE_EQ(model.energy_joules(0.5, 120.0), 150.0 * 120.0);
}

TEST(LinearPowerModel, RejectsInvalidParams) {
  EXPECT_THROW(LinearPowerModel({.idle_watts = -1.0, .max_watts = 10.0}),
               precondition_error);
  EXPECT_THROW(LinearPowerModel({.idle_watts = 10.0, .max_watts = 5.0}),
               precondition_error);
}

TEST(MigrationTime, MemoryOverBandwidth) {
  EXPECT_DOUBLE_EQ(migration_seconds(613.0, 125.0, 125.0), 613.0 / 125.0);
  // The slower endpoint bounds the transfer.
  EXPECT_DOUBLE_EQ(migration_seconds(500.0, 50.0, 125.0), 10.0);
  EXPECT_DOUBLE_EQ(migration_seconds(0.0, 125.0, 125.0), 0.0);
}

TEST(MigrationEnergy, MatchesEquationThree) {
  LinearPowerModel model({.idle_watts = 100.0, .max_watts = 200.0});
  // Both endpoints at 0.5 utilization: P^lm = P(0.6) = 160 W each;
  // E = ((160-100) + (160-100)) * tau = 120 * tau.
  const double e = migration_energy_joules(model, 0.5, model, 0.5, 4.0);
  EXPECT_DOUBLE_EQ(e, 120.0 * 4.0);
}

TEST(MigrationEnergy, SaturatesAtFullUtilization) {
  LinearPowerModel model({.idle_watts = 100.0, .max_watts = 200.0});
  // u = 1.0 -> P^lm clamps at max.
  const double e = migration_energy_joules(model, 1.0, model, 1.0, 2.0);
  EXPECT_DOUBLE_EQ(e, (100.0 + 100.0) * 2.0);
}

TEST(MigrationEnergy, ScalesWithTau) {
  LinearPowerModel model({.idle_watts = 90.0, .max_watts = 140.0});
  const double e1 = migration_energy_joules(model, 0.3, model, 0.3, 1.0);
  const double e5 = migration_energy_joules(model, 0.3, model, 0.3, 5.0);
  EXPECT_NEAR(e5, 5.0 * e1, 1e-9);
}

TEST(Sla, SlavoAveragesSaturatedShare) {
  SlaAccounting sla(2, 1);
  // PM 0: saturated half its active time; PM 1: never saturated.
  sla.record_pm_round(0, true, true, 60.0);
  sla.record_pm_round(0, true, false, 60.0);
  sla.record_pm_round(1, true, false, 120.0);
  EXPECT_DOUBLE_EQ(sla.slavo(), 0.5 * (0.5 + 0.0));
}

TEST(Sla, InactivePmsDoNotCount) {
  SlaAccounting sla(2, 1);
  sla.record_pm_round(0, true, true, 100.0);
  sla.record_pm_round(1, false, false, 100.0);  // inactive: excluded
  EXPECT_DOUBLE_EQ(sla.slavo(), 1.0);
}

TEST(Sla, SlalmFollowsDegradationFormula) {
  SlaAccounting sla(1, 2);
  // VM 0: requested 1000 MIPS*s; one migration of 5 s at 100 MIPS
  // degrades 0.1 * 100 * 5 = 50 MIPS*s -> ratio 0.05.
  sla.record_vm_round(0, 100.0, 10.0);
  sla.record_migration(0, 100.0, 5.0);
  // VM 1: no migration -> ratio 0.
  sla.record_vm_round(1, 200.0, 10.0);
  EXPECT_DOUBLE_EQ(sla.slalm(), 0.5 * (0.05 + 0.0));
}

TEST(Sla, SlavIsProduct) {
  SlaAccounting sla(1, 1);
  sla.record_pm_round(0, true, true, 50.0);
  sla.record_pm_round(0, true, false, 50.0);
  sla.record_vm_round(0, 100.0, 100.0);
  sla.record_migration(0, 100.0, 10.0);
  EXPECT_DOUBLE_EQ(sla.slav(), sla.slavo() * sla.slalm());
}

TEST(Sla, EmptyAccountingIsZero) {
  SlaAccounting sla(3, 3);
  EXPECT_DOUBLE_EQ(sla.slavo(), 0.0);
  EXPECT_DOUBLE_EQ(sla.slalm(), 0.0);
  EXPECT_DOUBLE_EQ(sla.slav(), 0.0);
}

TEST(Sla, PerPmClocksQueryable) {
  SlaAccounting sla(2, 1);
  sla.record_pm_round(0, true, true, 30.0);
  EXPECT_DOUBLE_EQ(sla.pm_saturated_seconds(0), 30.0);
  EXPECT_DOUBLE_EQ(sla.pm_active_seconds(0), 30.0);
  EXPECT_DOUBLE_EQ(sla.pm_active_seconds(1), 0.0);
}

TEST(Sla, Validation) {
  EXPECT_THROW(SlaAccounting(0, 1), precondition_error);
  SlaAccounting sla(1, 1);
  EXPECT_THROW(sla.record_pm_round(5, true, true, 1.0), precondition_error);
  EXPECT_THROW(sla.record_vm_round(5, 1.0, 1.0), precondition_error);
  EXPECT_THROW(sla.record_migration(0, -1.0, 1.0), precondition_error);
}

}  // namespace
}  // namespace glap::cloud
