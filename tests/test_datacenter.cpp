// Tests for the datacenter model: VM lifecycle, progress under the credit
// scheduler, migration semantics, power states and accounting.
#include <gtest/gtest.h>

#include "test_fixtures.hpp"

namespace easched::datacenter {
namespace {

using testing::SmallDc;
using testing::make_job;

// ---- creation & execution ---------------------------------------------------

TEST(Creation, VmRunsAfterCreationCost) {
  SmallDc f;
  const auto v = f.admit_and_place(make_job(), 0);
  EXPECT_EQ(f.dc.vm(v).state, VmState::kCreating);
  f.simulator.run_until(39.0);
  EXPECT_EQ(f.dc.vm(v).state, VmState::kCreating);  // Cc = 40 s (medium)
  f.simulator.run_until(41.0);
  EXPECT_EQ(f.dc.vm(v).state, VmState::kRunning);
}

TEST(Creation, FinishTimeIsCreationPlusDedicated) {
  SmallDc f;
  const auto v = f.admit_and_place(make_job(100, 512, 1000), 0);
  f.simulator.run();
  EXPECT_EQ(f.dc.vm(v).state, VmState::kFinished);
  EXPECT_NEAR(f.dc.vm(v).finished_at, 40.0 + 1000.0, 1e-6);
}

TEST(Creation, CountsRecorded) {
  SmallDc f;
  f.admit_and_place(make_job(), 0);
  f.admit_and_place(make_job(), 1);
  EXPECT_EQ(f.recorder.counts.creations, 2u);
}

TEST(Creation, ConcurrentCreationsShareIoChannel) {
  SmallDc f;
  const auto a = f.admit_and_place(make_job(), 0);
  const auto b = f.admit_and_place(make_job(), 0);
  // Two concurrent creations at 1/2 speed each: both finish near 80 s.
  f.simulator.run_until(50.0);
  EXPECT_EQ(f.dc.vm(a).state, VmState::kCreating);
  EXPECT_EQ(f.dc.vm(b).state, VmState::kCreating);
  f.simulator.run_until(81.0);
  EXPECT_EQ(f.dc.vm(a).state, VmState::kRunning);
  EXPECT_EQ(f.dc.vm(b).state, VmState::kRunning);
}

TEST(Creation, StaggeredCreationsStretchProportionally) {
  SmallDc f;
  const auto a = f.admit_and_place(make_job(), 0);
  f.simulator.run_until(20.0);  // a is half done (20 of 40)
  const auto b = f.admit_and_place(make_job(), 0);
  // From t=20 both run at 1/2 speed: a needs 40 more s -> done at 60;
  // then b (20 of 40 done at t=60) accelerates to full: done at 80.
  f.simulator.run_until(61.0);
  EXPECT_EQ(f.dc.vm(a).state, VmState::kRunning);
  EXPECT_EQ(f.dc.vm(b).state, VmState::kCreating);
  f.simulator.run_until(81.0);
  EXPECT_EQ(f.dc.vm(b).state, VmState::kRunning);
}

TEST(Execution, ContentionStretchesJobs) {
  DatacenterConfig config;
  config.contention_penalty = 1.0;
  SmallDc f(1, config);
  // Two 400 % jobs on one 400 % host: each gets 200 %, efficiency
  // 1/(1+1*(2-1)) = 0.5 -> progress rate 0.25.
  const auto a = f.admit_and_place(make_job(400, 512, 1000), 0);
  const auto b = f.admit_and_place(make_job(400, 512, 1000), 0);
  f.simulator.run();
  // Creations overlap (80 s shared), then ~4000 s of contended execution.
  EXPECT_EQ(f.dc.vm(a).state, VmState::kFinished);
  EXPECT_GT(f.dc.vm(a).finished_at, 3000.0);
  EXPECT_GT(f.dc.vm(b).finished_at, 3900.0);
}

TEST(Execution, NoContentionWithoutOversubscription) {
  SmallDc f;
  const auto a = f.admit_and_place(make_job(200, 512, 1000), 0);
  const auto b = f.admit_and_place(make_job(200, 512, 1000), 0);
  f.simulator.run();
  // Both fit exactly: no stretch beyond the shared creation window (80 s).
  EXPECT_NEAR(f.dc.vm(a).finished_at, 80.0 + 1000.0, 1.0);
  EXPECT_NEAR(f.dc.vm(b).finished_at, 80.0 + 1000.0, 1.0);
}

TEST(Execution, JobRecordWrittenOnFinish) {
  SmallDc f;
  f.admit_and_place(make_job(100, 512, 1000, 1.5), 0);
  f.simulator.run();
  ASSERT_EQ(f.recorder.jobs.count(), 1u);
  const auto& rec = f.recorder.jobs.records()[0];
  EXPECT_NEAR(rec.finish - rec.submit, 1040.0, 1e-6);
  EXPECT_DOUBLE_EQ(rec.satisfaction, 100.0);  // 1040 < 1500 deadline
  EXPECT_NEAR(rec.delay_pct, 4.0, 0.001);     // 40/1000
}

// ---- occupation / fitting ---------------------------------------------------

TEST(Occupation, MaxOfCpuAndMemory) {
  SmallDc f;
  f.admit_and_place(make_job(100, 2048), 0);  // cpu 25 %, mem 50 %
  EXPECT_DOUBLE_EQ(f.dc.occupation(0), 0.5);
  f.admit_and_place(make_job(300, 512), 0);   // cpu 100 %, mem 62.5 %
  EXPECT_DOUBLE_EQ(f.dc.occupation(0), 1.0);
}

TEST(Occupation, OccupationIfDoesNotDoubleCountResident) {
  SmallDc f;
  const auto v = f.admit_and_place(make_job(200, 1024), 0);
  EXPECT_DOUBLE_EQ(f.dc.occupation_if(0, v), f.dc.occupation(0));
}

TEST(Fits, RespectsCpuAndMemory) {
  SmallDc f;
  const auto v = f.dc.admit_job(make_job(200, 3000));
  EXPECT_TRUE(f.dc.fits(0, v));
  f.admit_and_place(make_job(300, 512), 0);
  EXPECT_FALSE(f.dc.fits(0, v));   // cpu 500 > 400
  EXPECT_TRUE(f.dc.fits(1, v));
}

TEST(Fits, MemoryOnlyVariantIgnoresCpu) {
  SmallDc f;
  f.admit_and_place(make_job(400, 512), 0);
  const auto v = f.dc.admit_job(make_job(400, 512));
  EXPECT_FALSE(f.dc.fits(0, v));
  EXPECT_TRUE(f.dc.fits_memory(0, v));
  const auto w = f.dc.admit_job(make_job(100, 4000));
  EXPECT_FALSE(f.dc.fits_memory(0, w));
}

TEST(Fits, HardwareSoftwareRequirements) {
  DatacenterConfig config;
  config.hosts = {HostSpec::medium(), HostSpec::medium()};
  config.hosts[1].arch = workload::Arch::kPpc64;
  config.hosts[0].software = workload::kSwXen | workload::kSwGpuRuntime;
  config.duration_sigma_ratio = 0;
  sim::Simulator simulator;
  metrics::Recorder recorder(2);
  Datacenter dc(simulator, config, recorder);

  workload::Job job = make_job();
  job.software = workload::kSwXen | workload::kSwGpuRuntime;
  const auto v = dc.admit_job(job);
  EXPECT_TRUE(dc.fits(0, v));
  EXPECT_FALSE(dc.fits(1, v));  // wrong arch
  EXPECT_FALSE(dc.hw_sw_ok(1, v));

  workload::Job plain = make_job();
  const auto w = dc.admit_job(plain);
  EXPECT_TRUE(dc.hw_sw_ok(0, w));  // superset of required software is fine
}

// ---- migration --------------------------------------------------------------

TEST(Migration, MovesVmAfterCost) {
  SmallDc f;
  const auto v = f.admit_and_place(make_job(100, 512, 5000), 0);
  f.simulator.run_until(100.0);  // running
  f.dc.migrate(v, 1);
  EXPECT_EQ(f.dc.vm(v).state, VmState::kMigrating);
  EXPECT_EQ(f.dc.vm(v).host, 1u);
  EXPECT_EQ(f.dc.vm(v).migration_source, 0u);
  f.simulator.run_until(161.0);  // Cm = 60 s (medium)
  EXPECT_EQ(f.dc.vm(v).state, VmState::kRunning);
  EXPECT_EQ(f.dc.vm(v).migration_source, kNoHost);
  EXPECT_TRUE(f.dc.host(0).residents.empty());
  ASSERT_EQ(f.dc.host(1).residents.size(), 1u);
}

TEST(Migration, PausesProgress) {
  SmallDc f;
  const auto v = f.admit_and_place(make_job(100, 512, 1000), 0);
  f.simulator.run_until(140.0);  // 100 s of work done
  f.dc.migrate(v, 1);
  f.simulator.run();
  // 40 create + 1000 work + 60 migration pause.
  EXPECT_NEAR(f.dc.vm(v).finished_at, 1100.0, 1.0);
  EXPECT_EQ(f.dc.vm(v).migrations, 1);
}

TEST(Migration, MemoryPinnedOnBothHostsDuringTransfer) {
  SmallDc f;
  const auto v = f.admit_and_place(make_job(100, 2000, 5000), 0);
  f.simulator.run_until(100.0);
  f.dc.migrate(v, 1);
  EXPECT_DOUBLE_EQ(f.dc.reserved_mem_mb(0), 2000.0);  // outgoing pin
  EXPECT_DOUBLE_EQ(f.dc.reserved_mem_mb(1), 2000.0);  // incoming resident
  f.simulator.run_until(200.0);
  EXPECT_DOUBLE_EQ(f.dc.reserved_mem_mb(0), 0.0);
  EXPECT_DOUBLE_EQ(f.dc.reserved_mem_mb(1), 2000.0);
}

TEST(Migration, CountsRecorded) {
  SmallDc f;
  const auto v = f.admit_and_place(make_job(100, 512, 5000), 0);
  f.simulator.run_until(100.0);
  f.dc.migrate(v, 2);
  EXPECT_EQ(f.recorder.counts.migrations, 1u);
}

// ---- power states -----------------------------------------------------------

TEST(PowerStates, BootTakesConfiguredTime) {
  DatacenterConfig config;
  config.initially_on = 1;
  SmallDc f(2, config);
  EXPECT_EQ(f.dc.host(1).state, HostState::kOff);
  f.dc.power_on(1);
  EXPECT_EQ(f.dc.host(1).state, HostState::kBooting);
  EXPECT_EQ(f.dc.online_count(), 2);  // booting counts as online
  f.simulator.run_until(301.0);       // boot = 300 s (medium)
  EXPECT_EQ(f.dc.host(1).state, HostState::kOn);
  EXPECT_EQ(f.recorder.counts.turn_ons, 1u);
}

TEST(PowerStates, ShutdownReachesOff) {
  SmallDc f;
  f.dc.power_off(2);
  EXPECT_EQ(f.dc.host(2).state, HostState::kShuttingDown);
  f.simulator.run_until(11.0);
  EXPECT_EQ(f.dc.host(2).state, HostState::kOff);
  EXPECT_EQ(f.recorder.counts.turn_offs, 1u);
}

TEST(PowerStates, PowerDrawFollowsState) {
  DatacenterConfig config;
  config.initially_on = 1;
  SmallDc f(2, config);
  EXPECT_DOUBLE_EQ(f.recorder.watts.host_current(0), 230.0);  // idle on
  EXPECT_DOUBLE_EQ(f.recorder.watts.host_current(1), 10.0);   // off standby
  f.dc.power_on(1);
  EXPECT_DOUBLE_EQ(f.recorder.watts.host_current(1), 230.0);  // boot = idle
}

TEST(PowerStates, BusyHostDrawsByTable1) {
  SmallDc f(1);
  f.admit_and_place(make_job(200, 512, 10000), 0);
  f.simulator.run_until(100.0);  // running at 200 %
  EXPECT_DOUBLE_EQ(f.recorder.watts.host_current(0), 273.0);
}

TEST(PowerStates, EnergyIntegralMatchesHandComputation) {
  SmallDc f(1);
  // Idle for 3600 s: 230 Wh = 0.23 kWh.
  f.simulator.run_until(3600.0);
  EXPECT_NEAR(f.recorder.energy_kwh(3600.0), 0.23, 1e-9);
}

TEST(PowerStates, WorkingAndOnlineCounters) {
  DatacenterConfig config;
  config.initially_on = 2;
  SmallDc f(3, config);
  EXPECT_EQ(f.dc.online_count(), 2);
  EXPECT_EQ(f.dc.working_count(), 0);
  f.admit_and_place(make_job(), 0);
  EXPECT_EQ(f.dc.working_count(), 1);
}

// ---- weight boost -----------------------------------------------------------

TEST(Boost, WeightBoostShiftsShares) {
  DatacenterConfig config;
  config.contention_penalty = 0;  // isolate the share arithmetic
  SmallDc f(1, config);
  const auto a = f.admit_and_place(make_job(400, 512, 10000), 0);
  const auto b = f.admit_and_place(make_job(400, 512, 10000), 0);
  f.simulator.run_until(200.0);  // both running, equal shares
  const double rate_a_before = f.dc.vm(a).progress_rate;
  f.dc.boost_weight(a, 3.0);
  EXPECT_GT(f.dc.vm(a).progress_rate, rate_a_before * 1.4);
  EXPECT_GT(f.dc.vm(a).progress_rate, f.dc.vm(b).progress_rate);
}

TEST(Boost, HostFailureMidMigrationRequeuesAtNominalDemand) {
  // The source dies mid-transfer: the VM is requeued from the migrate-out
  // leg, as a resident would be. Its demand is its job's, so it needs no
  // reset.
  SmallDc f;
  const auto v = f.admit_and_place(make_job(100, 512, 5000), 0);
  f.simulator.run_until(100.0);
  f.dc.migrate(v, 1);
  f.dc.inject_host_failure(0);
  EXPECT_EQ(f.dc.vm(v).state, VmState::kQueued);
}

// ---- checkpointing ----------------------------------------------------------

TEST(Checkpointing, PeriodicSnapshotsRecordProgress) {
  DatacenterConfig config;
  config.checkpoint.enabled = true;
  config.checkpoint.period_s = 100;
  config.checkpoint.duration_s = 5;
  SmallDc f(1, config);
  const auto v = f.admit_and_place(make_job(100, 512, 1000), 0);
  f.simulator.run_until(500.0);
  EXPECT_GT(f.dc.vm(v).work_checkpointed_s, 100.0);
  EXPECT_GT(f.recorder.counts.checkpoints, 0u);
  // run_until, not run(): the periodic checkpoint scan never drains.
  f.simulator.run_until(5000.0);
  EXPECT_EQ(f.dc.vm(v).state, VmState::kFinished);
}

TEST(Checkpointing, DisabledByDefault) {
  SmallDc f(1);
  const auto v = f.admit_and_place(make_job(100, 512, 2000), 0);
  f.simulator.run();
  EXPECT_DOUBLE_EQ(f.dc.vm(v).work_checkpointed_s, 0.0);
  EXPECT_EQ(f.recorder.counts.checkpoints, 0u);
}

}  // namespace
}  // namespace easched::datacenter
