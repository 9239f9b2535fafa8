// Tests for the SchedulerDriver: queue handling, rounds, callbacks, SLA
// monitoring and failure re-scheduling.
#include <gtest/gtest.h>

#include "policies/backfilling.hpp"
#include "sched/driver.hpp"
#include "test_fixtures.hpp"

namespace easched::sched {
namespace {

using datacenter::HostState;
using datacenter::VmId;
using datacenter::VmState;
using easched::testing::SmallDc;
using easched::testing::make_job;

struct DriverHarness : SmallDc {
  policies::BackfillingPolicy policy;
  std::unique_ptr<SchedulerDriver> driver;

  explicit DriverHarness(std::size_t n, DriverConfig config = {},
                         datacenter::DatacenterConfig base = {})
      : SmallDc(n, std::move(base)) {
    driver = std::make_unique<SchedulerDriver>(simulator, dc, policy, config);
  }
};

workload::Workload one_job(double cpu = 100, double dedicated = 500,
                           double submit = 10) {
  workload::Job j = make_job(cpu, 512, dedicated);
  j.submit = submit;
  j.id = 0;
  return {j};
}

TEST(Driver, RunsSingleJobToCompletion) {
  DriverHarness f(3);
  f.driver->submit_workload(one_job());
  bool done = false;
  f.driver->on_all_done = [&] { done = true; };
  f.simulator.run_until(5000.0);
  EXPECT_TRUE(done);
  EXPECT_EQ(f.driver->finished(), 1u);
  EXPECT_EQ(f.recorder.jobs.count(), 1u);
}

TEST(Driver, QueueDrainsOnPlacement) {
  DriverHarness f(3);
  f.driver->submit_workload(one_job());
  f.simulator.run_until(11.0);
  EXPECT_TRUE(f.driver->queue().empty());  // placed at arrival round
  EXPECT_EQ(f.dc.num_vms(), 1u);
  EXPECT_EQ(f.dc.vm(0).state, VmState::kCreating);
}

TEST(Driver, UnplaceableJobWaitsThenRuns) {
  datacenter::DatacenterConfig base;
  base.initially_on = 1;
  DriverHarness f(1, {}, base);
  workload::Workload jobs;
  jobs.push_back(make_job(400, 512, 300));
  jobs[0].submit = 0;
  workload::Job second = make_job(400, 512, 300);
  second.submit = 1;
  second.id = 1;
  jobs.push_back(second);
  f.driver->submit_workload(jobs);
  f.simulator.run_until(30.0);
  EXPECT_EQ(f.driver->queue().size(), 1u);  // second job cannot fit yet
  f.simulator.run_until(5000.0);
  EXPECT_EQ(f.driver->finished(), 2u);  // it ran after the first finished
}

TEST(Driver, PowerControllerShedsIdleFleet) {
  DriverHarness f(10);
  f.driver->submit_workload(one_job());
  f.simulator.run_until(4000.0);
  // Job done; periodic controller rounds shrink the fleet to minexec.
  EXPECT_EQ(f.dc.online_count(), 1);
}

TEST(Driver, BootsNodesForQueuedWork) {
  datacenter::DatacenterConfig base;
  base.initially_on = 0;
  DriverHarness f(2, {}, base);
  f.driver->submit_workload(one_job());
  f.simulator.run_until(500.0);  // arrival + boot (300 s)
  EXPECT_GE(f.dc.online_count(), 1);
  f.simulator.run_until(5000.0);
  EXPECT_EQ(f.driver->finished(), 1u);
}

TEST(Driver, FailedVmsRescheduledElsewhere) {
  datacenter::DatacenterConfig base;
  base.inject_failures = true;
  base.mean_repair_s = 1e6;
  base.hosts.assign(2, datacenter::HostSpec::medium());
  base.hosts[0].reliability = 0.05;  // fails fast (MTBF ~5.3e4 ... )
  // Make host 0 fail quickly relative to the job length.
  base.mean_repair_s = 1000;
  DriverHarness f(2, {}, base);

  workload::Workload jobs = one_job(100, 20000, 0);
  f.driver->submit_workload(jobs);
  f.simulator.run_until(200000.0);
  EXPECT_EQ(f.driver->finished(), 1u);  // survived at least one failure
}

TEST(Driver, AllDoneFiresExactlyOnce) {
  DriverHarness f(2);
  workload::Workload jobs = one_job();
  workload::Job j2 = jobs[0];
  j2.submit = 20;
  j2.id = 1;
  jobs.push_back(j2);
  f.driver->submit_workload(jobs);
  int fired = 0;
  f.driver->on_all_done = [&] { ++fired; };
  f.simulator.run_until(10000.0);
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(f.driver->all_done());
}

TEST(Driver, SlaBoostRaisesWeightOfAtRiskVm) {
  DriverConfig config;
  config.dynamic_sla_boost = true;
  config.sla_check_period_s = 50;
  datacenter::DatacenterConfig base;
  base.initially_on = 1;
  DriverHarness f(1, config, base);

  // Deadline factor 1.2 but we delay the job by making it wait: submit a
  // blocking job first so the second's wait eats its whole slack.
  workload::Workload jobs;
  workload::Job blocker = make_job(400, 512, 2000, 1.2);
  blocker.submit = 0;
  blocker.id = 0;
  workload::Job tight = make_job(400, 512, 2000, 1.2);
  tight.submit = 1;
  tight.id = 1;
  tight.weight = 256;
  jobs = {blocker, tight};
  f.driver->submit_workload(jobs);
  f.simulator.run_until(4000.0);  // tight started ~2040, projected late
  f.simulator.run_until(4200.0);
  // After an SLA scan the late VM's weight must have been boosted.
  const auto& vm = f.dc.vm(1);
  if (vm.state == VmState::kRunning) {
    EXPECT_GT(vm.job.weight, 256u);
  }
  EXPECT_GT(f.recorder.counts.sla_alarms, 0u);
}

TEST(Driver, NoSlaMachineryWhenDisabled) {
  DriverHarness f(2);  // defaults: alarms and boost off
  f.driver->submit_workload(one_job());
  f.simulator.run_until(5000.0);
  EXPECT_EQ(f.recorder.counts.sla_alarms, 0u);
}

TEST(Driver, SubmittedCountsAllJobs) {
  DriverHarness f(2);
  workload::Workload jobs;
  for (int i = 0; i < 5; ++i) {
    workload::Job j = make_job();
    j.submit = i * 100.0;
    j.id = static_cast<std::uint32_t>(i);
    jobs.push_back(j);
  }
  f.driver->submit_workload(jobs);
  EXPECT_EQ(f.driver->submitted(), 5u);
  EXPECT_FALSE(f.driver->all_done());
  f.simulator.run_until(50000.0);
  EXPECT_EQ(f.driver->finished(), 5u);
}

TEST(Driver, ManualRoundIsIdempotentOnQuietSystem) {
  DriverHarness f(3);
  f.driver->round();
  const auto online = f.dc.online_count();
  f.driver->round();
  EXPECT_EQ(f.dc.online_count(), online);
}

// Arrivals are one presorted stream: an unsorted workload still arrives in
// (submit, index) order, the order of one arrival event per job.
TEST(Driver, UnsortedWorkloadArrivesInSubmitThenIndexOrder) {
  DriverHarness f(3);
  workload::Workload jobs;
  for (const double submit : {30.0, 10.0, 30.0, 10.0, 20.0}) {
    workload::Job j = make_job(100, 512, 500);
    j.submit = submit;
    j.id = static_cast<std::uint32_t>(jobs.size());
    jobs.push_back(j);
  }
  f.driver->submit_workload(jobs);
  f.simulator.run_until(30.0);
  ASSERT_EQ(f.dc.num_vms(), 5u);
  std::vector<std::uint32_t> arrived;
  for (VmId v = 0; v < 5; ++v) arrived.push_back(f.dc.vm(v).job.id);
  EXPECT_EQ(arrived, (std::vector<std::uint32_t>{1, 3, 4, 0, 2}));
}

// The backoff gate is strict (not_before > now): at the very instant a
// backoff expires the VM is eligible again and no longer counted.
TEST(Driver, BackoffEndsExactlyAtNotBefore) {
  faults::FaultPlan plan;
  plan.enabled = true;
  plan.spec(faults::FaultOp::kCreate).hang_prob = 1.0;
  plan.retry = {/*base_s=*/5, /*cap_s=*/300, /*jitter=*/0};
  easched::testing::InjectedDc t(plan);
  policies::BackfillingPolicy policy;
  SchedulerDriver driver(t.f.simulator, t.f.dc, policy, DriverConfig{});
  driver.submit_workload(one_job(100, 500, /*submit=*/10));
  // Placed at t=10, the hung creation is aborted at its deadline 4 x 40 s
  // later, and the retry is gated until 170 + 5 = 175.
  t.f.simulator.run_until(170.0);
  EXPECT_EQ(t.f.dc.vm(0).state, VmState::kQueued);
  EXPECT_EQ(driver.backoff_count(), 1u);
  t.f.simulator.run_until(174.5);
  EXPECT_EQ(driver.backoff_count(), 1u);
  t.f.simulator.run_until(175.0);
  EXPECT_EQ(driver.backoff_count(), 0u);
  EXPECT_EQ(t.f.dc.vm(0).state, VmState::kCreating);  // re-placed at 175
}

}  // namespace
}  // namespace easched::sched
