// Tests for the checkpoint cadence policy (datacenter/checkpointer.hpp)
// and the checkpoint -> restore -> resume cycle: due() semantics, progress
// preservation across a host failure, degraded mode when every snapshot
// attempt is fault-injected away, and byte-determinism of checkpointed
// fault-heavy runs on the pooled event queue.
#include <gtest/gtest.h>

#include "datacenter/checkpointer.hpp"
#include "experiments/runner.hpp"
#include "test_fixtures.hpp"

namespace easched::datacenter {
namespace {

using easched::testing::chaos_workload;
using easched::testing::make_chaos_plan;
using easched::testing::make_job;
using easched::testing::run_traced;
using easched::testing::SmallDc;
using easched::testing::small_config;

TEST(CheckpointPolicy, DueIsWorkBasedAndGatedOnEnabled) {
  CheckpointPolicy policy;
  policy.period_s = 100;
  EXPECT_FALSE(policy.due(1000, 0));  // disabled: never due
  policy.enabled = true;
  EXPECT_FALSE(policy.due(99, 0));
  EXPECT_TRUE(policy.due(100, 0));
  EXPECT_TRUE(policy.due(1000, 0));
  // Only work since the last snapshot counts.
  EXPECT_FALSE(policy.due(1000, 950));
  EXPECT_TRUE(policy.due(1050, 950));
}

/// Runs one 5000 s job on host 0, kills the host at t=2000 and resumes on
/// host 1; returns the finish time. The checkpointed run must finish
/// earlier because it only replays the work since the last snapshot.
sim::SimTime failover_finish_time(bool checkpointing) {
  DatacenterConfig base;
  base.checkpoint.enabled = checkpointing;
  base.checkpoint.period_s = 100;
  base.checkpoint.duration_s = 1;
  SmallDc f(2, base);
  // The periodic checkpoint scan keeps the event queue populated forever,
  // so stop explicitly at job completion instead of draining the queue.
  sim::SimTime finish = 0;
  f.dc.on_vm_finished = [&](VmId) {
    finish = f.simulator.now();
    f.simulator.stop();
  };
  const auto v = f.admit_and_place(make_job(100, 512, 5000), 0);
  f.simulator.run_until(2000.0);
  EXPECT_EQ(f.dc.vm(v).state, VmState::kRunning);

  f.dc.inject_host_failure(0);
  EXPECT_EQ(f.dc.vm(v).state, VmState::kQueued);
  if (checkpointing) {
    // Restore path: progress resumed from the last snapshot, with the loss
    // bounded by one period plus snapshot time and scan granularity.
    EXPECT_GT(f.dc.vm(v).work_done_s, 0.0);
    EXPECT_DOUBLE_EQ(f.dc.vm(v).work_done_s, f.dc.vm(v).work_checkpointed_s);
    EXPECT_EQ(f.recorder.counts.checkpoint_recoveries, 1u);
  } else {
    EXPECT_DOUBLE_EQ(f.dc.vm(v).work_done_s, 0.0);
    EXPECT_EQ(f.recorder.counts.recreates, 1u);
  }

  f.dc.place(v, 1);  // resume on the surviving host
  f.simulator.run_until(30000.0);
  EXPECT_EQ(f.dc.vm(v).state, VmState::kFinished);
  return finish;
}

TEST(Checkpointer, RestoreResumesFromSnapshotAndFinishesEarlier) {
  const sim::SimTime with = failover_finish_time(true);
  const sim::SimTime without = failover_finish_time(false);
  // ~1900 s of pre-failure progress was preserved (minus at most one
  // period of loss), so the checkpointed run finishes that much earlier.
  EXPECT_LT(with + 1500.0, without);
}

TEST(Checkpointer, InjectedSnapshotFailuresDegradeToRecreate) {
  // Every snapshot attempt fails: the VM keeps running, no checkpoint ever
  // lands, and a host failure falls back to recreating from scratch.
  faults::FaultPlan plan;
  plan.enabled = true;
  plan.spec(faults::FaultOp::kCheckpoint).fail_prob = 1.0;
  faults::FaultInjector injector(plan);
  DatacenterConfig base;
  base.checkpoint.enabled = true;
  base.checkpoint.period_s = 100;
  base.checkpoint.duration_s = 1;
  base.fault_injector = &injector;
  SmallDc f(2, base);
  f.dc.on_vm_finished = [&](VmId) { f.simulator.stop(); };

  const auto v = f.admit_and_place(make_job(100, 512, 5000), 0);
  f.simulator.run_until(2000.0);
  EXPECT_EQ(f.dc.vm(v).state, VmState::kRunning);  // failures are absorbed
  EXPECT_EQ(f.recorder.counts.checkpoints, 0u);
  EXPECT_GT(f.recorder.counts.op_failures, 0u);
  EXPECT_DOUBLE_EQ(f.dc.vm(v).work_checkpointed_s, 0.0);

  f.dc.inject_host_failure(0);
  EXPECT_EQ(f.recorder.counts.checkpoint_recoveries, 0u);
  EXPECT_EQ(f.recorder.counts.recreates, 1u);

  f.dc.place(v, 1);
  f.simulator.run_until(30000.0);
  EXPECT_EQ(f.dc.vm(v).state, VmState::kFinished);
}

/// A fault-heavy checkpointed run through the full experiment stack: node
/// failures, every actuator op (including checkpoints) injectable.
std::unique_ptr<easched::testing::TracedRun> checkpointed_chaos_run() {
  auto config = small_config("SB", 2, 3, 2);
  config.datacenter.inject_failures = true;
  config.datacenter.mean_repair_s = 400;
  for (std::size_t i = 0; i < config.datacenter.hosts.size(); i += 2) {
    config.datacenter.hosts[i].reliability = 0.9;
  }
  config.datacenter.checkpoint.enabled = true;
  config.datacenter.checkpoint.period_s = 600;
  config.datacenter.checkpoint.duration_s = 5;
  config.faults = make_chaos_plan(11);
  config.horizon_s = 60 * sim::kDay;
  return run_traced(chaos_workload(), std::move(config));
}

TEST(Checkpointer, FaultHeavyCheckpointedRunIsByteDeterministic) {
  const auto run_a = checkpointed_chaos_run();
  const auto run_b = checkpointed_chaos_run();
  const auto& a = run_a->result;
  const auto& b = run_b->result;
  EXPECT_FALSE(a.hit_horizon);
  EXPECT_EQ(a.jobs_finished, a.jobs_submitted);
  EXPECT_GT(a.faults_injected, 0u);
  // Bit-identical replay on the pooled event queue: same event count, same
  // trace, same energy integral to the last bit.
  EXPECT_EQ(a.events_dispatched, b.events_dispatched);
  EXPECT_EQ(run_a->jsonl(), run_b->jsonl());
  EXPECT_DOUBLE_EQ(a.report.energy_kwh, b.report.energy_kwh);
  EXPECT_DOUBLE_EQ(a.end_time_s, b.end_time_s);
}

}  // namespace
}  // namespace easched::datacenter
