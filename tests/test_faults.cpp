// Tests for the deterministic fault-injection layer (faults/) and its
// recovery half inside the Datacenter: plan parsing, the injector's
// determinism contract, the per-operation fail/hang/slow semantics, the
// quarantine state machine, and the end-to-end guarantee that a fault-heavy
// experiment still finishes every job with a bit-identical event trace
// across runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>

#include "core/score_based_policy.hpp"
#include "datacenter/op_lifecycle.hpp"
#include "experiments/runner.hpp"
#include "experiments/setup.hpp"
#include "faults/fault_injector.hpp"
#include "faults/fault_plan.hpp"
#include "test_fixtures.hpp"
#include "workload/synthetic.hpp"

namespace easched::faults {
namespace {

using datacenter::BreakerNotes;
using datacenter::Datacenter;
using datacenter::HostSpec;
using datacenter::HostState;
using datacenter::Operation;
using datacenter::VmState;
using easched::testing::chaos_experiment_plan;
using easched::testing::chaos_workload;
using easched::testing::InjectedDc;
using easched::testing::make_job;
using easched::testing::run_traced;
using easched::testing::TracedRun;

// ---- plan parsing -----------------------------------------------------------

TEST(FaultPlanParse, InlineSpec) {
  const FaultPlan plan = parse_fault_plan(
      "seed=7,migrate.fail=0.05,create.hang=0.01,create.slow=0.1,"
      "create.slow_factor=2.5,lemon=3:8,timeout_factor=5,retry_base=2,"
      "retry_cap=60,retry_jitter=0.25,quarantine_budget=2,"
      "quarantine_window=600,quarantine_cooldown=300");
  EXPECT_TRUE(plan.enabled);
  EXPECT_EQ(plan.seed, 7u);
  EXPECT_DOUBLE_EQ(plan.spec(FaultOp::kMigrate).fail_prob, 0.05);
  EXPECT_DOUBLE_EQ(plan.spec(FaultOp::kCreate).hang_prob, 0.01);
  EXPECT_DOUBLE_EQ(plan.spec(FaultOp::kCreate).slow_prob, 0.1);
  EXPECT_DOUBLE_EQ(plan.spec(FaultOp::kCreate).slow_factor, 2.5);
  ASSERT_EQ(plan.lemons.size(), 1u);
  EXPECT_EQ(plan.lemons[0].host, 3u);
  EXPECT_DOUBLE_EQ(plan.lemons[0].multiplier, 8.0);
  EXPECT_DOUBLE_EQ(plan.op_timeout_factor, 5.0);
  EXPECT_DOUBLE_EQ(plan.retry.base_s, 2.0);
  EXPECT_DOUBLE_EQ(plan.retry.cap_s, 60.0);
  EXPECT_DOUBLE_EQ(plan.retry.jitter, 0.25);
  EXPECT_EQ(plan.quarantine.failure_budget, 2);
  EXPECT_DOUBLE_EQ(plan.quarantine.window_s, 600.0);
  EXPECT_DOUBLE_EQ(plan.quarantine.cooldown_s, 300.0);
}

TEST(FaultPlanParse, FileSpecWithCommentsAndBlankLines) {
  const std::string path = ::testing::TempDir() + "fault_plan_test.txt";
  {
    std::ofstream out(path);
    out << "# chaos scenario\n"
        << "seed=11\n"
        << "\n"
        << "power_on.fail=0.2   # flaky BMCs\n"
        << "lemon=1:4\n"
        << "lemon=5:2\n";
  }
  const FaultPlan plan = parse_fault_plan(path);
  EXPECT_EQ(plan.seed, 11u);
  EXPECT_DOUBLE_EQ(plan.spec(FaultOp::kPowerOn).fail_prob, 0.2);
  ASSERT_EQ(plan.lemons.size(), 2u);
  EXPECT_DOUBLE_EQ(plan.lemon_multiplier(1), 4.0);
  EXPECT_DOUBLE_EQ(plan.lemon_multiplier(5), 2.0);
  EXPECT_DOUBLE_EQ(plan.lemon_multiplier(0), 1.0);
}

TEST(FaultPlanParse, RoundTripsThroughToString) {
  FaultPlan plan;
  plan.seed = 99;
  plan.spec(FaultOp::kMigrate) = {0.05, 0.01, 0.2, 3.5};
  plan.spec(FaultOp::kCheckpoint).fail_prob = 0.3;
  plan.lemons.push_back({4, 6.0});
  plan.op_timeout_factor = 6;
  plan.retry.base_s = 3;
  plan.quarantine.failure_budget = 5;

  const std::string path = ::testing::TempDir() + "fault_plan_roundtrip.txt";
  {
    std::ofstream out(path);
    out << plan.to_string();
  }
  const FaultPlan back = parse_fault_plan(path);
  EXPECT_EQ(back.seed, plan.seed);
  for (std::size_t i = 0; i < kNumFaultOps; ++i) {
    EXPECT_DOUBLE_EQ(back.ops[i].fail_prob, plan.ops[i].fail_prob) << i;
    EXPECT_DOUBLE_EQ(back.ops[i].hang_prob, plan.ops[i].hang_prob) << i;
    EXPECT_DOUBLE_EQ(back.ops[i].slow_prob, plan.ops[i].slow_prob) << i;
  }
  EXPECT_DOUBLE_EQ(back.spec(FaultOp::kMigrate).slow_factor, 3.5);
  ASSERT_EQ(back.lemons.size(), 1u);
  EXPECT_DOUBLE_EQ(back.lemon_multiplier(4), 6.0);
  EXPECT_DOUBLE_EQ(back.op_timeout_factor, 6.0);
  EXPECT_DOUBLE_EQ(back.retry.base_s, 3.0);
  EXPECT_EQ(back.quarantine.failure_budget, 5);
}

TEST(FaultPlanParse, BreakerKeysParseAndRoundTrip) {
  const FaultPlan plan = parse_fault_plan(
      "breaker_threshold=2,breaker_probe_after=300,breaker_dead_after=4");
  EXPECT_EQ(plan.breakers.threshold, 2);
  EXPECT_DOUBLE_EQ(plan.breakers.probe_after_s, 300.0);
  EXPECT_EQ(plan.breakers.dead_after, 4);
  // Armed breakers survive the textual round trip; a default plan keeps
  // emitting the pre-breaker key set.
  std::string inline_spec = plan.to_string();
  for (char& c : inline_spec) {
    if (c == '\n') c = ',';
  }
  const FaultPlan back = parse_fault_plan(inline_spec);
  EXPECT_EQ(back.breakers.threshold, 2);
  EXPECT_DOUBLE_EQ(back.breakers.probe_after_s, 300.0);
  EXPECT_EQ(back.breakers.dead_after, 4);
  EXPECT_EQ(FaultPlan{}.to_string().find("breaker"), std::string::npos);
}

TEST(FaultPlanParse, RoundTripIsBitExact) {
  // Values that need more than six significant digits, on every kind of
  // row: plan-wide, nested recovery knob, per-operation and lemon.
  FaultPlan plan;
  plan.enabled = true;
  plan.seed = 18446744073709551615u;
  plan.spec(FaultOp::kMigrate).fail_prob = 0.0123456789;
  plan.spec(FaultOp::kPowerOn).slow_factor = 2.718281828459045;
  plan.lemons.push_back({7, 1.0000001});
  plan.op_timeout_factor = 4.000000001;
  plan.retry.base_s = 1.23456789;
  plan.retry.jitter = 0.1 + 0.2;  // 0.30000000000000004
  plan.quarantine.window_s = 3600.5;
  plan.breakers.threshold = 2;
  plan.breakers.probe_after_s = 1e-9;

  const std::string text = plan.to_string();
  const FaultPlan back = parse_fault_plan(text);
  EXPECT_EQ(back.to_string(), text);
  EXPECT_EQ(back.seed, plan.seed);
  EXPECT_EQ(back.spec(FaultOp::kMigrate).fail_prob, 0.0123456789);
  EXPECT_EQ(back.spec(FaultOp::kPowerOn).slow_factor, 2.718281828459045);
  ASSERT_EQ(back.lemons.size(), 1u);
  EXPECT_EQ(back.lemons[0].host, 7u);
  EXPECT_EQ(back.lemons[0].multiplier, 1.0000001);
  EXPECT_EQ(back.op_timeout_factor, 4.000000001);
  EXPECT_EQ(back.retry.base_s, 1.23456789);
  EXPECT_EQ(back.retry.jitter, 0.1 + 0.2);
  EXPECT_EQ(back.quarantine.window_s, 3600.5);
  EXPECT_EQ(back.breakers.threshold, 2);
  EXPECT_EQ(back.breakers.probe_after_s, 1e-9);
  // Short values print as written; keys at their default are left out.
  EXPECT_EQ(parse_fault_plan("migrate.fail=0.3,retry_cap=5,retry_jitter=0.5")
                .to_string(),
            "retry_cap=5,migrate.fail=0.3");
  EXPECT_EQ(parse_fault_plan("").to_string(), "");
  EXPECT_TRUE(parse_fault_plan("").enabled);
}

TEST(FaultPlanParse, RejectsBadInput) {
  EXPECT_THROW(parse_fault_plan("bogus_key=1"), std::invalid_argument);
  // Integers are whole and non-negative; numbers are whole tokens.
  EXPECT_THROW(parse_fault_plan("quarantine_budget=-1"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("breaker_threshold=2.5"),
               std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("seed=-7"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("retry_base=5s"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("migrate.fail="), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("lemon=3:8x"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("migrate.fail=0.1,seed"),
               std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("create.explode=1"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("migrate.fail=lots"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("lemon=3"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("lemon=3:-1"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("/no/such/plan/file"), std::invalid_argument);
}

TEST(FaultPlan, LemonMultipliersCombine) {
  FaultPlan plan;
  plan.lemons.push_back({2, 3.0});
  plan.lemons.push_back({2, 2.0});
  EXPECT_DOUBLE_EQ(plan.lemon_multiplier(2), 6.0);
  EXPECT_DOUBLE_EQ(plan.lemon_multiplier(0), 1.0);
}

// ---- injector determinism ---------------------------------------------------

FaultPlan mixed_plan() {
  FaultPlan plan;
  plan.enabled = true;
  plan.seed = 1234;
  plan.spec(FaultOp::kCreate) = {0.2, 0.1, 0.1, 2.0};
  plan.spec(FaultOp::kMigrate) = {0.3, 0.05, 0.05, 3.0};
  plan.lemons.push_back({1, 2.0});
  return plan;
}

TEST(FaultInjector, SamePlanYieldsIdenticalDecisionsAndTrace) {
  FaultInjector a(mixed_plan());
  FaultInjector b(mixed_plan());
  for (int i = 0; i < 300; ++i) {
    const FaultOp op = i % 2 == 0 ? FaultOp::kCreate : FaultOp::kMigrate;
    const datacenter::HostId h = static_cast<datacenter::HostId>(i % 3);
    const FaultOutcome oa = a.decide(op, h);
    const FaultOutcome ob = b.decide(op, h);
    ASSERT_EQ(oa.kind, ob.kind) << "decision " << i;
    ASSERT_DOUBLE_EQ(oa.fail_fraction, ob.fail_fraction);
    ASSERT_DOUBLE_EQ(oa.slow_factor, ob.slow_factor);
  }
  EXPECT_GT(a.injected_count(), 0u);
  EXPECT_EQ(a.injected_count(), b.injected_count());
}

TEST(FaultInjector, EditingOneOpNeverShiftsOtherDecisions) {
  // Two draws per decision regardless of outcome or probabilities: raising
  // the migrate probabilities must leave every create decision untouched.
  FaultPlan quiet = mixed_plan();
  quiet.spec(FaultOp::kMigrate) = {};
  FaultPlan noisy = mixed_plan();
  noisy.spec(FaultOp::kMigrate) = {0.9, 0.05, 0.05, 3.0};

  FaultInjector a(quiet);
  FaultInjector b(noisy);
  for (int i = 0; i < 300; ++i) {
    const FaultOp op = i % 2 == 0 ? FaultOp::kCreate : FaultOp::kMigrate;
    const FaultOutcome oa = a.decide(op, 0);
    const FaultOutcome ob = b.decide(op, 0);
    if (op == FaultOp::kCreate) {
      ASSERT_EQ(oa.kind, ob.kind) << "create decision " << i << " shifted";
      ASSERT_DOUBLE_EQ(oa.fail_fraction, ob.fail_fraction);
      ASSERT_DOUBLE_EQ(oa.slow_factor, ob.slow_factor);
    }
  }
}

TEST(FaultInjector, LemonHostConcentratesFaults) {
  FaultPlan plan;
  plan.enabled = true;
  plan.spec(FaultOp::kMigrate).fail_prob = 0.1;
  plan.lemons.push_back({5, 5.0});
  FaultInjector injector(plan);

  int lemon_faults = 0;
  int normal_faults = 0;
  for (int i = 0; i < 2000; ++i) {
    if (injector.decide(FaultOp::kMigrate, 5).injected()) ++lemon_faults;
    if (injector.decide(FaultOp::kMigrate, 0).injected()) ++normal_faults;
  }
  EXPECT_GT(normal_faults, 0);
  EXPECT_GT(lemon_faults, 3 * normal_faults);
}

TEST(FaultInjector, RenormalisesWhenLemonSpillsPastOne) {
  FaultPlan plan;
  plan.enabled = true;
  plan.spec(FaultOp::kCreate) = {0.5, 0.5, 0.0, 1.0};
  plan.lemons.push_back({0, 4.0});
  FaultInjector injector(plan);
  // Scaled sum is 4 -> renormalised to 1: every decision injects, and both
  // categories keep their relative weight (roughly half/half).
  int fails = 0;
  for (int i = 0; i < 200; ++i) {
    const FaultOutcome out = injector.decide(FaultOp::kCreate, 0);
    ASSERT_TRUE(out.injected());
    if (out.kind == FaultOutcome::Kind::kFail) ++fails;
  }
  EXPECT_GT(fails, 50);
  EXPECT_LT(fails, 150);
}

TEST(FaultInjector, InertPlanInjectsNothing) {
  FaultInjector injector(FaultPlan{});
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(injector.decide(FaultOp::kCreate, 0).injected());
  }
  EXPECT_EQ(injector.injected_count(), 0u);
}

// ---- the operation lifecycle table -----------------------------------------

/// Each kOpRows row as the Datacenter performs that operation: its cost
/// source, trace kinds, breaker notes and driver callbacks. A boot and a
/// checkpoint report only their failures to the breaker, and a shutdown
/// reports nothing; a change that fills these gaps moves the chaos_2d
/// digest (power_on.fail with breakers) and flips them here with it.
TEST(OpLifecycle, EveryRowKeepsItsSteps) {
  using obs::EventKind;
  constexpr BreakerNotes kEvery{.start = true, .success = true,
                                .failure = true};
  constexpr BreakerNotes kBootGap{.start = false, .success = false,
                                  .failure = true};
  constexpr BreakerNotes kShutdownGap{.start = false, .success = false,
                                      .failure = false};
  constexpr BreakerNotes kCheckpointGap{.start = false, .success = false,
                                        .failure = true};
  const datacenter::OpRow pinned[] = {
      {FaultOp::kCreate, Operation::Kind::kCreate, &HostSpec::creation_cost_s,
       true, EventKind::kCreateStart, EventKind::kVmReady,
       EventKind::kOpFailed, kEvery, &Datacenter::on_vm_ready, nullptr},
      {FaultOp::kMigrate, Operation::Kind::kMigrateIn,
       &HostSpec::migration_cost_s, true, EventKind::kMigrateStart,
       EventKind::kMigrateDone, EventKind::kOpFailed, kEvery,
       &Datacenter::on_migration_done, nullptr},
      {FaultOp::kPowerOn, std::nullopt, &HostSpec::boot_time_s, false,
       EventKind::kPowerOn, EventKind::kHostOnline, EventKind::kBootFailed,
       kBootGap, &Datacenter::on_host_online,
       &Datacenter::on_host_boot_failed},
      {FaultOp::kPowerOff, std::nullopt, &HostSpec::shutdown_time_s, false,
       EventKind::kPowerOff, EventKind::kHostOff, EventKind::kOpFailed,
       kShutdownGap, &Datacenter::on_host_off, &Datacenter::on_host_online},
      {FaultOp::kCheckpoint, Operation::Kind::kCheckpoint, nullptr, false,
       datacenter::kUntraced, datacenter::kUntraced, EventKind::kOpFailed,
       kCheckpointGap, nullptr, nullptr},
  };
  ASSERT_EQ(std::size(datacenter::kOpRows), std::size(pinned));
  for (const datacenter::OpRow& want : pinned) {
    const datacenter::OpRow& row = datacenter::op_row(want.op);
    SCOPED_TRACE(to_string(want.op));
    EXPECT_EQ(row.op, want.op);
    EXPECT_EQ(row.leg, want.leg);
    EXPECT_EQ(row.mean_s, want.mean_s);
    EXPECT_EQ(row.drawn, want.drawn);
    EXPECT_EQ(row.start, want.start);
    EXPECT_EQ(row.done, want.done);
    EXPECT_EQ(row.failed, want.failed);
    EXPECT_EQ(row.breaker, want.breaker);
    EXPECT_EQ(row.on_done, want.on_done);
    EXPECT_EQ(row.on_failed, want.on_failed);
    if (want.leg) {
      EXPECT_EQ(&datacenter::op_row(*want.leg), &row);
    }
  }
}

// ---- datacenter recovery semantics ------------------------------------------

TEST(FaultedDatacenter, FailedCreationRequeuesTheVm) {
  FaultPlan plan;
  plan.enabled = true;
  plan.spec(FaultOp::kCreate).fail_prob = 1.0;
  InjectedDc t(plan);

  faults::FaultOp seen_op = faults::FaultOp::kMigrate;
  bool seen_timeout = true;
  t.f.dc.on_operation_failed = [&](faults::FaultOp op, datacenter::VmId,
                                   datacenter::HostId, bool timed_out) {
    seen_op = op;
    seen_timeout = timed_out;
  };

  const auto v = t.f.admit_and_place(make_job(), 0);
  // The injected failure shortens the creation (fraction in [0.1, 0.9] of
  // 40 s) and takes the failure path at its end.
  t.f.simulator.run_until(50.0);
  EXPECT_EQ(t.f.dc.vm(v).state, VmState::kQueued);
  EXPECT_EQ(t.f.dc.vm(v).restarts, 1u);
  EXPECT_EQ(t.f.recorder.counts.op_failures, 1u);
  EXPECT_EQ(t.f.recorder.counts.op_timeouts, 0u);
  EXPECT_EQ(seen_op, faults::FaultOp::kCreate);
  EXPECT_FALSE(seen_timeout);
  EXPECT_TRUE(t.f.dc.host(0).ops.empty());
}

TEST(FaultedDatacenter, HungCreationIsAbortedAtTheDeadline) {
  FaultPlan plan;
  plan.enabled = true;
  plan.spec(FaultOp::kCreate).hang_prob = 1.0;
  InjectedDc t(plan);

  const auto v = t.f.admit_and_place(make_job(), 0);
  // Deadline = timeout_factor (4) x mean creation (40 s) = 160 s.
  t.f.simulator.run_until(150.0);
  EXPECT_EQ(t.f.dc.vm(v).state, VmState::kCreating);  // still wedged
  t.f.simulator.run_until(200.0);
  EXPECT_EQ(t.f.dc.vm(v).state, VmState::kQueued);
  EXPECT_EQ(t.f.recorder.counts.op_failures, 1u);
  EXPECT_EQ(t.f.recorder.counts.op_timeouts, 1u);
  EXPECT_TRUE(t.f.dc.host(0).ops.empty());
}

TEST(FaultedDatacenter, SlowCreationStillCompletes) {
  FaultPlan plan;
  plan.enabled = true;
  plan.spec(FaultOp::kCreate) = {0.0, 0.0, 1.0, 2.0};
  InjectedDc t(plan);

  const auto v = t.f.admit_and_place(make_job(), 0);
  // Stretch factor is in [1.5, 2.5] -> creation lands in [60, 100] s,
  // comfortably inside the 160 s deadline.
  t.f.simulator.run_until(59.0);
  EXPECT_EQ(t.f.dc.vm(v).state, VmState::kCreating);
  t.f.simulator.run_until(120.0);
  EXPECT_EQ(t.f.dc.vm(v).state, VmState::kRunning);
  EXPECT_EQ(t.f.recorder.counts.op_failures, 0u);
}

TEST(FaultedDatacenter, FailedMigrationRollsBackToSource) {
  FaultPlan plan;
  plan.enabled = true;
  plan.spec(FaultOp::kMigrate).fail_prob = 1.0;
  InjectedDc t(plan);

  const auto v = t.f.admit_and_place(make_job(100, 512, 50000), 0);
  t.f.simulator.run_until(100.0);
  ASSERT_EQ(t.f.dc.vm(v).state, VmState::kRunning);
  t.f.dc.migrate(v, 1);
  t.f.simulator.run_until(200.0);

  EXPECT_EQ(t.f.dc.vm(v).state, VmState::kRunning);
  EXPECT_EQ(t.f.dc.vm(v).host, 0u);
  EXPECT_EQ(t.f.dc.vm(v).migration_source, datacenter::kNoHost);
  EXPECT_EQ(t.f.recorder.counts.rollbacks, 1u);
  EXPECT_TRUE(t.f.dc.host(1).residents.empty());
  EXPECT_TRUE(t.f.dc.host(0).ops.empty());
  EXPECT_TRUE(t.f.dc.host(1).ops.empty());
}

TEST(FaultedDatacenter, BootFaultMarksHostFailedToStart) {
  FaultPlan plan;
  plan.enabled = true;
  plan.spec(FaultOp::kPowerOn).fail_prob = 1.0;
  InjectedDc t(plan);

  bool boot_failed = false;
  t.f.dc.on_host_boot_failed = [&](datacenter::HostId h) {
    boot_failed = h == 0;
  };
  t.f.dc.power_off(0);
  t.f.simulator.run_until(20.0);
  ASSERT_EQ(t.f.dc.host(0).state, HostState::kOff);
  t.f.dc.power_on(0);
  t.f.simulator.run_until(400.0);  // shortened boot, then the failure

  EXPECT_EQ(t.f.dc.host(0).state, HostState::kOff);
  EXPECT_EQ(t.f.recorder.counts.boot_failures, 1u);
  EXPECT_TRUE(boot_failed);
}

TEST(FaultedDatacenter, HungBootAndShutdownCountAsTimeouts) {
  FaultPlan plan;
  plan.enabled = true;
  plan.spec(FaultOp::kPowerOff).hang_prob = 1.0;
  InjectedDc t(plan);
  obs::Observability bundle;
  bundle.tracer.enable();
  t.f.recorder.obs = &bundle;
  bool shutdown_timed_out = false;
  t.f.dc.on_operation_failed = [&](FaultOp op, datacenter::VmId,
                                   datacenter::HostId, bool timed_out) {
    shutdown_timed_out = op == FaultOp::kPowerOff && timed_out;
  };

  // A wedged shutdown is abandoned at 4 x 10 s with the host still up.
  t.f.dc.power_off(0);
  t.f.simulator.run_until(50.0);
  ASSERT_EQ(t.f.dc.host(0).state, HostState::kOn);
  EXPECT_EQ(t.f.recorder.counts.op_failures, 1u);
  EXPECT_EQ(t.f.recorder.counts.op_timeouts, 1u);
  EXPECT_TRUE(shutdown_timed_out);
  std::size_t failed_events = 0;
  for (const obs::TraceEvent& e : bundle.tracer.events()) {
    if (e.kind != obs::EventKind::kOpFailed) continue;
    ++failed_events;
    EXPECT_EQ(e.label, "power_off");
    ASSERT_EQ(e.args.size(), 1u);
    EXPECT_EQ(e.args[0].first, "timeout");
    EXPECT_EQ(e.args[0].second, 1.0);
  }
  EXPECT_EQ(failed_events, 1u);

  // A hung boot is declared failed at its deadline, 4 x 300 s.
  plan.spec(FaultOp::kPowerOff).hang_prob = 0.0;
  plan.spec(FaultOp::kPowerOn).hang_prob = 1.0;
  InjectedDc boot(plan);
  boot.f.dc.power_off(0);
  boot.f.simulator.run_until(20.0);
  ASSERT_EQ(boot.f.dc.host(0).state, HostState::kOff);
  boot.f.dc.power_on(0);
  boot.f.simulator.run_until(1000.0);
  EXPECT_EQ(boot.f.dc.host(0).state, HostState::kBooting);
  boot.f.simulator.run_until(1300.0);
  EXPECT_EQ(boot.f.dc.host(0).state, HostState::kOff);
  EXPECT_EQ(boot.f.recorder.counts.boot_failures, 1u);
  EXPECT_EQ(boot.f.recorder.counts.op_timeouts, 1u);
}

// A boot slowed past its deadline (4 x 300 s) ends there as a timeout; one
// slowed less comes online late.
TEST(FaultedDatacenter, SlowBootPastItsDeadlineTimesOut) {
  // slow_factor 9 draws a factor in [5, 13): the boot would take 1500 s or
  // more.
  InjectedDc late(parse_fault_plan("power_on.slow=1,power_on.slow_factor=9"));
  late.f.dc.power_off(0);
  late.f.simulator.run_until(20.0);
  ASSERT_EQ(late.f.dc.host(0).state, HostState::kOff);
  late.f.dc.power_on(0);
  late.f.simulator.run_until(1219.0);
  EXPECT_EQ(late.f.dc.host(0).state, HostState::kBooting);
  late.f.simulator.run_until(1220.0);
  EXPECT_EQ(late.f.dc.host(0).state, HostState::kOff);
  EXPECT_EQ(late.f.recorder.counts.boot_failures, 1u);
  EXPECT_EQ(late.f.recorder.counts.op_timeouts, 1u);

  // slow_factor 2 draws a factor in [1.5, 2.5): the boot takes 450-750 s.
  InjectedDc slow(parse_fault_plan("power_on.slow=1,power_on.slow_factor=2"));
  slow.f.dc.power_off(0);
  slow.f.simulator.run_until(20.0);
  slow.f.dc.power_on(0);
  slow.f.simulator.run_until(469.0);
  EXPECT_EQ(slow.f.dc.host(0).state, HostState::kBooting);
  slow.f.simulator.run_until(1300.0);
  EXPECT_EQ(slow.f.dc.host(0).state, HostState::kOn);
  EXPECT_EQ(slow.f.recorder.counts.boot_failures, 0u);
  EXPECT_EQ(slow.f.recorder.counts.op_timeouts, 0u);
}

// A shutdown slowed past its deadline (4 x 10 s) is abandoned there as a
// timeout with the host still On, as a hung one is; one slowed less
// completes late.
TEST(FaultedDatacenter, SlowShutdownPastItsDeadlineTimesOut) {
  // slow_factor 9 draws a factor in [5, 13): the shutdown would take 50 s
  // or more.
  InjectedDc late(
      parse_fault_plan("power_off.slow=1,power_off.slow_factor=9"));
  bool timed_out = false;
  late.f.dc.on_operation_failed = [&](FaultOp op, datacenter::VmId,
                                      datacenter::HostId, bool timeout) {
    timed_out = op == FaultOp::kPowerOff && timeout;
  };
  late.f.dc.power_off(0);
  late.f.simulator.run_until(39.0);
  EXPECT_EQ(late.f.dc.host(0).state, HostState::kShuttingDown);
  late.f.simulator.run_until(40.0);
  EXPECT_EQ(late.f.dc.host(0).state, HostState::kOn);
  EXPECT_EQ(late.f.recorder.counts.op_failures, 1u);
  EXPECT_EQ(late.f.recorder.counts.op_timeouts, 1u);
  EXPECT_TRUE(timed_out);
  late.f.simulator.run_until(200.0);
  EXPECT_EQ(late.f.dc.host(0).state, HostState::kOn);

  // slow_factor 2 draws a factor in [1.5, 2.5): the shutdown takes 15-25 s.
  InjectedDc slow(
      parse_fault_plan("power_off.slow=1,power_off.slow_factor=2"));
  slow.f.dc.power_off(0);
  slow.f.simulator.run_until(14.0);
  EXPECT_EQ(slow.f.dc.host(0).state, HostState::kShuttingDown);
  slow.f.simulator.run_until(40.0);
  EXPECT_EQ(slow.f.dc.host(0).state, HostState::kOff);
  EXPECT_EQ(slow.f.recorder.counts.op_failures, 0u);
  EXPECT_EQ(slow.f.recorder.counts.op_timeouts, 0u);
}

TEST(FaultedDatacenter, QuarantineAfterBudgetThenCooldownRelease) {
  FaultPlan plan;
  plan.enabled = true;
  plan.spec(FaultOp::kCreate).fail_prob = 1.0;
  plan.quarantine.failure_budget = 2;
  plan.quarantine.window_s = 3600;
  plan.quarantine.cooldown_s = 100;
  InjectedDc t(plan, 1);

  const auto v = t.f.admit_and_place(make_job(), 0);
  t.f.simulator.run_until(50.0);  // first injected creation failure
  ASSERT_EQ(t.f.dc.vm(v).state, VmState::kQueued);
  EXPECT_FALSE(t.f.dc.host(0).quarantined);

  t.f.dc.place(v, 0);  // second failure exhausts the budget
  t.f.simulator.run_until(100.0);
  EXPECT_TRUE(t.f.dc.host(0).quarantined);
  EXPECT_FALSE(t.f.dc.host(0).is_placeable());
  EXPECT_EQ(t.f.recorder.counts.quarantines, 1u);

  // After the cooldown the host earns another chance.
  t.f.simulator.run_until(250.0);
  EXPECT_FALSE(t.f.dc.host(0).quarantined);
  EXPECT_TRUE(t.f.dc.host(0).is_placeable());
}

// Regression for the failure-window boundary comparison: a fault landing
// exactly window_s after the window opened belongs to a fresh window. The
// old `>` comparison counted it against the stale window, so periodic
// faults spaced exactly one window apart (deadline aborts land on exact
// multiples of timeout_factor x the deterministic creation time, and a
// cooldown expiry can re-open the window on the same round boundary)
// re-quarantined a host that never accumulated the budget within any
// single window.
TEST(FaultedDatacenter, FaultExactlyOnWindowBoundaryOpensFreshWindow) {
  FaultPlan plan;
  plan.enabled = true;
  plan.spec(FaultOp::kCreate).hang_prob = 1.0;  // abort at exactly 4 x 40 s
  plan.quarantine.failure_budget = 2;
  plan.quarantine.window_s = 320;  // second abort lands exactly on the boundary
  plan.quarantine.cooldown_s = 100;
  InjectedDc t(plan, 1);

  const auto v = t.f.admit_and_place(make_job(), 0);
  t.f.simulator.run_until(160.0);  // first deadline abort, in-window fault
  ASSERT_EQ(t.f.dc.vm(v).state, VmState::kQueued);
  ASSERT_FALSE(t.f.dc.host(0).quarantined);

  t.f.dc.place(v, 0);              // second hang, aborts at exactly t = 320
  t.f.simulator.run_until(320.0);
  ASSERT_EQ(t.f.dc.vm(v).state, VmState::kQueued);
  EXPECT_FALSE(t.f.dc.host(0).quarantined);
  EXPECT_EQ(t.f.recorder.counts.quarantines, 0u);
}

TEST(FaultedDatacenter, FaultStrictlyInsideWindowStillQuarantines) {
  // Sanity pair for the boundary test above: widen the window by one second
  // and the same two aborts do exhaust the budget.
  FaultPlan plan;
  plan.enabled = true;
  plan.spec(FaultOp::kCreate).hang_prob = 1.0;
  plan.quarantine.failure_budget = 2;
  plan.quarantine.window_s = 321;
  plan.quarantine.cooldown_s = 100;
  InjectedDc t(plan, 1);

  const auto v = t.f.admit_and_place(make_job(), 0);
  t.f.simulator.run_until(160.0);
  ASSERT_FALSE(t.f.dc.host(0).quarantined);
  t.f.dc.place(v, 0);
  t.f.simulator.run_until(320.0);
  EXPECT_TRUE(t.f.dc.host(0).quarantined);
  EXPECT_EQ(t.f.recorder.counts.quarantines, 1u);
}

// ---- end-to-end: fault-heavy experiments ------------------------------------

std::unique_ptr<TracedRun> run_chaos() {
  experiments::RunConfig config;
  config.datacenter = {};
  config.datacenter.hosts = experiments::evaluation_hosts(2, 3, 2);
  config.datacenter.seed = 5;
  config.policy_instance = std::make_unique<core::ScoreBasedPolicy>(
      core::ScoreBasedConfig::sb());
  config.faults = chaos_experiment_plan();
  config.horizon_s = 30 * sim::kDay;
  return run_traced(chaos_workload(), std::move(config));
}

TEST(FaultExperiment, FaultHeavyRunFinishesEveryJob) {
  const auto run = run_chaos();
  const auto& result = run->result;
  EXPECT_FALSE(result.hit_horizon);
  EXPECT_EQ(result.jobs_finished, result.jobs_submitted);
  EXPECT_GT(result.faults_injected, 0u);
  EXPECT_GT(run->count(obs::EventKind::kFaultInjected), 0u);
  EXPECT_GT(result.report.op_failures, 0u);
  EXPECT_GT(result.report.retries, 0u);
  // The formatted robustness line only appears on fault-heavy runs.
  EXPECT_FALSE(result.report.robustness_to_string().empty());
}

TEST(FaultExperiment, TraceIsDeterministicAcrossRuns) {
  const auto a = run_chaos();
  const auto b = run_chaos();
  EXPECT_EQ(a->jsonl(), b->jsonl());
  EXPECT_EQ(a->result.faults_injected, b->result.faults_injected);
  EXPECT_EQ(a->result.events_dispatched, b->result.events_dispatched);
  EXPECT_DOUBLE_EQ(a->result.report.energy_kwh, b->result.report.energy_kwh);
}

TEST(FaultExperiment, DisabledPlanIsBitIdenticalToNoPlan) {
  const auto run = [](bool with_inert_plan) {
    experiments::RunConfig config;
    config.datacenter.hosts = experiments::evaluation_hosts(1, 2, 1);
    config.datacenter.seed = 3;
    config.policy = "BF";
    if (with_inert_plan) config.faults = FaultPlan{};  // enabled == false
    return run_traced(chaos_workload(), std::move(config));
  };
  const auto bare = run(false);
  const auto inert = run(true);
  EXPECT_EQ(inert->result.faults_injected, 0u);
  EXPECT_EQ(bare->jsonl(), inert->jsonl());
  EXPECT_EQ(bare->result.events_dispatched, inert->result.events_dispatched);
  EXPECT_DOUBLE_EQ(bare->result.report.energy_kwh,
                   inert->result.report.energy_kwh);
  EXPECT_EQ(bare->result.report.migrations, inert->result.report.migrations);
}

// The plan is the only home of the recovery knobs: the driver's backoff
// and the Datacenter's quarantine read them from the run's injector.
// Each knob is set off its default to a value whose effect the defaults
// cannot produce.
TEST(FaultExperiment, PlanRecoveryKnobsReachTheRun) {
  constexpr double kBase = 11;
  constexpr double kJitter = 0.1;
  constexpr int kBudget = 2;
  experiments::RunConfig config;
  config.datacenter.hosts = experiments::evaluation_hosts(2, 3, 2);
  config.datacenter.seed = 5;
  config.policy_instance = std::make_unique<core::ScoreBasedPolicy>(
      core::ScoreBasedConfig::sb());
  config.faults = chaos_experiment_plan();
  config.faults.retry.base_s = kBase;
  config.faults.retry.jitter = kJitter;
  config.faults.quarantine.failure_budget = kBudget;
  config.faults.quarantine.window_s = 30 * sim::kDay;
  ASSERT_NE(kBase, RetryPolicy{}.base_s);
  ASSERT_NE(kJitter, RetryPolicy{}.jitter);
  ASSERT_NE(kBudget, QuarantinePolicy{}.failure_budget);
  config.horizon_s = 30 * sim::kDay;
  const auto run = run_traced(chaos_workload(), std::move(config));
  const auto& events = run->obs.tracer.events();

  const auto retry =
      std::find_if(events.begin(), events.end(), [](const obs::TraceEvent& e) {
        return e.kind == obs::EventKind::kRetry;
      });
  ASSERT_NE(retry, events.end());
  double delay_s = -1;
  for (const auto& [key, value] : retry->args) {
    if (key == "delay_s") delay_s = value;
  }
  EXPECT_GE(delay_s, kBase);
  EXPECT_LE(delay_s, kBase * (1 + kJitter));

  // Every fault charged to a host traces one of these kinds on it first.
  const auto quarantine =
      std::find_if(events.begin(), events.end(), [](const obs::TraceEvent& e) {
        return e.kind == obs::EventKind::kQuarantine;
      });
  ASSERT_NE(quarantine, events.end());
  const std::int64_t host = quarantine->host;
  const auto faults = std::count_if(
      events.begin(), quarantine, [host](const obs::TraceEvent& e) {
        return e.host == host && (e.kind == obs::EventKind::kOpFailed ||
                                  e.kind == obs::EventKind::kBootFailed ||
                                  e.kind == obs::EventKind::kHostFailed);
      });
  EXPECT_EQ(faults, kBudget);
}

}  // namespace
}  // namespace easched::faults
