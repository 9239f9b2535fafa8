// Tests for the resilience control plane (src/resilience/): spec parsing,
// the solver-deadline watchdog and its degradation ladder (downshift on
// breach, hysteresis recovery), admission-control tiers, the per-host
// circuit-breaker state machine, the degraded policy rungs, and the
// end-to-end guarantees — a seeded overload scenario that downshifts,
// sheds and recovers deterministically across repeated runs, and
// an enabled-but-inert controller that is bit-identical to no controller.
#include <gtest/gtest.h>

#include <memory>

#include "core/score_based_policy.hpp"
#include "experiments/runner.hpp"
#include "experiments/setup.hpp"
#include "metrics/accumulators.hpp"
#include "resilience/resilience.hpp"
#include "test_fixtures.hpp"
#include "workload/job.hpp"

namespace easched::resilience {
namespace {

using easched::testing::make_job;
using easched::testing::SmallDc;

// ---- spec parsing -----------------------------------------------------------

TEST(ResilienceSpec, OnOffAndDefaults) {
  EXPECT_TRUE(parse_resilience_spec("on").enabled);
  EXPECT_TRUE(parse_resilience_spec("").enabled);
  EXPECT_FALSE(parse_resilience_spec("off").enabled);
  const ResilienceConfig c = parse_resilience_spec("on");
  EXPECT_EQ(c.solver_budget_moves, 256);
  EXPECT_EQ(c.max_pending, 0u);  // admission off unless bounded explicitly
  EXPECT_EQ(c.breaker_threshold, 3);
  EXPECT_FALSE(ResilienceConfig{}.enabled);  // default-constructed is inert
}

TEST(ResilienceSpec, KeyValuePairs) {
  const ResilienceConfig c = parse_resilience_spec(
      "budget=64,degraded_budget=16,recovery_rounds=5,max_pending=32,"
      "defer_fill=0.5,shed_fill=0.9,defer_delay=30,max_defers=4,"
      "effort_alpha=0.5,effort_watermark=100,breaker_threshold=2,"
      "probe_after=120,dead_after=3");
  EXPECT_TRUE(c.enabled);
  EXPECT_EQ(c.solver_budget_moves, 64);
  EXPECT_EQ(c.degraded_budget_moves, 16);
  EXPECT_EQ(c.recovery_rounds, 5);
  EXPECT_EQ(c.max_pending, 32u);
  EXPECT_DOUBLE_EQ(c.defer_fill, 0.5);
  EXPECT_DOUBLE_EQ(c.shed_fill, 0.9);
  EXPECT_DOUBLE_EQ(c.defer_delay_s, 30.0);
  EXPECT_EQ(c.max_defers_per_job, 4);
  EXPECT_DOUBLE_EQ(c.effort_alpha, 0.5);
  EXPECT_DOUBLE_EQ(c.effort_defer_watermark, 100.0);
  EXPECT_EQ(c.breaker_threshold, 2);
  EXPECT_DOUBLE_EQ(c.breaker_probe_after_s, 120.0);
  EXPECT_EQ(c.breaker_dead_after, 3);
}

TEST(ResilienceSpec, RejectsBadInput) {
  EXPECT_THROW(parse_resilience_spec("bogus=1"), std::invalid_argument);
  EXPECT_THROW(parse_resilience_spec("budget"), std::invalid_argument);
  EXPECT_THROW(parse_resilience_spec("budget=lots"), std::invalid_argument);
  EXPECT_THROW(parse_resilience_spec("budget=-4"), std::invalid_argument);
  EXPECT_THROW(parse_resilience_spec("recovery_rounds=0"),
               std::invalid_argument);
  EXPECT_THROW(parse_resilience_spec("defer_fill=0.9,shed_fill=0.5"),
               std::invalid_argument);
  EXPECT_THROW(parse_resilience_spec("effort_alpha=0"), std::invalid_argument);
}

// ---- degradation ladder -----------------------------------------------------

struct ControllerFixture {
  metrics::Recorder recorder{4};
  ResilienceConfig config;
  std::unique_ptr<ResilienceController> rc;

  explicit ControllerFixture(ResilienceConfig c) : config(c) {
    config.enabled = true;
    rc = std::make_unique<ResilienceController>(config, recorder, 4);
  }

  /// One scheduling round reporting `moves` of solver effort at time `t`.
  void round(double t, int moves) {
    rc->begin_round(t);
    rc->note_solver_effort(t, moves);
    rc->end_round(t);
  }
};

ResilienceConfig watchdog_config() {
  ResilienceConfig c;
  c.solver_budget_moves = 10;
  c.degraded_budget_moves = 5;
  c.recovery_rounds = 2;
  c.breaker_threshold = 0;  // ladder-only
  return c;
}

TEST(Ladder, DownshiftsOneRungPerBreachingRound) {
  ControllerFixture f(watchdog_config());
  EXPECT_EQ(f.rc->ladder(), LadderLevel::kFull);
  EXPECT_EQ(f.rc->solver_budget(), 10);

  f.round(0, 10);  // hits the budget exactly: breach
  EXPECT_EQ(f.rc->ladder(), LadderLevel::kCachedClimb);
  EXPECT_EQ(f.rc->solver_budget(), 5);

  f.round(60, 5);  // breaches the tightened budget
  EXPECT_EQ(f.rc->ladder(), LadderLevel::kFirstFit);
  EXPECT_EQ(f.rc->solver_budget(), 5);  // first-fit shares the tight budget

  EXPECT_EQ(f.recorder.counts.solver_breaches, 2u);
  EXPECT_EQ(f.recorder.counts.ladder_downshifts, 2u);
  EXPECT_EQ(f.rc->max_level_reached(), LadderLevel::kFirstFit);
}

TEST(Ladder, StaysBelowBudgetStaysAtFull) {
  ControllerFixture f(watchdog_config());
  for (int i = 0; i < 20; ++i) f.round(i * 60.0, 9);
  EXPECT_EQ(f.rc->ladder(), LadderLevel::kFull);
  EXPECT_EQ(f.recorder.counts.solver_breaches, 0u);
  EXPECT_EQ(f.recorder.counts.ladder_downshifts, 0u);
}

TEST(Ladder, RecoveryNeedsConsecutiveHealthyRounds) {
  ControllerFixture f(watchdog_config());
  f.round(0, 10);  // -> kCachedClimb
  ASSERT_EQ(f.rc->ladder(), LadderLevel::kCachedClimb);

  f.round(60, 1);   // healthy 1 of 2
  EXPECT_EQ(f.rc->ladder(), LadderLevel::kCachedClimb);
  f.round(120, 5);  // breach resets the healthy streak -> kFirstFit
  ASSERT_EQ(f.rc->ladder(), LadderLevel::kFirstFit);

  f.round(180, 0);  // healthy 1 of 2
  EXPECT_EQ(f.rc->ladder(), LadderLevel::kFirstFit);
  f.round(240, 0);  // healthy 2 of 2 -> one rung up
  EXPECT_EQ(f.rc->ladder(), LadderLevel::kCachedClimb);
  EXPECT_EQ(f.rc->healthy_rounds(), 0);  // streak restarts per rung

  f.round(300, 1);
  f.round(360, 1);
  EXPECT_EQ(f.rc->ladder(), LadderLevel::kFull);
  EXPECT_EQ(f.recorder.counts.ladder_upshifts, 2u);
  // The high-water mark survives the recovery.
  EXPECT_EQ(f.rc->max_level_reached(), LadderLevel::kFirstFit);
}

TEST(Ladder, FrozenIsTheFloorAndRecoversThroughFirstFit) {
  ControllerFixture f(watchdog_config());
  f.round(0, 999);  // kFull -> kCachedClimb (budget 10 breached)
  f.round(1, 999);  // kCachedClimb -> kFirstFit (budget 5 breached)
  f.round(2, 999);  // first-fit placements breach the shared budget too
  EXPECT_EQ(f.rc->ladder(), LadderLevel::kFrozen);
  EXPECT_EQ(f.rc->solver_budget(), 0);  // nothing runs while frozen

  // Frozen rounds report no effort against a zero budget: never a breach,
  // so the floor holds and the healthy streak starts counting.
  f.round(3, 999);
  EXPECT_EQ(f.rc->ladder(), LadderLevel::kFrozen);
  EXPECT_EQ(f.recorder.counts.ladder_downshifts, 3u);

  f.round(4, 0);  // healthy 2 of 2: thaw one rung, back to first-fit
  EXPECT_EQ(f.rc->ladder(), LadderLevel::kFirstFit);
  EXPECT_EQ(f.rc->max_level_reached(), LadderLevel::kFrozen);
}

TEST(Ladder, ZeroBudgetDisablesTheWatchdog) {
  ResilienceConfig c = watchdog_config();
  c.solver_budget_moves = 0;
  ControllerFixture f(c);
  for (int i = 0; i < 5; ++i) f.round(i * 60.0, 100000);
  EXPECT_EQ(f.rc->ladder(), LadderLevel::kFull);
  EXPECT_EQ(f.rc->solver_budget(), 0);  // 0 = unlimited
  EXPECT_EQ(f.recorder.counts.solver_breaches, 0u);
}

TEST(Ladder, EffortEwmaTracksRoundMoves) {
  ResilienceConfig c = watchdog_config();
  c.solver_budget_moves = 0;
  c.effort_alpha = 0.5;
  ControllerFixture f(c);
  f.round(0, 8);
  EXPECT_DOUBLE_EQ(f.rc->effort_ewma(), 4.0);
  f.round(60, 8);
  EXPECT_DOUBLE_EQ(f.rc->effort_ewma(), 6.0);
}

// ---- admission control ------------------------------------------------------

ResilienceConfig admission_config() {
  ResilienceConfig c;
  c.solver_budget_moves = 0;  // watchdog off
  c.breaker_threshold = 0;
  c.max_pending = 10;
  c.defer_fill = 0.75;
  c.shed_fill = 1.0;
  c.max_defers_per_job = 2;
  return c;
}

TEST(AdmissionControl, TiersFollowQueueDepth) {
  ControllerFixture f(admission_config());
  EXPECT_EQ(f.rc->admit(0, 0, 0), Admission::kAdmit);
  EXPECT_EQ(f.rc->admit(0, 7, 0), Admission::kAdmit);   // below 0.75 * 10
  EXPECT_EQ(f.rc->admit(0, 8, 0), Admission::kDefer);   // defer tier
  EXPECT_EQ(f.rc->admit(0, 9, 0), Admission::kDefer);
  EXPECT_EQ(f.rc->admit(0, 10, 0), Admission::kShed);   // at capacity
  EXPECT_EQ(f.rc->admit(0, 25, 0), Admission::kShed);
  EXPECT_EQ(f.recorder.counts.jobs_deferred, 2u);
  EXPECT_EQ(f.recorder.counts.jobs_shed, 2u);
}

TEST(AdmissionControl, ExhaustedDefersEscalateToShed) {
  ControllerFixture f(admission_config());
  EXPECT_EQ(f.rc->admit(0, 8, 1), Admission::kDefer);
  EXPECT_EQ(f.rc->admit(0, 8, 2), Admission::kShed);  // max_defers_per_job
  EXPECT_EQ(f.rc->admit(0, 8, 7), Admission::kShed);
}

TEST(AdmissionControl, EffortWatermarkDefersEvenWhenShallow) {
  ResilienceConfig c = admission_config();
  c.effort_alpha = 1.0;  // EWMA == last round's moves
  c.effort_defer_watermark = 50;
  ControllerFixture f(c);
  EXPECT_EQ(f.rc->admit(0, 1, 0), Admission::kAdmit);
  f.round(0, 80);  // hot round pushes the EWMA over the watermark
  EXPECT_EQ(f.rc->admit(1, 1, 0), Admission::kDefer);
  f.round(60, 0);  // effort subsides
  EXPECT_EQ(f.rc->admit(61, 1, 0), Admission::kAdmit);
}

TEST(AdmissionControl, UnboundedQueueAdmitsEverything) {
  ResilienceConfig c = admission_config();
  c.max_pending = 0;
  ControllerFixture f(c);
  EXPECT_EQ(f.rc->admit(0, 100000, 99), Admission::kAdmit);
  EXPECT_EQ(f.recorder.counts.jobs_shed, 0u);
}

// ---- circuit breakers -------------------------------------------------------

ResilienceConfig breaker_config() {
  ResilienceConfig c;
  c.solver_budget_moves = 0;
  c.max_pending = 0;
  c.breaker_threshold = 2;
  c.breaker_probe_after_s = 100;
  c.breaker_dead_after = 2;
  return c;
}

TEST(CircuitBreaker, OpensAfterConsecutiveFailures) {
  ControllerFixture f(breaker_config());
  f.rc->note_op_failure(0, 10);
  EXPECT_EQ(f.rc->health(0), HostHealth::kHealthy);
  EXPECT_TRUE(f.rc->allows_placement(0, 10));
  f.rc->note_op_failure(0, 20);
  EXPECT_EQ(f.rc->health(0), HostHealth::kSuspect);
  EXPECT_FALSE(f.rc->allows_placement(0, 20));  // probe delay not served
  EXPECT_EQ(f.recorder.counts.breaker_opens, 1u);
  // Other hosts are untouched.
  EXPECT_EQ(f.rc->health(1), HostHealth::kHealthy);
}

TEST(CircuitBreaker, SuccessResetsTheFailureStreak) {
  ControllerFixture f(breaker_config());
  f.rc->note_op_failure(0, 10);
  f.rc->note_op_success(0, 20);
  f.rc->note_op_failure(0, 30);
  EXPECT_EQ(f.rc->health(0), HostHealth::kHealthy);
  EXPECT_EQ(f.recorder.counts.breaker_opens, 0u);
}

TEST(CircuitBreaker, HalfOpenProbeClosesOnSuccess) {
  ControllerFixture f(breaker_config());
  f.rc->note_op_failure(0, 0);
  f.rc->note_op_failure(0, 10);  // opens at t=10
  ASSERT_EQ(f.rc->health(0), HostHealth::kSuspect);

  EXPECT_FALSE(f.rc->allows_placement(0, 109));  // delay not served yet
  EXPECT_TRUE(f.rc->allows_placement(0, 110));   // half-open

  f.rc->note_op_start(0, 110);  // consumes the single probe slot
  EXPECT_EQ(f.recorder.counts.breaker_probes, 1u);
  EXPECT_FALSE(f.rc->allows_placement(0, 120));  // one probe at a time

  f.rc->note_op_success(0, 150);
  EXPECT_EQ(f.rc->health(0), HostHealth::kHealthy);
  EXPECT_TRUE(f.rc->allows_placement(0, 150));
  EXPECT_EQ(f.recorder.counts.breaker_closes, 1u);
}

TEST(CircuitBreaker, RepeatedProbeFailuresKillTheHost) {
  ControllerFixture f(breaker_config());
  f.rc->note_op_failure(0, 0);
  f.rc->note_op_failure(0, 10);  // open, streak 1
  ASSERT_EQ(f.rc->health(0), HostHealth::kSuspect);

  f.rc->note_op_start(0, 110);
  f.rc->note_op_failure(0, 120);  // probe fails: re-open, streak 2 -> dead
  EXPECT_EQ(f.rc->health(0), HostHealth::kDead);
  EXPECT_FALSE(f.rc->allows_placement(0, 1e9));
  EXPECT_FALSE(f.rc->allows_power_on(0));
  EXPECT_EQ(f.recorder.counts.breaker_opens, 2u);
  EXPECT_EQ(f.recorder.counts.breaker_deaths, 1u);
  EXPECT_EQ(f.rc->breakers_not_healthy(), 1u);

  // Hardware repair earns a fresh Suspect chance, probing again later.
  f.rc->note_host_repaired(0, 2000);
  EXPECT_EQ(f.rc->health(0), HostHealth::kSuspect);
  EXPECT_TRUE(f.rc->allows_power_on(0));
  EXPECT_TRUE(f.rc->allows_placement(0, 2100));
}

TEST(CircuitBreaker, QuarantineOverlaysAndReleasesToSuspect) {
  ControllerFixture f(breaker_config());
  f.rc->note_host_quarantined(0, 50);
  EXPECT_EQ(f.rc->health(0), HostHealth::kQuarantined);
  EXPECT_FALSE(f.rc->allows_placement(0, 60));
  EXPECT_TRUE(f.rc->allows_power_on(0));  // quarantine is not death

  f.rc->note_host_unquarantined(0, 500);
  EXPECT_EQ(f.rc->health(0), HostHealth::kSuspect);
  EXPECT_FALSE(f.rc->allows_placement(0, 510));  // must serve the probe delay
  EXPECT_TRUE(f.rc->allows_placement(0, 600));
}

TEST(CircuitBreaker, CrashOpensImmediately) {
  ControllerFixture f(breaker_config());
  f.rc->note_host_crashed(2, 30);
  EXPECT_EQ(f.rc->health(2), HostHealth::kSuspect);
  EXPECT_EQ(f.recorder.counts.breaker_opens, 1u);
}

TEST(CircuitBreaker, DisabledThresholdIsInert) {
  ResilienceConfig c = breaker_config();
  c.breaker_threshold = 0;
  ControllerFixture f(c);
  for (int i = 0; i < 10; ++i) f.rc->note_op_failure(0, i);
  EXPECT_EQ(f.rc->health(0), HostHealth::kHealthy);
  EXPECT_TRUE(f.rc->allows_placement(0, 100));
  EXPECT_EQ(f.recorder.counts.breaker_opens, 0u);
}

// ---- degraded policy rungs --------------------------------------------------

struct PolicyFixture {
  SmallDc f{3};
  support::Rng rng{11};
  core::ScoreBasedPolicy policy{core::ScoreBasedConfig::sb()};
  std::vector<datacenter::VmId> queue;

  void enqueue(int n) {
    // Half a host each (hosts are 4-way, 400% CPU): two VMs fill a host.
    for (int i = 0; i < n; ++i) {
      queue.push_back(f.dc.admit_job(make_job(200, 256)));
    }
  }
};

TEST(DegradedPolicy, FrozenRungEmitsNoActions) {
  PolicyFixture t;
  t.enqueue(3);
  sched::SchedContext ctx{t.f.dc, t.queue, t.rng};
  ctx.ladder = LadderLevel::kFrozen;
  EXPECT_TRUE(t.policy.schedule(ctx).empty());
}

TEST(DegradedPolicy, FirstFitRungPlacesGreedily) {
  PolicyFixture t;
  t.enqueue(3);
  sched::SchedContext ctx{t.f.dc, t.queue, t.rng};
  ctx.ladder = LadderLevel::kFirstFit;
  const auto actions = t.policy.schedule(ctx);
  ASSERT_EQ(actions.size(), 3u);
  for (const auto& a : actions) {
    EXPECT_EQ(a.kind, sched::Action::Kind::kPlace);
  }
  // Greedy ascending host order: the first placements stack on host 0
  // until its capacity is spoken for (two 200% VMs fill a 400% host).
  EXPECT_EQ(actions[0].host, 0u);
  EXPECT_EQ(actions[1].host, 0u);
  EXPECT_EQ(actions[2].host, 1u);
}

TEST(DegradedPolicy, FirstFitRespectsPlannedReservations) {
  PolicyFixture t;
  // Each job wants 300% CPU: only one fits per 400% host even though
  // fits() alone would accept a second before the first materialises.
  for (int i = 0; i < 3; ++i) {
    t.queue.push_back(t.f.dc.admit_job(make_job(300, 256)));
  }
  sched::SchedContext ctx{t.f.dc, t.queue, t.rng};
  ctx.ladder = LadderLevel::kFirstFit;
  const auto actions = t.policy.schedule(ctx);
  ASSERT_EQ(actions.size(), 3u);
  EXPECT_EQ(actions[0].host, 0u);
  EXPECT_EQ(actions[1].host, 1u);
  EXPECT_EQ(actions[2].host, 2u);
}

TEST(DegradedPolicy, SolverBudgetCapsHillClimbMoves) {
  PolicyFixture t;
  t.enqueue(3);
  sched::SchedContext ctx{t.f.dc, t.queue, t.rng};
  ctx.ladder = LadderLevel::kCachedClimb;
  ctx.solver_budget = 2;
  t.policy.schedule(ctx);
  EXPECT_LE(t.policy.last_stats().moves, 2);
}

// ---- end-to-end: seeded overload scenario -----------------------------------

/// Arrival burst (40 jobs in the first 400 s) against a small fleet with
/// two lemon hosts; the resilience config bounds the queue and the solver.
workload::Workload burst_workload() {
  workload::Workload jobs;
  for (int i = 0; i < 40; ++i) {
    jobs.push_back(make_job(100, 512, 2000 + 100 * (i % 7), 1.5,
                            /*submit=*/10.0 * i));
  }
  return jobs;
}

ResilienceConfig overload_resilience() {
  ResilienceConfig c;
  c.enabled = true;
  // The admission tiers cap the queue near defer_fill * max_pending = 6, so
  // burst rounds apply ~5-6 placement moves; a budget of 4 makes those
  // rounds breach while quiet rounds (a couple of moves) stay healthy.
  c.solver_budget_moves = 4;
  c.degraded_budget_moves = 2;
  c.recovery_rounds = 3;
  c.max_pending = 12;
  c.defer_fill = 0.5;
  c.shed_fill = 1.0;
  c.defer_delay_s = 120;
  c.max_defers_per_job = 6;
  c.breaker_threshold = 2;
  c.breaker_probe_after_s = 300;
  return c;
}

experiments::RunResult run_overload() {
  experiments::RunConfig config;
  config.datacenter.hosts = experiments::evaluation_hosts(1, 3, 1);
  config.datacenter.seed = 5;
  config.policy_instance = std::make_unique<core::ScoreBasedPolicy>(
      core::ScoreBasedConfig::sb());
  config.faults = faults::parse_fault_plan(
      "seed=42,create.fail=0.15,migrate.fail=0.1,lemon=1:6,lemon=3:6,"
      "retry_base=5,retry_cap=60,quarantine_window=1800,"
      "quarantine_cooldown=600");
  config.resilience = overload_resilience();
  config.validate.enabled = true;  // ladder/breaker invariants checked live
  config.horizon_s = 30 * sim::kDay;
  return experiments::run_experiment(burst_workload(), std::move(config));
}

TEST(OverloadScenario, DownshiftsShedsRecoversAndFinishes) {
  const auto result = run_overload();
  EXPECT_FALSE(result.hit_horizon);
  // Every submitted job is accounted for: finished or deliberately shed.
  EXPECT_EQ(result.jobs_finished + result.jobs_shed, result.jobs_submitted);
  EXPECT_EQ(result.jobs_shed, result.report.jobs_shed);

  // The burst must actually exercise the control plane...
  EXPECT_GT(result.report.solver_breaches, 0u);
  EXPECT_GT(result.report.ladder_downshifts, 0u);
  EXPECT_GT(result.report.jobs_deferred, 0u);
  EXPECT_GE(result.report.max_ladder_level, 1);
  // ...and the ladder must find its way back up once the burst drains (the
  // run may end mid-recovery, so upshifts trail downshifts at most).
  EXPECT_GT(result.report.ladder_upshifts, 0u);
  EXPECT_GE(result.report.ladder_downshifts, result.report.ladder_upshifts);
  EXPECT_FALSE(result.report.resilience_to_string().empty());

  // Live invariant checking saw every transition and stayed silent.
  EXPECT_GT(result.invariant_checks, 0u);
  EXPECT_TRUE(result.violations.empty()) << result.violations.size();
}

TEST(OverloadScenario, DeterministicAcrossRepeats) {
  // The watchdog budget is counted in solver moves, never wall time, so an
  // actively-degrading run must replay bit for bit.
  const auto a = run_overload();
  const auto b = run_overload();
  ASSERT_GT(a.report.ladder_downshifts, 0u);  // ladder was active
  EXPECT_EQ(a.events_dispatched, b.events_dispatched);
  EXPECT_EQ(a.fault_trace, b.fault_trace);
  EXPECT_DOUBLE_EQ(a.report.energy_kwh, b.report.energy_kwh);
  EXPECT_EQ(a.report.jobs_shed, b.report.jobs_shed);
  EXPECT_EQ(a.report.ladder_downshifts, b.report.ladder_downshifts);
  EXPECT_EQ(a.report.metrics.to_csv(), b.report.metrics.to_csv());
  EXPECT_EQ(a.report.resilience_to_string(), b.report.resilience_to_string());
}

TEST(OverloadScenario, FaultPlanBreakerKeysArmTheBreakers) {
  experiments::RunConfig config;
  config.datacenter.hosts = experiments::evaluation_hosts(1, 3, 1);
  config.datacenter.seed = 5;
  config.policy = "SB";
  config.faults = faults::parse_fault_plan(
      "seed=42,create.fail=0.5,lemon=1:2,retry_base=5,retry_cap=60,"
      "quarantine_budget=50,breaker_threshold=2,breaker_probe_after=120");
  config.horizon_s = 30 * sim::kDay;
  const auto result =
      experiments::run_experiment(burst_workload(), std::move(config));
  EXPECT_FALSE(result.hit_horizon);
  EXPECT_EQ(result.jobs_finished, result.jobs_submitted);
  EXPECT_GT(result.report.breaker_opens, 0u);
}

TEST(RunnerIdentity, InertControllerIsBitIdenticalToNoController) {
  const auto run = [](bool with_inert_controller) {
    experiments::RunConfig config;
    config.datacenter.hosts = experiments::evaluation_hosts(1, 3, 1);
    config.datacenter.seed = 5;
    config.policy = "SB";
    if (with_inert_controller) {
      // Enabled but with every mechanism neutralised: unlimited solver
      // budget, unbounded queue, breakers off. Must not perturb anything.
      ResilienceConfig c;
      c.enabled = true;
      c.solver_budget_moves = 0;
      c.max_pending = 0;
      c.breaker_threshold = 0;
      config.resilience = c;
    }
    config.horizon_s = 30 * sim::kDay;
    return experiments::run_experiment(burst_workload(), std::move(config));
  };
  const auto bare = run(false);
  const auto inert = run(true);
  EXPECT_EQ(bare.events_dispatched, inert.events_dispatched);
  EXPECT_DOUBLE_EQ(bare.report.energy_kwh, inert.report.energy_kwh);
  EXPECT_EQ(bare.report.migrations, inert.report.migrations);
  EXPECT_EQ(inert.report.solver_breaches, 0u);
  EXPECT_EQ(inert.report.jobs_shed, 0u);
  EXPECT_TRUE(inert.report.resilience_to_string().empty());
}

}  // namespace
}  // namespace easched::resilience
