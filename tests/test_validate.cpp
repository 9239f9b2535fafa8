// Tests for the run-time invariant checker (validate/): the transition
// legality matrix, one seeded mutation per rule (each must trip exactly
// that rule and no other), the repro-bundle round trip, and the end-to-end
// guarantee that clean runs — including fault-heavy ones — stay
// violation-free with checking enabled.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <vector>

#include "core/fleet.hpp"
#include "core/score_matrix.hpp"
#include "experiments/runner.hpp"
#include "test_random_instances.hpp"
#include "validate/invariant_checker.hpp"
#include "validate/repro.hpp"
#include "validate/validate.hpp"

namespace easched::validate {
namespace {

using datacenter::HostState;
using easched::testing::chaos_experiment_plan;
using easched::testing::chaos_workload;
using easched::testing::make_job;
using easched::testing::SmallDc;
using easched::testing::small_config;
using easched::testing::small_week;

/// Sum of all per-rule counts except `rule` — the "exactly one rule trips"
/// assertions below hinge on this staying zero.
std::uint64_t other_rule_count(const InvariantChecker& ck, Rule rule) {
  std::uint64_t total = 0;
  for (int i = 0; i < kNumRules; ++i) {
    if (static_cast<Rule>(i) != rule) total += ck.count(static_cast<Rule>(i));
  }
  return total;
}

// ---- transition legality matrix ---------------------------------------------

TEST(TransitionLegality, MatchesTheHostStateMachine) {
  using S = HostState;
  const std::pair<S, S> legal[] = {
      {S::kOff, S::kBooting},                                 // power on
      {S::kBooting, S::kOn},   {S::kBooting, S::kOff},        // done / failed
      {S::kOn, S::kShuttingDown}, {S::kOn, S::kFailed},       // off / crash
      {S::kShuttingDown, S::kOff}, {S::kShuttingDown, S::kOn},// done / abort
      {S::kFailed, S::kOff},                                  // repaired
  };
  for (const auto& [from, to] : legal) {
    EXPECT_TRUE(InvariantChecker::transition_legal(from, to))
        << datacenter::to_string(from) << " -> " << datacenter::to_string(to);
  }
  // Everything else — including self-transitions — is illegal.
  const S all[] = {S::kOff, S::kBooting, S::kOn, S::kShuttingDown, S::kFailed};
  int legal_seen = 0;
  for (S from : all) {
    for (S to : all) {
      if (InvariantChecker::transition_legal(from, to)) ++legal_seen;
      EXPECT_FALSE(from == to && InvariantChecker::transition_legal(from, to));
    }
  }
  EXPECT_EQ(legal_seen, static_cast<int>(std::size(legal)));
}

// ---- seeded mutations: each trips exactly one rule --------------------------

TEST(InvariantChecker, CleanDatacenterPasses) {
  SmallDc f(2);
  f.admit_and_place(make_job(), 0);
  f.simulator.run_until(100.0);  // creation settles into Running
  InvariantChecker ck;
  ck.check_datacenter(f.dc);
  EXPECT_TRUE(ck.ok());
  EXPECT_EQ(ck.checks_run(), 1u);
}

TEST(InvariantChecker, CatchesDuplicatedResident) {
  SmallDc f(2);
  const auto v = f.admit_and_place(make_job(), 0);
  f.simulator.run_until(100.0);
  InvariantChecker ck;
  ck.check_datacenter(f.dc);
  ASSERT_TRUE(ck.ok());

  f.dc.debug_add_resident(1, v);  // the VM now lives twice
  ck.check_datacenter(f.dc);
  EXPECT_GT(ck.count(Rule::kVmConservation), 0u);
  EXPECT_EQ(other_rule_count(ck, Rule::kVmConservation), 0u);
}

TEST(InvariantChecker, CatchesMemoryOversubscription) {
  SmallDc f(2);
  // A medium host offers 4096 MB; force-place an 8 GB job with otherwise
  // coherent bookkeeping so only the capacity rule can object.
  const auto v = f.dc.admit_job(make_job(100, 8192));
  f.dc.debug_force_place(v, 0);
  InvariantChecker ck;
  ck.check_datacenter(f.dc);
  EXPECT_GT(ck.count(Rule::kCapacity), 0u);
  EXPECT_EQ(other_rule_count(ck, Rule::kCapacity), 0u);
}

TEST(InvariantChecker, CatchesDriftedNodeCounts) {
  SmallDc f(3);
  f.admit_and_place(make_job(), 0);
  f.dc.power_off(2);
  InvariantChecker ck;
  ck.check_datacenter(f.dc);
  ASSERT_TRUE(ck.ok());

  f.dc.debug_corrupt_node_counts(+1);  // the online count drifts
  ck.check_datacenter(f.dc);
  EXPECT_EQ(ck.count(Rule::kNodeCounts), 1u);
  EXPECT_EQ(other_rule_count(ck, Rule::kNodeCounts), 0u);
}

TEST(InvariantChecker, CatchesIllegalPowerTransition) {
  InvariantChecker ck;
  ck.on_host_transition(5.0, 0, HostState::kOff, HostState::kBooting);
  EXPECT_TRUE(ck.ok());
  ck.on_host_transition(10.0, 0, HostState::kOff, HostState::kOn);
  EXPECT_EQ(ck.count(Rule::kPowerLegality), 1u);
  EXPECT_EQ(other_rule_count(ck, Rule::kPowerLegality), 0u);
  ASSERT_EQ(ck.violations().size(), 1u);
  EXPECT_EQ(ck.violations()[0].t, 10.0);
}

// The only stored scores are the persisted cross-round columns of queued
// VMs, so the rule is seeded on an incremental model whose queued column
// persists (PSLA off).
TEST(InvariantChecker, CatchesCorruptedScoreCache) {
  SmallDc f(3);
  const std::vector<datacenter::VmId> queue = {f.dc.admit_job(make_job())};
  const core::ScoreParams params;  // use_sla off: the column persists
  ASSERT_FALSE(params.use_sla);
  core::FleetState fleet;
  fleet.refresh(f.dc, queue);
  core::ScoreModel model(fleet, f.dc, queue, params,
                         /*migration_enabled=*/false);
  ASSERT_EQ(model.cols(), 1);
  // A finite cell, so the perturbation survives the addition.
  ASSERT_FALSE(core::is_inf_score(model.cell(0, 0)));

  InvariantChecker ck;
  ck.check_score_model(model, 1.0);
  ASSERT_TRUE(ck.ok());

  model.debug_corrupt_cache(0, 0, 1e-3);
  ck.check_score_model(model, 2.0);
  EXPECT_EQ(ck.count(Rule::kScoreCache), 1u);
  EXPECT_EQ(other_rule_count(ck, Rule::kScoreCache), 0u);
}

TEST(InvariantChecker, CatchesEventTimeRegression) {
  InvariantChecker ck;
  ck.on_event_dispatched(100.0);
  ASSERT_TRUE(ck.ok());
  ck.on_event_dispatched(50.0);  // time ran backwards
  EXPECT_EQ(ck.count(Rule::kEventMonotonicity), 1u);
  EXPECT_EQ(other_rule_count(ck, Rule::kEventMonotonicity), 0u);
  // The high-water mark survives the glitch: moving past it is clean again.
  ck.on_event_dispatched(100.0);
  ck.on_event_dispatched(101.0);
  EXPECT_EQ(ck.count(Rule::kEventMonotonicity), 1u);
}

TEST(InvariantChecker, CatchesEnergyModelDivergence) {
  SmallDc f(2);
  f.admit_and_place(make_job(), 0);
  f.simulator.run_until(100.0);
  InvariantChecker ck;
  ck.check_datacenter(f.dc);
  ASSERT_TRUE(ck.ok());

  // Overwrite host 0's recorded power draw with a value the power model
  // cannot produce for its state.
  f.recorder.watts.set(f.simulator.now(), 0, 9999.0);
  ck.check_datacenter(f.dc);
  EXPECT_GT(ck.count(Rule::kEnergyConsistency), 0u);
  EXPECT_EQ(other_rule_count(ck, Rule::kEnergyConsistency), 0u);
}

// ---- reporting plumbing -----------------------------------------------------

TEST(InvariantChecker, OnViolationFiresAndClearResets) {
  InvariantChecker ck;
  std::vector<Violation> seen;
  ck.on_violation = [&seen](const Violation& v) { seen.push_back(v); };
  ck.on_event_dispatched(10.0);
  ck.on_event_dispatched(5.0);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].rule, Rule::kEventMonotonicity);
  EXPECT_EQ(seen[0].t, 5.0);
  EXPECT_FALSE(seen[0].message.empty());

  ck.clear();
  EXPECT_TRUE(ck.ok());
  EXPECT_EQ(ck.checks_run(), 0u);
  EXPECT_EQ(ck.count(Rule::kEventMonotonicity), 0u);
  // last_event_t_ is reset too: an early event is legal again.
  ck.on_event_dispatched(1.0);
  EXPECT_TRUE(ck.ok());
}

TEST(InvariantChecker, MaxViolationsCapsRecordingNotCounting) {
  CheckerConfig config;
  config.max_violations = 2;
  InvariantChecker ck(config);
  for (int i = 0; i < 5; ++i) {
    ck.on_host_transition(static_cast<double>(i), 0, HostState::kOff,
                          HostState::kOn);
  }
  EXPECT_EQ(ck.violations().size(), 2u);
  EXPECT_EQ(ck.count(Rule::kPowerLegality), 5u);
}

// ---- repro bundles ----------------------------------------------------------

TEST(ReproBundle, RoundTripsLosslessly) {
  ReproBundle bundle;
  bundle.policy = "SB-full";
  bundle.dc_seed = 987654321;
  bundle.host_classes = {"fast", "medium", "slow", "low-power"};
  bundle.inject_failures = true;
  bundle.checkpoint_enabled = true;
  bundle.checkpoint_period_s = 456.75;
  bundle.lambda_min = 0.317;
  bundle.lambda_max = 0.912;
  bundle.horizon_s = 1234567.25;
  bundle.fault_spec = "seed=42,create.fail=0.2,lemon=1:4";
  bundle.violation = "capacity: host 1 memory oversubscribed: x of y";
  bundle.violation_t = 4321.0625;

  workload::Job job;
  job.id = 17;
  job.submit = 1234.5678901234;
  job.dedicated_seconds = 9876.54321;
  job.cpu_pct = 300;
  job.mem_mb = 1536.5;
  job.deadline_factor = 1.7342;
  job.arch = workload::Arch::kPpc64;
  job.software = workload::kSwXen | workload::kSwKvm;
  job.fault_tolerance = 0.123456789;
  job.weight = 512;
  bundle.jobs.push_back(job);
  bundle.jobs.push_back(easched::testing::make_job(200, 1024, 5000, 1.9, 60));

  std::stringstream buffer;
  write_repro_bundle(buffer, bundle);
  const ReproBundle back = read_repro_bundle(buffer);

  EXPECT_EQ(back.policy, bundle.policy);
  EXPECT_EQ(back.dc_seed, bundle.dc_seed);
  EXPECT_EQ(back.host_classes, bundle.host_classes);
  EXPECT_EQ(back.inject_failures, bundle.inject_failures);
  EXPECT_EQ(back.checkpoint_enabled, bundle.checkpoint_enabled);
  EXPECT_DOUBLE_EQ(back.checkpoint_period_s, bundle.checkpoint_period_s);
  EXPECT_DOUBLE_EQ(back.lambda_min, bundle.lambda_min);
  EXPECT_DOUBLE_EQ(back.lambda_max, bundle.lambda_max);
  EXPECT_DOUBLE_EQ(back.horizon_s, bundle.horizon_s);
  EXPECT_EQ(back.fault_spec, bundle.fault_spec);
  EXPECT_EQ(back.violation, bundle.violation);
  EXPECT_DOUBLE_EQ(back.violation_t, bundle.violation_t);
  ASSERT_EQ(back.jobs.size(), bundle.jobs.size());
  for (std::size_t i = 0; i < bundle.jobs.size(); ++i) {
    const workload::Job& a = bundle.jobs[i];
    const workload::Job& b = back.jobs[i];
    EXPECT_EQ(b.id, a.id);
    EXPECT_DOUBLE_EQ(b.submit, a.submit);
    EXPECT_DOUBLE_EQ(b.dedicated_seconds, a.dedicated_seconds);
    EXPECT_DOUBLE_EQ(b.cpu_pct, a.cpu_pct);
    EXPECT_DOUBLE_EQ(b.mem_mb, a.mem_mb);
    EXPECT_DOUBLE_EQ(b.deadline_factor, a.deadline_factor);
    EXPECT_EQ(b.arch, a.arch);
    EXPECT_EQ(b.software, a.software);
    EXPECT_DOUBLE_EQ(b.fault_tolerance, a.fault_tolerance);
    EXPECT_EQ(b.weight, a.weight);
  }
}

TEST(ReproBundle, SpecsForMapsClassTokens) {
  const auto specs = specs_for({"fast", "low-power", "slow", "bogus"});
  ASSERT_EQ(specs.size(), 4u);
  EXPECT_EQ(specs[0].klass, "fast");
  EXPECT_EQ(specs[1].klass, "low-power");
  EXPECT_EQ(specs[2].klass, "slow");
  EXPECT_EQ(specs[3].klass, "medium");  // unknown tokens fall back
}

TEST(ReproBundle, RejectsMalformedInput) {
  std::stringstream not_a_bundle("just some text\n");
  EXPECT_THROW(read_repro_bundle(not_a_bundle), std::runtime_error);
  EXPECT_THROW(read_repro_bundle_file("/no/such/bundle"), std::runtime_error);
}

// ---- end-to-end: validated runs stay clean ----------------------------------
//
// These drive the real hook sites (driver round sweep, datacenter power
// transitions, simulator event stream, score-policy cache audit).

TEST(ValidatedRun, CleanPoliciesProduceNoViolations) {
  const auto jobs = small_week();
  for (const char* policy : {"RD", "BF", "SB"}) {
    auto config = small_config(policy);
    config.validate.enabled = true;
    const auto res = experiments::run_experiment(jobs, std::move(config));
    EXPECT_EQ(res.jobs_finished, jobs.size()) << policy;
    EXPECT_GT(res.invariant_checks, 0u) << policy;
    ASSERT_TRUE(res.violations.empty())
        << policy << ": " << to_string(res.violations[0].rule) << ": "
        << res.violations[0].message;
  }
}

TEST(ValidatedRun, FaultHeavyRunStaysClean) {
  auto config = small_config("SB", 2, 3, 2);
  config.faults = chaos_experiment_plan();
  config.horizon_s = 30 * sim::kDay;
  config.validate.enabled = true;
  const auto res = experiments::run_experiment(chaos_workload(),
                                               std::move(config));
  EXPECT_FALSE(res.hit_horizon);
  EXPECT_GT(res.faults_injected, 0u);
  EXPECT_GT(res.invariant_checks, 0u);
  ASSERT_TRUE(res.violations.empty())
      << to_string(res.violations[0].rule) << ": "
      << res.violations[0].message;
}

TEST(ValidatedRun, ViolationEmitsResultAndReproBundle) {
  // The Random baseline legitimately oversubscribes CPU under Xen-credit;
  // tightening the capacity rule turns that into a deterministic violation,
  // exercising the full violation -> RunResult -> repro-bundle path.
  const auto jobs = small_week();
  auto config = small_config("RD");
  config.validate.enabled = true;
  config.validate.checker.allow_cpu_oversubscription = false;
  const std::string path = ::testing::TempDir() + "easched_repro.txt";
  std::remove(path.c_str());
  config.validate.repro_path = path;

  const auto res = experiments::run_experiment(jobs, std::move(config));
  ASSERT_FALSE(res.violations.empty());
  EXPECT_EQ(res.violations[0].rule, Rule::kCapacity);
  EXPECT_EQ(res.repro_path, path);

  const ReproBundle bundle = read_repro_bundle_file(path);
  EXPECT_EQ(bundle.policy, "RD");
  EXPECT_EQ(bundle.host_classes.size(), 20u);
  EXPECT_FALSE(bundle.violation.empty());
  EXPECT_EQ(bundle.violation_t, res.violations[0].t);
  // The bundle holds the workload slice submitted up to the violation.
  ASSERT_FALSE(bundle.jobs.empty());
  EXPECT_LE(bundle.jobs.size(), jobs.size());
  for (const auto& job : bundle.jobs) {
    EXPECT_LE(job.submit, bundle.violation_t);
  }
  std::remove(path.c_str());
}

TEST(ValidatedRun, EnvVarSwitchesCheckingOn) {
  const auto jobs = small_week();
  ASSERT_EQ(setenv("EASCHED_VALIDATE", "1", 1), 0);
  const auto on = experiments::run_experiment(jobs, small_config("BF"));
  ASSERT_EQ(setenv("EASCHED_VALIDATE", "0", 1), 0);
  const auto off = experiments::run_experiment(jobs, small_config("BF"));
  unsetenv("EASCHED_VALIDATE");
  EXPECT_GT(on.invariant_checks, 0u);
  EXPECT_TRUE(on.violations.empty());
  EXPECT_EQ(off.invariant_checks, 0u);
  // Checking must be passive: identical results either way.
  EXPECT_EQ(on.events_dispatched, off.events_dispatched);
  EXPECT_DOUBLE_EQ(on.report.energy_kwh, off.report.energy_kwh);
}

}  // namespace
}  // namespace easched::validate
