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

#include "experiments/repro.hpp"
#include "experiments/runner.hpp"
#include "test_random_instances.hpp"
#include "validate/invariant_checker.hpp"
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
  experiments::RunConfig config;
  config.policy = "SB-full";
  config.datacenter.seed = 987654321;
  config.datacenter.hosts = experiments::specs_for(
      {"fast", "medium", "slow", "low-power"});
  // Edited specs: a field at another class's nominal value (medium's
  // creation cost on a fast host) must still be carried.
  config.datacenter.hosts[0].creation_cost_s = 40;
  config.datacenter.hosts[1].reliability = 0.95;
  config.datacenter.hosts[3].arch = workload::Arch::kPpc64;
  config.datacenter.initially_on = 3;
  config.datacenter.inject_failures = true;
  config.datacenter.mean_repair_s = 5432.125;
  config.datacenter.checkpoint.enabled = true;
  config.datacenter.checkpoint.period_s = 456.75;
  config.driver.power.lambda_min = 0.317;
  config.driver.power.lambda_max = 0.912;
  config.driver.seed = 18446744073709551557u;
  config.horizon_s = 1234567.25;
  config.faults = faults::parse_fault_plan(
      "seed=42,create.fail=0.0123456789,retry_base=1.23456789,lemon=1:4");
  config.resilience = resilience::parse_resilience_spec(
      "budget=64,defer_fill=0.123456789,probe_after=123.456789");
  config.validate.enabled = true;
  config.validate.checker.abort_on_violation = true;
  config.validate.checker.allow_cpu_oversubscription = false;
  config.validate.checker.max_violations = 7;
  const experiments::ReproViolation violation{
      "capacity: host 1 memory oversubscribed: x of y", 4321.0625};

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
  const workload::Workload jobs = {
      job, easched::testing::make_job(200, 1024, 5000, 1.9, 60),
      easched::testing::make_job(200, 1024, 5000, 1.9, 5000)};

  std::stringstream buffer;
  experiments::write_repro_bundle(buffer, config, violation, jobs);
  const experiments::ReproBundle back = experiments::read_repro_bundle(buffer);

  const experiments::RunConfig& c = back.config;
  EXPECT_EQ(c.policy, config.policy);
  EXPECT_EQ(c.datacenter.seed, config.datacenter.seed);
  ASSERT_EQ(c.datacenter.hosts.size(), config.datacenter.hosts.size());
  for (std::size_t i = 0; i < c.datacenter.hosts.size(); ++i) {
    const datacenter::HostSpec& a = config.datacenter.hosts[i];
    const datacenter::HostSpec& b = c.datacenter.hosts[i];
    EXPECT_EQ(b.klass, a.klass);
    EXPECT_EQ(b.cpu_capacity_pct, a.cpu_capacity_pct);
    EXPECT_EQ(b.mem_mb, a.mem_mb);
    EXPECT_EQ(b.creation_cost_s, a.creation_cost_s);
    EXPECT_EQ(b.migration_cost_s, a.migration_cost_s);
    EXPECT_EQ(b.boot_time_s, a.boot_time_s);
    EXPECT_EQ(b.shutdown_time_s, a.shutdown_time_s);
    EXPECT_EQ(b.dom0_io_channels, a.dom0_io_channels);
    EXPECT_EQ(b.reliability, a.reliability);
    EXPECT_EQ(b.arch, a.arch);
    EXPECT_EQ(b.software, a.software);
  }
  EXPECT_EQ(c.datacenter.initially_on, 3u);
  EXPECT_EQ(c.datacenter.inject_failures, config.datacenter.inject_failures);
  EXPECT_EQ(c.datacenter.mean_repair_s, 5432.125);
  EXPECT_EQ(c.datacenter.checkpoint.enabled,
            config.datacenter.checkpoint.enabled);
  EXPECT_EQ(c.datacenter.checkpoint.period_s,
            config.datacenter.checkpoint.period_s);
  EXPECT_EQ(c.driver.power.lambda_min, config.driver.power.lambda_min);
  EXPECT_EQ(c.driver.power.lambda_max, config.driver.power.lambda_max);
  EXPECT_EQ(c.driver.seed, config.driver.seed);
  EXPECT_EQ(c.horizon_s, config.horizon_s);
  // The fault plan and the resilience config come back bit-equal.
  EXPECT_EQ(c.faults.to_string(), config.faults.to_string());
  EXPECT_TRUE(c.faults.enabled);
  EXPECT_EQ(c.faults.spec(faults::FaultOp::kCreate).fail_prob, 0.0123456789);
  EXPECT_EQ(c.faults.retry.base_s, 1.23456789);
  EXPECT_TRUE(c.resilience.enabled);
  EXPECT_EQ(resilience::to_string(c.resilience),
            resilience::to_string(config.resilience));
  EXPECT_EQ(c.resilience.defer_fill, 0.123456789);
  EXPECT_EQ(c.resilience.breakers.probe_after_s, 123.456789);
  EXPECT_TRUE(c.validate.enabled);
  EXPECT_TRUE(c.validate.checker.abort_on_violation);
  EXPECT_FALSE(c.validate.checker.allow_cpu_oversubscription);
  EXPECT_EQ(c.validate.checker.max_violations, 7u);
  EXPECT_EQ(back.violation.what, violation.what);
  EXPECT_EQ(back.violation.t, violation.t);
  // The job submitted after the violation is not part of the bundle.
  ASSERT_EQ(back.jobs.size(), 2u);
  for (std::size_t i = 0; i < back.jobs.size(); ++i) {
    const workload::Job& a = jobs[i];
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
  const auto specs = experiments::specs_for({"fast", "low-power", "slow", "bogus"});
  ASSERT_EQ(specs.size(), 4u);
  EXPECT_EQ(specs[0].klass, "fast");
  EXPECT_EQ(specs[1].klass, "low-power");
  EXPECT_EQ(specs[2].klass, "slow");
  EXPECT_EQ(specs[3].klass, "medium");  // unknown tokens fall back
}

TEST(ReproBundle, RejectsMalformedInput) {
  using experiments::read_repro_bundle;
  std::stringstream not_a_bundle("just some text\n");
  EXPECT_THROW(read_repro_bundle(not_a_bundle), std::runtime_error);
  EXPECT_THROW(experiments::read_repro_bundle_file("/no/such/bundle"),
               std::runtime_error);
  // Every header value is one whole token of its field's type.
  for (const char* header :
       {"lambda_min=abc", "lambda_min=0.3junk", "dc_seed=-1", "dc_seed=5.5",
        "inject_failures=yes", "faults=seed=-1", "faults=migrate.fail=lots",
        "resilience=budget=1.5", "checker.max_violations=-3",
        "no_such_key=1", "hosts=fast\nhost.0.reliability=high",
        "hosts=fast\nhost.1.reliability=0.9",
        "hosts=fast\nhost.0.power=1", "host.0.reliability=0.9"}) {
    std::stringstream in(std::string(header) + "\n--- jobs ---\n");
    EXPECT_THROW(read_repro_bundle(in), std::runtime_error) << header;
  }
  std::stringstream junk_job(
      "policy=RD\n--- jobs ---\n1 0 60 100 512 2 0 1 0 256 junk\n");
  EXPECT_THROW(read_repro_bundle(junk_job), std::runtime_error);
  std::stringstream no_jobs("policy=RD\n");
  EXPECT_THROW(read_repro_bundle(no_jobs), std::runtime_error);
}

// ---- end-to-end: validated runs stay clean ----------------------------------
//
// These drive the real hook sites (driver round sweep, datacenter power
// transitions, simulator event stream, score-policy fleet check).

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

  const experiments::ReproBundle bundle =
      experiments::read_repro_bundle_file(path);
  EXPECT_EQ(bundle.config.policy, "RD");
  EXPECT_EQ(bundle.config.datacenter.hosts.size(), 20u);
  EXPECT_FALSE(bundle.violation.what.empty());
  EXPECT_EQ(bundle.violation.t, res.violations[0].t);
  // The bundle holds the workload slice submitted up to the violation.
  ASSERT_FALSE(bundle.jobs.empty());
  EXPECT_LE(bundle.jobs.size(), jobs.size());
  for (const auto& job : bundle.jobs) {
    EXPECT_LE(job.submit, bundle.violation.t);
  }
  std::remove(path.c_str());
}

TEST(ValidatedRun, ReproBundleReplaysTheFirstViolation) {
  // The bundle of ViolationEmitsResultAndReproBundle's run, read back into
  // a RunConfig and rerun, trips the same rule at the same instant: the
  // bundle carries the checker config the violation depends on.
  const auto jobs = small_week();
  auto config = small_config("RD");
  config.validate.enabled = true;
  config.validate.checker.allow_cpu_oversubscription = false;
  const std::string path = ::testing::TempDir() + "easched_replay.txt";
  std::remove(path.c_str());
  config.validate.repro_path = path;
  const auto res = experiments::run_experiment(jobs, std::move(config));
  ASSERT_FALSE(res.violations.empty());

  experiments::ReproBundle bundle = experiments::read_repro_bundle_file(path);
  std::remove(path.c_str());
  const auto replay =
      experiments::run_experiment(bundle.jobs, std::move(bundle.config));
  ASSERT_FALSE(replay.violations.empty());
  EXPECT_EQ(replay.violations[0].rule, res.violations[0].rule);
  EXPECT_EQ(replay.violations[0].t, res.violations[0].t);
  EXPECT_EQ(replay.violations[0].message, res.violations[0].message);
  EXPECT_EQ(std::string(to_string(replay.violations[0].rule)) + ": " +
                replay.violations[0].message,
            bundle.violation.what);
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
