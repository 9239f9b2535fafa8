// One-call experiment runner: wire simulator + datacenter + driver + policy,
// run a workload to completion, return the table-row report. A fault-plan
// run records its injections and recoveries as events of the attached
// tracer (RunConfig::obs); the result keeps only the injected count.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "datacenter/datacenter.hpp"
#include "faults/fault_plan.hpp"
#include "metrics/report.hpp"
#include "obs/obs.hpp"
#include "resilience/resilience.hpp"
#include "sched/driver.hpp"
#include "validate/invariant_checker.hpp"
#include "workload/job.hpp"

namespace easched::experiments {

/// Run-time invariant checking (see validate/). Enabled explicitly here or
/// via the EASCHED_VALIDATE environment variable (any non-empty value
/// other than "0").
struct RunValidation {
  bool enabled = false;
  validate::CheckerConfig checker;
  /// Where to write the scenario repro bundle on the first violation;
  /// empty disables bundle writing.
  std::string repro_path;
};

struct RunConfig {
  datacenter::DatacenterConfig datacenter;
  sched::DriverConfig driver;
  std::string policy = "SB";

  /// Custom policy instance (overrides `policy` name when set). The runner
  /// takes ownership.
  std::unique_ptr<sched::Policy> policy_instance;

  /// Deterministic operation-fault injection (see faults/). When enabled
  /// the runner owns a FaultInjector for the run's duration and attaches it
  /// to the datacenter; the datacenter and the driver read the plan's
  /// quarantine and retry policies from it, nothing is copied. Parse from a
  /// CLI `--faults=` spec with parse_fault_plan().
  faults::FaultPlan faults;

  /// Resilience control plane (see resilience/): solver deadline watchdog
  /// with the degradation ladder, admission control, and per-host circuit
  /// breakers. Inert by default; parse from a CLI `--resilience=` spec with
  /// parse_resilience_spec(). A fault plan whose breakers.threshold > 0
  /// arms the breakers with its policy even when this is disabled; when
  /// this is enabled and arms a different policy, run_experiment() throws
  /// std::invalid_argument.
  resilience::ResilienceConfig resilience;

  /// Hard simulation-time cap as a safety net against pathological stalls;
  /// runs normally end when the last job finishes. Zero disables the cap.
  sim::SimTime horizon_s = 0;

  /// Optional observability bundle (tracer / metrics registry / phase
  /// profiler; see obs/obs.hpp). Not owned; must outlive the run. The
  /// runner attaches it to the recorder, emits the run-begin event, and
  /// publishes the run counters into its registry at the end.
  obs::Observability* obs = nullptr;

  RunValidation validate;
};

struct RunResult {
  metrics::RunReport report;
  std::size_t jobs_submitted = 0;
  std::size_t jobs_finished = 0;
  std::size_t jobs_shed = 0;  ///< arrivals rejected by admission control
  std::uint64_t events_dispatched = 0;
  std::uint64_t events_cancelled = 0;
  sim::SimTime end_time_s = 0;
  bool hit_horizon = false;

  /// Injected (non-kNone) fault decisions; zero unless the run had an
  /// injector. The faults themselves, and every recovery action they set
  /// off, are events in the run's tracer (RunConfig::obs): `fault-injected`,
  /// `op-failed`, `boot-failed`, `quarantine`... Bit-identical for identical
  /// (plan, workload, config) — the determinism contract.
  std::uint64_t faults_injected = 0;

  /// Invariant-checker results (empty / zero when validation was off).
  std::vector<validate::Violation> violations;
  std::uint64_t invariant_checks = 0;
  /// Path of the repro bundle written on the first violation, if any.
  std::string repro_path;
};

/// Runs `jobs` under the configuration and returns the aggregated report.
/// The measurement window is [0, finish of last job].
RunResult run_experiment(const workload::Workload& jobs, RunConfig config);

}  // namespace easched::experiments
