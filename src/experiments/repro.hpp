// Scenario repro bundles: everything needed to replay a failing run.
//
// When the InvariantChecker trips mid-run, knowing *that* an invariant
// broke is worth little without a way to replay the scenario: the runner
// therefore writes the run's config, its first violation and the workload
// slice submitted up to it into a single self-describing text file.
// read_repro_bundle() turns the file back into a RunConfig plus its jobs,
// which run_experiment() replays to the same first violation.
// `scripts/shrink_repro.sh` feeds such a bundle to the shrinker
// (validate/shrink.hpp), which delta-minimises the job list while the
// violation still reproduces.
//
// Format: a `# easched repro bundle v2` line, key=value headers (one
// support::KeyRow table over RunConfig, keys at their default left out;
// the fault plan and resilience config as their inline specs, e.g.
// `faults=seed=42,create.fail=0.2`; `hosts=` lists each host's class
// token, and one KeyRow table over HostSpec adds `host.<index>.<field>`
// for each scalar field that differs from the class's nominal spec, e.g.
// `host.3.reliability=0.95`), `--- jobs ---`, then one line per job:
// <id> <submit> <dedicated_s> <cpu_pct> <mem_mb> <deadline_factor> <arch>
// <software> <fault_tolerance> <weight>. Not carried: a host's PowerModel
// (its class's curve is used), the queue order, adaptive thresholds and a
// custom policy instance (only its name).
//
// Jobs are serialised field-by-field with full precision rather than as
// SWF: the SWF reader re-shifts submit times, re-draws deadline factors
// and drops short jobs — all lossy for replay purposes.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "datacenter/host_spec.hpp"
#include "experiments/runner.hpp"
#include "sim/time.hpp"
#include "workload/job.hpp"

namespace easched::experiments {

/// The first violation of a run, as a bundle records it.
struct ReproViolation {
  std::string what;  ///< "<rule>: message"
  sim::SimTime t = 0;
};

/// A bundle read back: a config that replays the run, with validation on.
struct ReproBundle {
  RunConfig config;
  ReproViolation violation;
  workload::Workload jobs;
};

/// Maps class tokens back to host specs ("fast", "medium", "slow",
/// "low-power"; unknown tokens fall back to medium).
std::vector<datacenter::HostSpec> specs_for(
    const std::vector<std::string>& classes);

/// Writes `config`, `violation` and the jobs submitted at or before the
/// violation.
void write_repro_bundle(std::ostream& out, const RunConfig& config,
                        const ReproViolation& violation,
                        const workload::Workload& jobs);
/// Throws std::runtime_error when the file cannot be written.
void write_repro_bundle_file(const std::string& path, const RunConfig& config,
                             const ReproViolation& violation,
                             const workload::Workload& jobs);

/// Throws std::runtime_error on malformed input: an unknown key, a value
/// that is not one whole token of its field's type, a bad job line or a
/// missing job section.
ReproBundle read_repro_bundle(std::istream& in);
ReproBundle read_repro_bundle_file(const std::string& path);

}  // namespace easched::experiments
