// The benchmark's workloads and the one function that runs any of them end
// to end through the public experiments API (run_experiment for a single
// run, SweepRunner for a batch).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "experiments/runner.hpp"
#include "obs/obs.hpp"
#include "timed_policy.hpp"
#include "workload/job.hpp"

namespace perfbench {

/// One run of a scenario: a generated job list, a policy by name and the
/// datacenter seed.
struct ScenarioTask {
  std::size_t input = 0;  ///< index into Scenario::inputs
  std::string policy;
  std::uint64_t seed = 0;
};

struct Scenario {
  std::vector<easched::workload::Workload> inputs;
  std::vector<ScenarioTask> tasks;
  /// Run as one SweepRunner batch (otherwise: one run_experiment call).
  bool sweep = false;
  /// The task's run configuration, without its policy.
  std::function<easched::experiments::RunConfig(const ScenarioTask&)>
      configure;
  /// Wall seconds spent generating `inputs`.
  double generate_s = 0;
};

/// Generates the named workload from `seed` (same seed, same inputs).
/// Throws std::invalid_argument for an unknown name.
Scenario make_scenario(const std::string& name, std::uint64_t seed);

/// A sweep small enough for unit tests: four policies over two one-day
/// workloads on a 20-host fleet.
Scenario make_tiny_sweep(std::uint64_t seed);

/// How to run a scenario; the defaults are the timed end-to-end run.
struct Variant {
  bool profile = false;     ///< PhaseProfiler on, through RunConfig.obs
  bool incremental = true;  ///< false: the reference full-rebuild core
  int solver_threads = 1;
  int sweep_threads = 1;    ///< sweep scenarios only
  /// Takes slices during the run (see TimedPolicy); serial runs only.
  Pace* pace = nullptr;
};

/// Everything one run of a scenario leaves behind, per task in task order.
struct Outcome {
  double wall_s = 0;
  std::uint64_t digest = 0;
  std::vector<CallLog> logs;
  std::vector<easched::experiments::RunResult> results;
  std::vector<std::unique_ptr<easched::obs::Observability>> obs;
};

Outcome run_scenario(const Scenario& scenario, const Variant& variant);

/// Digest of one task: its decision digest, events dispatched and the
/// RunReport outputs.
std::uint64_t task_digest(const CallLog& log,
                          const easched::experiments::RunResult& result);

}  // namespace perfbench
