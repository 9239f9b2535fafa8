// Deterministic parallel sweep harness.
//
// Figure/table reproductions sweep a grid of independent runs (thresholds ×
// policies × seeds). Each run already has fully isolated state — its own
// Simulator, Datacenter, Recorder and policy instance, no globals — so the
// sweep is embarrassingly parallel. `SweepRunner` fans the runs across a
// small thread pool and returns results in submission order, which makes
// the output of every bench byte-identical between 1 and N threads: the
// determinism contract extends from "same seed, same run" to "same grid,
// same table, any thread count".
//
// Thread count comes from EASCHED_SWEEP_THREADS (default 1, clamped to
// [1, 64]). Each run is single-threaded, so this is the only thread count
// to size against the machine.
#pragma once

#include <functional>
#include <vector>

#include "experiments/runner.hpp"

namespace easched::experiments {

/// One sweep unit. `jobs` must outlive the sweep (tasks hold a pointer so a
/// shared workload is built once, not per grid point). `config` is a
/// factory rather than a value because RunConfig is move-only (it may own a
/// policy instance); it is invoked on the worker thread that executes the
/// task.
struct SweepTask {
  const workload::Workload* jobs = nullptr;
  std::function<RunConfig()> config;
};

class SweepRunner {
 public:
  /// Uses EASCHED_SWEEP_THREADS (see env_threads()).
  SweepRunner() : SweepRunner(env_threads()) {}
  explicit SweepRunner(int threads);

  [[nodiscard]] int threads() const noexcept { return threads_; }

  /// Executes every task and returns the results in submission order
  /// (results[i] belongs to tasks[i], whatever thread ran it). Tasks are
  /// claimed dynamically, so an expensive grid point does not serialize the
  /// rest of the sweep behind it.
  std::vector<RunResult> run(std::vector<SweepTask> tasks);

  /// Reads EASCHED_SWEEP_THREADS; empty/unset means 1, values are clamped
  /// to [1, 64].
  static int env_threads();

 private:
  int threads_;
};

}  // namespace easched::experiments
