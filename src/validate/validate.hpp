// Access path to the run's invariant checker.
//
// Mirrors obs/obs.hpp: the checker travels with the run's
// `metrics::Recorder` as a nullable pointer (`Recorder::validator`), so
// every layer that already receives the recorder (Datacenter,
// SchedulerDriver, ScoreBasedPolicy via the datacenter) can reach it
// without new plumbing. Instrumented call sites never touch the pointer
// directly; they go through the accessor below:
//
//   if (auto* ck = validate::checker(recorder)) {
//     ck->check_datacenter(dc);
//   }
//
// With no checker attached, each call site is one pointer load and test.
// Checking is requested at run time (RunConfig.validate, or the
// EASCHED_VALIDATE=1 environment variable; see experiments/runner.hpp).
#pragma once

#include "metrics/accumulators.hpp"
#include "validate/invariant_checker.hpp"

namespace easched::validate {

/// The run's invariant checker, or nullptr when none is attached.
[[nodiscard]] inline InvariantChecker* checker(
    const metrics::Recorder& rec) noexcept {
  return rec.validator;
}

}  // namespace easched::validate
