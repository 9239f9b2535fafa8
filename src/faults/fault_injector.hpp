// The deterministic chaos engine.
//
// The Datacenter consults the injector at the start of every intercepted
// actuator operation; the injector rolls its dedicated RNG stream against
// the FaultPlan and returns an outcome (proceed / fail partway / hang /
// run slow). The injector keeps no event record of its own: the Datacenter
// traces each injection (`fault-injected`) and each recovery action taken
// afterwards (`op-failed`, `migrate-rollback`, `quarantine`...) through the
// run's obs::Tracer, and the determinism tests compare that trace: the
// same plan seed must yield the same events across runs.
//
// The injector performs exactly two RNG draws per decision regardless of
// the outcome, so editing one operation's probabilities never shifts the
// draws seen by later decisions of other kinds.
#pragma once

#include <cstdint>

#include "faults/fault_plan.hpp"
#include "support/rng.hpp"

namespace easched::faults {

struct FaultOutcome {
  enum class Kind : std::uint8_t {
    kNone,  ///< operation proceeds normally
    kFail,  ///< aborts after `fail_fraction` of its work
    kHang,  ///< never completes; the deadline layer must abort it
    kSlow,  ///< duration multiplied by `slow_factor`
  };
  Kind kind = Kind::kNone;
  double fail_fraction = 1.0;  ///< in [0.1, 0.9] for kFail
  double slow_factor = 1.0;    ///< > 1 for kSlow

  [[nodiscard]] bool injected() const { return kind != Kind::kNone; }
};

const char* to_string(FaultOutcome::Kind kind) noexcept;

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  /// Rolls the dice for one operation of kind `op` on host `h`.
  FaultOutcome decide(FaultOp op, datacenter::HostId h);

  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }
  /// Number of injected (non-kNone) decisions so far.
  [[nodiscard]] std::uint64_t injected_count() const noexcept {
    return injected_;
  }

 private:
  FaultPlan plan_;
  support::Rng rng_;
  std::uint64_t injected_ = 0;
};

}  // namespace easched::faults
