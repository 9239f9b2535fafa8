// Declarative description of a deterministic fault-injection scenario.
//
// A FaultPlan scripts how the Datacenter's actuator operations misbehave:
// per-operation probabilities of failing outright, hanging forever (until
// the recovery layer's deadline aborts them) or running slower than drawn,
// plus per-host "lemon" multipliers that concentrate trouble on specific
// machines. The plan also carries the knobs of the recovery half — the
// operation-timeout factor and the retry, quarantine and breaker policies,
// each declared once here. The Datacenter and the scheduler driver read
// the quarantine and retry policies from the attached injector's plan, and
// the experiment runner copies the breakers into the resilience config —
// so one `--faults=<spec|file>` argument configures a whole
// chaos-plus-recovery experiment. Each spec key is one row of a
// support::KeyRow table in fault_plan.cpp; only `lemon=` is read by hand.
//
// Determinism contract: a FaultPlan plus its seed fully determines every
// injection decision. The FaultInjector draws from its own dedicated RNG
// stream (never from the datacenter's or driver's), and performs a fixed
// number of draws per consulted operation, so enabling, disabling or
// editing one probability never perturbs the draws seen elsewhere; the
// same (plan, workload, config) triple reproduces a bit-identical run
// trace (obs/trace.hpp), the fault layer's one record of what it injected
// and how the datacenter recovered.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "datacenter/ids.hpp"

namespace easched::faults {

/// Actuator operations the injector can intercept.
enum class FaultOp : std::uint8_t {
  kCreate,      ///< VM creation on a host
  kMigrate,     ///< live migration (decision attributed to the destination)
  kPowerOn,     ///< host boot
  kPowerOff,    ///< host shutdown
  kCheckpoint,  ///< VM checkpoint snapshot
};
inline constexpr std::size_t kNumFaultOps = 5;

const char* to_string(FaultOp op) noexcept;

/// Misbehaviour mix for one operation kind. Probabilities are evaluated in
/// the order fail, hang, slow against a single uniform draw, so their sum
/// is clamped to 1.
struct OpFaultSpec {
  double fail_prob = 0;  ///< operation aborts partway through
  double hang_prob = 0;  ///< operation never completes (deadline aborts it)
  double slow_prob = 0;  ///< operation stretched by ~slow_factor
  double slow_factor = 3.0;  ///< mean duration multiplier for slow outcomes
};

/// A host singled out for extra trouble: all of its fail/hang/slow
/// probabilities are multiplied by `multiplier` (capped so the category
/// sum stays <= 1).
struct LemonHost {
  datacenter::HostId host = 0;
  double multiplier = 1.0;
};

/// Capped exponential backoff with jitter for re-attempting failed
/// operations: attempt n waits min(cap, base * 2^(n-1)) * (1 + jitter*U).
struct RetryPolicy {
  double base_s = 5;
  double cap_s = 300;
  double jitter = 0.5;
};

/// Quarantine (degraded-mode) policy: a host accumulating
/// `failure_budget` faults — crashes, failed/timed-out operations, missed
/// boot deadlines — within `window_s` is exiled from placement and
/// power-on choices for `cooldown_s`, then readmitted with a clean slate.
struct QuarantinePolicy {
  int failure_budget = 3;
  double window_s = 3600;
  double cooldown_s = 1800;
};

/// Per-host circuit breakers (resilience/resilience.hpp).
struct BreakerPolicy {
  int threshold = 3;           ///< consecutive failures to open; 0 = off
  double probe_after_s = 600;  ///< open -> half-open probe delay
  int dead_after = 0;          ///< re-opens before Dead; 0 = never

  bool operator==(const BreakerPolicy&) const = default;
};

struct FaultPlan {
  /// Master switch; parse_fault_plan() sets it, and a default-constructed
  /// plan is inert so existing configurations stay bit-identical.
  bool enabled = false;

  /// Seed of the injector's dedicated RNG stream.
  std::uint64_t seed = 4242;

  /// Per-operation misbehaviour, indexed by FaultOp.
  OpFaultSpec ops[kNumFaultOps];

  std::vector<LemonHost> lemons;

  /// In-flight operations are aborted after timeout_factor x the mean
  /// duration of their kind (a boot's deadline: timeout_factor x
  /// boot_time_s, a shutdown's: timeout_factor x shutdown_time_s).
  double op_timeout_factor = 4.0;

  // ---- recovery knobs -------------------------------------------------
  /// Read by the scheduler driver after each injected failure.
  RetryPolicy retry;
  /// Read by the Datacenter on each host fault while this plan's injector
  /// is attached (without one, a default QuarantinePolicy applies).
  QuarantinePolicy quarantine;
  /// Copied by the experiment runner into the resilience config, which
  /// must not arm a different policy of its own.
  BreakerPolicy breakers{.threshold = 0};

  [[nodiscard]] const OpFaultSpec& spec(FaultOp op) const {
    return ops[static_cast<std::size_t>(op)];
  }
  [[nodiscard]] OpFaultSpec& spec(FaultOp op) {
    return ops[static_cast<std::size_t>(op)];
  }
  /// Combined lemon multiplier for a host (1 when not a lemon).
  [[nodiscard]] double lemon_multiplier(datacenter::HostId h) const;

  /// The inline spec parse_fault_plan() reads back into an equal plan
  /// (keys at their default left out).
  [[nodiscard]] std::string to_string() const;
};

/// Parses a plan from an inline spec — comma-separated key=value pairs
/// over the keys of the tables in fault_plan.cpp, e.g.
/// `seed=42,migrate.fail=0.05,lemon=3:8` (`lemon=<host>:<multiplier>` may
/// repeat) — or, when a non-empty spec has no '=', from the file it names
/// (pairs by line or by comma, '#' comments). An empty spec is the default
/// plan, enabled. Throws std::invalid_argument on unknown keys or
/// malformed values (integers must be whole and non-negative).
FaultPlan parse_fault_plan(const std::string& spec);

}  // namespace easched::faults
