// Declarative description of a deterministic fault-injection scenario.
//
// A FaultPlan scripts how the Datacenter's actuator operations misbehave:
// per-operation probabilities of failing outright, hanging forever (until
// the recovery layer's deadline aborts them) or running slower than drawn,
// plus per-host "lemon" multipliers that concentrate trouble on specific
// machines. The plan also carries the knobs of the recovery half — the
// operation-timeout factor, the retry/backoff policy and the quarantine
// budget — so one `--faults=<spec|file>` argument configures a whole
// chaos-plus-recovery experiment.
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
  /// duration of their kind (boot deadline: timeout_factor x boot_time_s).
  double op_timeout_factor = 4.0;

  // ---- recovery knobs (copied into the driver / datacenter configs by the
  // experiment runner so one spec scripts the whole scenario) -------------
  double retry_base_s = 5.0;     ///< first retry delay
  double retry_cap_s = 300.0;    ///< exponential backoff ceiling
  double retry_jitter = 0.5;     ///< delay *= 1 + jitter * U[0,1)
  int quarantine_budget = 3;     ///< faults within the window before exile
  double quarantine_window_s = 3600.0;
  double quarantine_cooldown_s = 1800.0;

  // ---- circuit-breaker knobs (resilience control plane) ------------------
  // When breaker_threshold > 0 the experiment runner enables the resilience
  // controller's per-host breakers with these settings, so a single
  // `--faults=` spec scripts chaos, recovery and breaker policy together.
  int breaker_threshold = 0;          ///< consecutive failures to open; 0 = off
  double breaker_probe_after_s = 600; ///< half-open probe delay after opening
  int breaker_dead_after = 0;         ///< re-opens before host is dead; 0 = never

  [[nodiscard]] const OpFaultSpec& spec(FaultOp op) const {
    return ops[static_cast<std::size_t>(op)];
  }
  [[nodiscard]] OpFaultSpec& spec(FaultOp op) {
    return ops[static_cast<std::size_t>(op)];
  }
  /// Combined lemon multiplier for a host (1 when not a lemon).
  [[nodiscard]] double lemon_multiplier(datacenter::HostId h) const;

  /// Round-trippable textual form (one key=value per line).
  [[nodiscard]] std::string to_string() const;
};

/// Parses a plan from either an inline spec or a file.
///
/// An inline spec is a comma-separated list of key=value pairs:
///   seed=42,migrate.fail=0.05,create.hang=0.01,lemon=3:8,timeout_factor=4
/// Operation keys: create | migrate | power_on | power_off | checkpoint,
/// each with .fail / .hang / .slow / .slow_factor. Recovery keys:
/// timeout_factor, retry_base, retry_cap, retry_jitter, quarantine_budget,
/// quarantine_window, quarantine_cooldown, breaker_threshold,
/// breaker_probe_after, breaker_dead_after. `lemon=<host>:<multiplier>` may
/// repeat. A spec containing no '=' is treated as a path to a file holding
/// the same pairs, one per line ('#' starts a comment).
///
/// Throws std::invalid_argument on unknown keys or malformed values.
FaultPlan parse_fault_plan(const std::string& spec);

}  // namespace easched::faults
