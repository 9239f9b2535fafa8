// Shared vocabulary of the resilience control plane (see resilience.hpp).
//
// These enums live in their own header because they cross layer
// boundaries: the SchedContext hands the current LadderLevel to every
// policy, and the invariant checker validates HostHealth transitions —
// neither should pull in the whole controller.
#pragma once

#include <cstddef>
#include <cstdint>

namespace easched::resilience {

/// The policy degradation ladder, ordered from full service quality to
/// full protection. Level k+1 is strictly cheaper per round than level k;
/// the ResilienceController walks down one rung per solver-budget breach
/// and back up one rung after a run of healthy rounds (hysteresis).
enum class LadderLevel : std::uint8_t {
  kFull = 0,        ///< full score-based round (placements + consolidation)
  kCachedClimb = 1, ///< cached-score climb with a tight move budget, no
                    ///< consolidation migrations
  kFirstFit = 2,    ///< greedy first-fit/backfilling placements, no solver
  kFrozen = 3,      ///< freeze placements entirely (queue keeps building)
};
inline constexpr int kNumLadderLevels = 4;

const char* to_string(LadderLevel level) noexcept;
/// Name of ladder rung `rung` (a LadderLevel index), or "beyond" past the
/// last rung: the key of the energy ledger's per-rung split.
const char* rung_name(std::size_t rung) noexcept;

/// Per-host health as seen by the circuit breakers. Orthogonal to the
/// power state: a Suspect host keeps running its residents; it only stops
/// receiving new placements until a half-open probe succeeds.
enum class HostHealth : std::uint8_t {
  kHealthy = 0,     ///< breaker closed, host takes placements normally
  kSuspect = 1,     ///< breaker open after K consecutive op failures;
                    ///< half-open probes allowed after the probe delay
  kQuarantined = 2, ///< the datacenter's failure-budget quarantine is
                    ///< active (overrides the breaker until cooldown)
  kDead = 3,        ///< breaker re-opened too many times; host is written
                    ///< off until its hardware is repaired
};
inline constexpr int kNumHostHealthStates = 4;

const char* to_string(HostHealth health) noexcept;

/// Admission-control verdict for one arriving job.
enum class Admission : std::uint8_t {
  kAdmit = 0,  ///< enqueue normally
  kDefer = 1,  ///< re-submit the arrival after defer_delay_s
  kShed = 2,   ///< reject outright (counted, never enters the queue)
};

const char* to_string(Admission admission) noexcept;

}  // namespace easched::resilience
