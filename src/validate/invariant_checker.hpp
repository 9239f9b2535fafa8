// Run-time invariant checking for the simulated datacenter.
//
// After four PRs of aggressive optimisation (cached score matrices, pooled
// event kernel, parallel sweeps) the paper's headline numbers rest on
// simulation state staying physically coherent; the fuzz tests only catch
// crashes, not silent drift. The InvariantChecker closes that gap: a set
// of pluggable rules, each checking one conservation law of the model, run
// against the live world at well-defined sync points (end of every
// scheduler round, every host power transition, every dispatched event).
//
// Rules:
//   kVmConservation    every active VM exists exactly once — resident
//                      lists and VM back-pointers agree across
//                      create/migrate/destroy/rollback paths
//   kCapacity          per-host memory is never oversubscribed; CPU only
//                      within the Xen-credit policy (the Random /
//                      Round-Robin baselines legitimately oversubscribe
//                      CPU — shares shrink — so that check is opt-in)
//   kPowerLegality     host power-state transitions follow the machine in
//                      host.hpp (incl. boot-failure and quarantine paths)
//   kScoreCache        every cached score-matrix cell equals a
//                      from-scratch recomputation
//   kEventMonotonicity the event queue pops in nondecreasing time order
//   kEnergyConsistency recorded power samples match the power model for
//                      the host's state, and the energy integral is the
//                      sum of the per-host integrals
//   kFleetSnapshot     the cross-round fleet snapshot (core/fleet.hpp) is
//                      bitwise equal to a fresh re-read of every host —
//                      i.e. the dirty journal missed nothing, which also
//                      implies a clean round's score matrix is byte-stable
//   kFleetIndex        the capacity-bucket index (margins, per-block
//                      maxima, band histogram) is consistent with the
//                      snapshot it was built from
//   kNodeCounts        the Datacenter's maintained online / working /
//                      booting / quarantined-On counts equal a full
//                      recount of every host
//
// The checker is passive: it never mutates the world. On violation it
// records a Violation, invokes the `on_violation` callback (the runner
// uses this to emit an obs trace event and write a repro bundle), and —
// when configured — aborts the process for fail-fast debugging.
//
// Access from instrumented layers goes through validate/validate.hpp,
// which compiles to nothing under EASCHED_VALIDATE=OFF. This class itself
// is always built, so tests can drive it directly in either configuration.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "datacenter/host.hpp"
#include "datacenter/ids.hpp"
#include "resilience/health.hpp"
#include "sim/simulator.hpp"

namespace easched::core {
class FleetState;
class ScoreModel;
}  // namespace easched::core

namespace easched::datacenter {
class Datacenter;
}  // namespace easched::datacenter

namespace easched::validate {

enum class Rule : std::uint8_t {
  kVmConservation,
  kCapacity,
  kPowerLegality,
  kScoreCache,
  kEventMonotonicity,
  kEnergyConsistency,
  kLadderTransition,
  kBreakerTransition,
  kFleetSnapshot,
  kFleetIndex,
  kNodeCounts,
};
inline constexpr int kNumRules = 11;

const char* to_string(Rule rule) noexcept;

struct Violation {
  Rule rule = Rule::kVmConservation;
  sim::SimTime t = 0;
  std::string message;
};

struct CheckerConfig {
  /// Abort the process on the first violation (fail-fast debugging).
  bool abort_on_violation = false;
  /// The Xen credit scheduler shrinks shares under contention, so the
  /// non-consolidating baselines may reserve more CPU than a host has;
  /// memory, by contrast, is never oversubscribable. Set to false when
  /// validating a consolidating policy to tighten the capacity rule.
  bool allow_cpu_oversubscription = true;
  /// Stop recording (but keep counting) violations past this cap, so a
  /// systemic breakage cannot balloon memory.
  std::size_t max_violations = 64;
};

class InvariantChecker : public sim::SimObserver {
 public:
  explicit InvariantChecker(CheckerConfig config = {});

  /// Full world sweep: VM conservation, capacity, quarantine legality,
  /// energy consistency and the maintained node counts. Called by the
  /// driver at the end of every round.
  void check_datacenter(const datacenter::Datacenter& dc);

  /// Cache-vs-recompute agreement over every warmed score-matrix cell.
  /// Called by the score policy after each hill-climb.
  void check_score_model(const core::ScoreModel& model, sim::SimTime t);

  /// Fleet-state coherence (kFleetSnapshot + kFleetIndex): the cross-round
  /// snapshot against a fresh re-read of every host, and the bucket index
  /// against the snapshot. Called by the score policy right after each
  /// incremental refresh, with `t` = the refresh's `now`.
  void check_fleet(const core::FleetState& fleet,
                   const datacenter::Datacenter& dc, sim::SimTime t);

  /// Power-state transition hook, called by the Datacenter *before* it
  /// assigns the new state.
  void on_host_transition(sim::SimTime t, datacenter::HostId h,
                          datacenter::HostState from,
                          datacenter::HostState to);

  /// sim::SimObserver: event-queue monotonicity.
  void on_event_dispatched(sim::SimTime t) override;

  [[nodiscard]] static bool transition_legal(
      datacenter::HostState from, datacenter::HostState to) noexcept;

  /// Degradation-ladder transition hook, called by the
  /// ResilienceController *before* it assigns the new level. Legal moves
  /// are exactly one rung, downward only on a budget breach and upward
  /// only on hysteresis recovery — so the level is monotone non-improving
  /// within a breach episode.
  void check_ladder_shift(sim::SimTime t, resilience::LadderLevel from,
                          resilience::LadderLevel to, bool breach);

  /// Host-health transition hook, called by the ResilienceController
  /// *before* it assigns the new state.
  void check_breaker_transition(sim::SimTime t, datacenter::HostId h,
                                resilience::HostHealth from,
                                resilience::HostHealth to);

  [[nodiscard]] static bool breaker_transition_legal(
      resilience::HostHealth from, resilience::HostHealth to) noexcept;

  [[nodiscard]] const std::vector<Violation>& violations() const noexcept {
    return violations_;
  }
  /// Total violations per rule (keeps counting past max_violations).
  [[nodiscard]] std::uint64_t count(Rule rule) const noexcept {
    return rule_counts_[static_cast<int>(rule)];
  }
  /// Number of check entry points executed (sweeps, transitions, events).
  [[nodiscard]] std::uint64_t checks_run() const noexcept { return checks_; }
  [[nodiscard]] bool ok() const noexcept { return violations_.empty(); }
  void clear();

  /// Fired once per recorded violation (not past max_violations). The
  /// runner hooks this to emit a trace event and write the repro bundle.
  std::function<void(const Violation&)> on_violation;

 private:
  void check_conservation(const datacenter::Datacenter& dc, sim::SimTime t);
  void check_capacity(const datacenter::Datacenter& dc, sim::SimTime t);
  void check_energy(const datacenter::Datacenter& dc, sim::SimTime t);
  void check_node_counts(const datacenter::Datacenter& dc, sim::SimTime t);
  void report(Rule rule, sim::SimTime t, std::string message);

  CheckerConfig config_;
  std::vector<Violation> violations_;
  std::uint64_t rule_counts_[kNumRules] = {};
  std::uint64_t checks_ = 0;
  sim::SimTime last_event_t_ = 0;
};

}  // namespace easched::validate
