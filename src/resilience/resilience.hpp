// The resilience control plane: solver deadline watchdog, policy
// degradation ladder, admission control and per-host circuit breakers.
//
// The paper's scheduler assumes every round has time for the full
// score-based optimisation and that every actuated operation lands
// cleanly. At production scale neither holds: a burst of arrivals blows
// the solver budget, and a flapping host turns retries into migration
// thrash. SLA-aware schedulers bound scheduler effort and isolate
// unhealthy hosts, trading a little consolidation quality for bounded
// round cost — the ResilienceController makes that trade-off explicit:
//
//   * Solver deadline watchdog — every round gets a deterministic step
//     budget (hill-climb moves, the unit the solver already counts). A
//     round that exhausts it is a *breach*; the controller walks one rung
//     down the degradation ladder (full -> cached-climb -> first-fit ->
//     frozen) and back up one rung only after `recovery_rounds`
//     consecutive healthy rounds (hysteresis). The budget is counted in
//     solver steps, not wall time, so the ladder walk is bit-identical
//     across machines.
//
//   * Admission control & backpressure — a bounded pending queue with
//     deferral and load-shedding tiers driven by queue depth and an EWMA
//     of per-round solver effort (the deterministic stand-in for round
//     duration). Shed and deferred jobs are counted in the RunReport.
//
//   * Per-host circuit breakers — K consecutive operation failures open a
//     host's breaker (Healthy -> Suspect); after a delay one half-open
//     probe placement is allowed, closing the breaker on success and
//     re-opening it on failure; too many re-opens write the host off
//     (Dead) until repair. The datacenter's quarantine (failure budget
//     within a window) overlays as its own health state. Placement paths
//     consult the controller through Datacenter::placeable().
//
// Plumbing mirrors obs/ and validate/: the controller travels with the
// run's metrics::Recorder as a nullable pointer (Recorder::resilience)
// behind the accessor below. With no controller attached the accessor
// returns nullptr and every call site's branch is skipped; tests can
// also drive the class directly.
//
// Determinism contract: every input the controller consumes — solver
// move counts, queue depths, operation outcomes, sim-time stamps — is
// identical across runs, so ladder walks, admission verdicts and breaker
// transitions (and therefore the whole RunReport) are too.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "datacenter/ids.hpp"
#include "metrics/accumulators.hpp"
#include "resilience/health.hpp"
#include "sim/time.hpp"

namespace easched::resilience {

struct ResilienceConfig {
  /// Master switch; parse_resilience_spec() sets it, and a
  /// default-constructed config is inert so existing setups are
  /// bit-identical to a run without the controller.
  bool enabled = false;

  // ---- solver deadline watchdog + degradation ladder --------------------
  /// Per-round solver step budget at LadderLevel::kFull (hill-climb moves;
  /// annealing rounds are capped to the same count). 0 = unlimited, which
  /// disables the watchdog and pins the ladder at kFull.
  int solver_budget_moves = 256;
  /// Tighter budget at kCachedClimb (consolidation is also suspended).
  int degraded_budget_moves = 48;
  /// Consecutive healthy (non-breach) rounds before climbing one rung
  /// back up — the recovery hysteresis.
  int recovery_rounds = 3;

  // ---- admission control & backpressure ---------------------------------
  /// Bound on the pending (queued, unallocated) VM count. 0 = unlimited,
  /// which disables admission control entirely.
  std::size_t max_pending = 0;
  /// Deferral tier: arrivals are deferred once depth >= defer_fill *
  /// max_pending (or the effort EWMA crosses its watermark).
  double defer_fill = 0.75;
  /// Shedding tier: arrivals are shed once depth >= shed_fill * max_pending.
  double shed_fill = 1.0;
  /// How long a deferred arrival waits before re-attempting admission.
  double defer_delay_s = 60;
  /// A job deferred this many times is shed instead of deferred again, so
  /// a saturated system cannot defer forever.
  int max_defers_per_job = 8;
  /// EWMA weight of the latest round's solver effort (moves per round) —
  /// the deterministic proxy for round duration.
  double effort_alpha = 0.25;
  /// Deferral also triggers while the effort EWMA is at or above this
  /// value (0 disables the effort tier).
  double effort_defer_watermark = 0;

  // ---- per-host circuit breakers ----------------------------------------
  /// Consecutive operation failures on one host that open its breaker.
  /// 0 disables the breakers.
  int breaker_threshold = 3;
  /// Open -> half-open delay: after this long a single probe placement is
  /// allowed through.
  double breaker_probe_after_s = 600;
  /// Consecutive re-opens (probe failures without an intervening close)
  /// before the host is declared Dead. 0 = never.
  int breaker_dead_after = 0;
};

/// Parses "on" (defaults, enabled) or a comma-separated key=value spec:
///   budget, degraded_budget, recovery_rounds, max_pending, defer_fill,
///   shed_fill, defer_delay, max_defers, effort_alpha, effort_watermark,
///   breaker_threshold, probe_after, dead_after
/// e.g. "budget=128,max_pending=64,breaker_threshold=2,probe_after=300".
/// Throws std::invalid_argument on unknown keys or malformed values.
ResilienceConfig parse_resilience_spec(const std::string& spec);

class ResilienceController {
 public:
  /// `recorder` is where counters, trace events and invariant checks are
  /// routed; it must outlive the controller. `num_hosts` sizes the breaker
  /// table.
  ResilienceController(ResilienceConfig config, metrics::Recorder& recorder,
                       std::size_t num_hosts);

  ResilienceController(const ResilienceController&) = delete;
  ResilienceController& operator=(const ResilienceController&) = delete;

  // ---- round lifecycle (called by the SchedulerDriver) ------------------

  void begin_round(sim::SimTime now);
  /// Reported by the score-based policy after its climb; `moves` is the
  /// solver step count of this round. Exhausting the level's budget marks
  /// the round as a breach.
  void note_solver_effort(sim::SimTime now, int moves);
  /// Ends the round: applies breach/recovery ladder transitions and folds
  /// the round's effort into the EWMA.
  void end_round(sim::SimTime now);

  [[nodiscard]] LadderLevel ladder() const noexcept { return level_; }
  /// Solver step budget of the current ladder level (0 = unlimited). The
  /// cached-climb and first-fit rungs share the tightened budget — on the
  /// first-fit rung each greedy placement counts as one step, so a queue
  /// first-fit cannot drain breaches into the frozen rung.
  [[nodiscard]] int solver_budget() const noexcept;

  // ---- admission control (called by the driver on every arrival) --------

  /// Verdict for an arrival seeing `queue_depth` pending VMs after having
  /// been deferred `defers_so_far` times already. Counts shed/deferred
  /// jobs and emits their trace events (`vm` scopes them; -1 = unknown).
  Admission admit(sim::SimTime now, std::size_t queue_depth,
                  int defers_so_far, std::int64_t vm = -1);
  [[nodiscard]] double defer_delay_s() const noexcept {
    return config_.defer_delay_s;
  }

  // ---- circuit breakers -------------------------------------------------

  /// An actuator operation (creation / migration / boot) started on `h`;
  /// consumes the half-open probe slot when the breaker is probing.
  void note_op_start(datacenter::HostId h, sim::SimTime now);
  void note_op_success(datacenter::HostId h, sim::SimTime now);
  void note_op_failure(datacenter::HostId h, sim::SimTime now);
  /// Host crashed under the failure model: opens the breaker immediately.
  void note_host_crashed(datacenter::HostId h, sim::SimTime now);
  void note_host_quarantined(datacenter::HostId h, sim::SimTime now);
  void note_host_unquarantined(datacenter::HostId h, sim::SimTime now);
  /// Hardware repair gives a Dead host a fresh (Suspect) chance.
  void note_host_repaired(datacenter::HostId h, sim::SimTime now);

  /// True when some breaker could veto a placement (any host not
  /// Healthy). Inline so the per-cell fits/score hot path can skip the
  /// allows_placement() call entirely while the whole fleet is healthy —
  /// the common case, and the reason an idle controller stays within the
  /// `bench_overhead --component=resilience` budget.
  [[nodiscard]] bool may_veto_placement() const noexcept {
    return not_healthy_ > 0;
  }
  /// Whether placements/migrations onto `h` are allowed right now:
  /// Healthy, or Suspect with the half-open probe slot free.
  [[nodiscard]] bool allows_placement(datacenter::HostId h,
                                      sim::SimTime now) const;
  /// Dead hosts are excluded from power-on choices.
  [[nodiscard]] bool allows_power_on(datacenter::HostId h) const;
  [[nodiscard]] HostHealth health(datacenter::HostId h) const;

  // ---- introspection (tests / report) -----------------------------------

  [[nodiscard]] const ResilienceConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] double effort_ewma() const noexcept { return effort_ewma_; }
  [[nodiscard]] int healthy_rounds() const noexcept {
    return healthy_rounds_;
  }
  [[nodiscard]] LadderLevel max_level_reached() const noexcept {
    return max_level_;
  }
  /// Hosts whose breaker is currently not Healthy.
  [[nodiscard]] std::size_t breakers_not_healthy() const noexcept;

 private:
  struct Breaker {
    HostHealth state = HostHealth::kHealthy;
    int consecutive_failures = 0;
    int open_streak = 0;  ///< re-opens since the last close
    bool probe_inflight = false;
    sim::SimTime opened_at = 0;
  };

  void shift_ladder(sim::SimTime now, LadderLevel to, bool breach);
  void set_health(sim::SimTime now, datacenter::HostId h, HostHealth to);
  void open_breaker(sim::SimTime now, datacenter::HostId h, Breaker& b);

  ResilienceConfig config_;
  metrics::Recorder& recorder_;
  std::vector<Breaker> breakers_;

  LadderLevel level_ = LadderLevel::kFull;
  LadderLevel max_level_ = LadderLevel::kFull;
  bool in_round_ = false;
  bool breach_this_round_ = false;
  int round_moves_ = 0;
  int healthy_rounds_ = 0;
  double effort_ewma_ = 0;
  std::size_t not_healthy_ = 0;  ///< breakers currently not Healthy
};

/// The run's resilience controller, or nullptr when none is attached.
[[nodiscard]] inline ResilienceController* controller(
    const metrics::Recorder& rec) noexcept {
  return rec.resilience;
}

}  // namespace easched::resilience
