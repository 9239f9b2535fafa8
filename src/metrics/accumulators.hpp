// Time-weighted measurement of the simulated datacenter.
//
// Power, CPU usage and node counts are piecewise-constant signals that
// change only at events; each accumulator integrates its signal exactly by
// accumulating value * dt on every change, which is how the paper's
// simulator "measures power consumption" (section IV). No sampling error is
// introduced for the aggregate numbers in Tables II-V; the optional series
// sampler exists for Figure-1-style plots.
#pragma once

#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace easched::obs {
struct Observability;
}

namespace easched::validate {
class InvariantChecker;
}

namespace easched::resilience {
class ResilienceController;
}

namespace easched::metrics {

/// Exact integral of a piecewise-constant signal.
class TimeWeighted {
 public:
  /// Sets the signal value from time `t` onward. `t` must be >= the time of
  /// the previous call.
  void set(sim::SimTime t, double value);

  /// Integral of the signal over [t0, t]. Requires t >= time of last set().
  [[nodiscard]] double integral(sim::SimTime t) const;

  /// Time-average over [start, t] where `start` is the time of the first
  /// set() call (0 if none). Returns 0 for an empty interval.
  [[nodiscard]] double average(sim::SimTime t) const;

  [[nodiscard]] double current() const noexcept { return value_; }

 private:
  double value_ = 0;
  double sum_ = 0;  // integral up to last_
  sim::SimTime first_ = 0;
  sim::SimTime last_ = 0;
  bool started_ = false;
};

/// Per-host piecewise-constant signal with an exact aggregate integral.
/// Used twice: watts -> energy, and allocated CPU% -> core-hours.
class PerHostMeter {
 public:
  explicit PerHostMeter(std::size_t num_hosts);

  /// Sets host `h`'s signal value from time `t` onward.
  void set(sim::SimTime t, std::size_t h, double value);

  /// Integral of host h's signal up to time t.
  [[nodiscard]] double host_integral(std::size_t h, sim::SimTime t) const;

  /// Integral of the summed signal up to time t.
  [[nodiscard]] double total_integral(sim::SimTime t) const;

  [[nodiscard]] double host_current(std::size_t h) const;
  [[nodiscard]] double total_current() const noexcept;
  [[nodiscard]] std::size_t size() const noexcept { return hosts_.size(); }

 private:
  std::vector<TimeWeighted> hosts_;
  TimeWeighted total_;
};

/// Outcome of one completed job, with the paper's QoS metrics attached.
struct JobRecord {
  std::uint32_t vm = 0;
  sim::SimTime submit = 0;
  sim::SimTime finish = 0;
  double dedicated_seconds = 0;  ///< runtime on a dedicated machine
  double deadline_seconds = 0;   ///< agreed deadline (relative to submit)
  double satisfaction = 0;       ///< S in [0, 100]
  double delay_pct = 0;          ///< 100*(Texec - Tded)/Tded, clamped >= 0
  double cpu_pct = 0;            ///< requested CPU (for billing)
};

/// Collects per-job records and aggregates the S / delay columns.
class JobLog {
 public:
  void add(JobRecord rec);
  [[nodiscard]] std::size_t count() const noexcept { return records_.size(); }
  [[nodiscard]] double mean_satisfaction() const;
  [[nodiscard]] double mean_delay_pct() const;
  [[nodiscard]] const std::vector<JobRecord>& records() const noexcept {
    return records_;
  }

 private:
  std::vector<JobRecord> records_;
};

/// Every per-run operation counter. A counter is declared here and named in
/// kRunCounters below, and nowhere else: the metrics registry publishes the
/// table, and RunReport inherits the fields.
struct Counters {
  std::uint64_t creations = 0;
  std::uint64_t migrations = 0;
  std::uint64_t turn_ons = 0;
  std::uint64_t turn_offs = 0;
  std::uint64_t failures = 0;
  std::uint64_t sla_alarms = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t checkpoint_recoveries = 0;
  /// VMs recreated from scratch after a host failure because no checkpoint
  /// existed (complement of checkpoint_recoveries).
  std::uint64_t recreates = 0;

  // ---- robustness counters (fault-injection & recovery layer) ----------
  std::uint64_t op_failures = 0;    ///< actuator ops that failed partway
  std::uint64_t op_timeouts = 0;    ///< ops aborted by their deadline
  std::uint64_t retries = 0;        ///< backoff-delayed re-attempts scheduled
  std::uint64_t rollbacks = 0;      ///< migrations rolled back to the source
  std::uint64_t quarantines = 0;    ///< hosts exiled over the failure budget
  std::uint64_t boot_failures = 0;  ///< hosts that missed their boot deadline

  // ---- resilience counters (control plane, see src/resilience/) ---------
  std::uint64_t solver_breaches = 0;   ///< rounds that exhausted the budget
  std::uint64_t ladder_downshifts = 0; ///< degradation-ladder steps down
  std::uint64_t ladder_upshifts = 0;   ///< hysteresis recoveries back up
  std::uint64_t jobs_shed = 0;         ///< arrivals rejected by admission
  std::uint64_t jobs_deferred = 0;     ///< arrivals pushed back for later
  std::uint64_t breaker_opens = 0;     ///< host circuit breakers tripped
  std::uint64_t breaker_closes = 0;    ///< breakers closed by a good probe
  std::uint64_t breaker_probes = 0;    ///< half-open probe ops dispatched
  std::uint64_t breaker_deaths = 0;    ///< hosts written off as dead

  // ---- scheduling rounds (counted by SchedulerDriver::round) ----------
  std::uint64_t rounds = 0;
  /// Rounds whose policy saw an empty queue and which applied no action.
  std::uint64_t rounds_idle = 0;

  // ---- power control (counted by PowerController::update) -------------
  /// Updates whose turn-off side shed at least one host.
  std::uint64_t power_off_passes = 0;

  // ---- simulation kernel (filled by the runner from the simulator) ----
  std::uint64_t events_dispatched = 0;
  std::uint64_t events_cancelled = 0;
  std::uint64_t events_kept = 0;  ///< re-posts that kept the pending event
};

/// Registry name of every Counters field, one row per field.
inline constexpr std::pair<std::uint64_t Counters::*, const char*>
    kRunCounters[] = {
        {&Counters::creations, "ops.creations"},
        {&Counters::migrations, "ops.migrations"},
        {&Counters::turn_ons, "power.turn_ons"},
        {&Counters::turn_offs, "power.turn_offs"},
        {&Counters::failures, "hosts.failures"},
        {&Counters::sla_alarms, "sla.alarms"},
        {&Counters::checkpoints, "ckpt.taken"},
        {&Counters::checkpoint_recoveries, "ckpt.recoveries"},
        {&Counters::recreates, "vm.recreates"},
        {&Counters::op_failures, "robust.op_failures"},
        {&Counters::op_timeouts, "robust.op_timeouts"},
        {&Counters::retries, "robust.retries"},
        {&Counters::rollbacks, "robust.rollbacks"},
        {&Counters::quarantines, "robust.quarantines"},
        {&Counters::boot_failures, "robust.boot_failures"},
        {&Counters::solver_breaches, "resilience.solver_breaches"},
        {&Counters::ladder_downshifts, "resilience.ladder_downshifts"},
        {&Counters::ladder_upshifts, "resilience.ladder_upshifts"},
        {&Counters::jobs_shed, "resilience.jobs_shed"},
        {&Counters::jobs_deferred, "resilience.jobs_deferred"},
        {&Counters::breaker_opens, "resilience.breaker_opens"},
        {&Counters::breaker_closes, "resilience.breaker_closes"},
        {&Counters::breaker_probes, "resilience.breaker_probes"},
        {&Counters::breaker_deaths, "resilience.breaker_deaths"},
        {&Counters::rounds, "sched.rounds"},
        {&Counters::rounds_idle, "sched.rounds_idle"},
        {&Counters::power_off_passes, "sched.power_off_passes"},
        {&Counters::events_dispatched, "sim.events_dispatched"},
        {&Counters::events_cancelled, "sim.events_cancelled"},
        {&Counters::events_kept, "sim.events_kept"},
};
static_assert(std::size(kRunCounters) * sizeof(std::uint64_t) ==
                  sizeof(Counters),
              "every Counters field needs exactly one kRunCounters row");

/// One bundle with every accumulator a run needs; the Datacenter feeds the
/// meters, the SchedulerDriver feeds the job log and counters.
struct Recorder {
  explicit Recorder(std::size_t num_hosts)
      : watts(num_hosts), cpu_pct(num_hosts) {}

  PerHostMeter watts;     ///< electrical power per host [W]
  PerHostMeter cpu_pct;   ///< allocated CPU per host [% of one core]
  TimeWeighted working;   ///< #hosts hosting at least one VM or operation
  TimeWeighted online;    ///< #hosts powered on (incl. booting)
  JobLog jobs;
  Counters counts;

  /// Time-to-recover samples [s]: per disruption (host failure or failed
  /// creation) the delay until the affected VM was running again. The
  /// report aggregates these into p50/p95/max.
  std::vector<double> recovery_s;

  /// Highest guest-demand/capacity ratio any host ever reached (1.0 =
  /// never oversubscribed; dom0 management overhead not counted).
  /// Consolidating policies must keep this at 1; the Random/Round-Robin
  /// baselines push it above.
  double max_oversubscription = 1.0;

  /// Optional observability bundle for the run (tracer / metrics registry
  /// / phase profiler); not owned. The recorder already flows through
  /// every instrumented layer, so it carries the pointer — access it via
  /// the helpers in obs/obs.hpp, never directly.
  obs::Observability* obs = nullptr;

  /// Optional run-time invariant checker (see validate/); not owned. Rides
  /// on the recorder for the same reason as `obs`: every instrumented
  /// layer already receives the recorder. Access via the helper in
  /// validate/validate.hpp, never directly.
  validate::InvariantChecker* validator = nullptr;

  /// Optional resilience controller (see resilience/); not owned. Same
  /// ride-on-the-recorder pattern as `obs` and `validator`. Access via
  /// the helper in resilience/resilience.hpp, never directly.
  resilience::ResilienceController* resilience = nullptr;

  /// Total energy in kWh up to time t.
  [[nodiscard]] double energy_kwh(sim::SimTime t) const {
    return watts.total_integral(t) / sim::kHour / 1000.0;
  }
  /// Total allocated CPU in core-hours up to time t.
  [[nodiscard]] double cpu_core_hours(sim::SimTime t) const {
    return cpu_pct.total_integral(t) / 100.0 / sim::kHour;
  }
};

}  // namespace easched::metrics
