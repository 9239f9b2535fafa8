// The scheduler driver: glue between workload, policy, power controller and
// the simulated datacenter.
//
// This is the paper's "Scheduler" component, which is a *real* piece in
// their simulator too ("The Scheduler is a 'real' part in our simulator, it
// is not simulated", section IV). It owns the virtual-host queue of
// unallocated VMs, fires a scheduling round on every system change, applies
// the policy's decisions through the Datacenter actuators, runs the SLA
// monitor that raises violation alarms (and optionally boosts demands —
// the dynamic SLA enforcement extension), and invokes the power controller.
#pragma once

#include <vector>

#include "datacenter/datacenter.hpp"
#include "metrics/accumulators.hpp"
#include "sched/adaptive_thresholds.hpp"
#include "sched/policy.hpp"
#include "sched/power_controller.hpp"
#include "sim/simulator.hpp"
#include "workload/job.hpp"

namespace easched::sched {

/// Ordering discipline of the virtual-host queue. The paper's queue is
/// FIFO; EDF and SJF are extensions that change who wins when capacity is
/// scarce during a burst.
enum class QueueOrder : std::uint8_t {
  kFifo,  ///< arrival order (failed VMs re-enter at the front)
  kEdf,   ///< earliest absolute deadline first
  kSjf,   ///< shortest dedicated runtime first
};

const char* to_string(QueueOrder order) noexcept;

/// Capped exponential backoff with jitter for re-attempting failed
/// operations: attempt n waits min(cap, base * 2^(n-1)) * (1 + jitter*U).
struct RetryPolicy {
  double base_s = 5;
  double cap_s = 300;
  double jitter = 0.5;
};

struct DriverConfig {
  PowerControllerConfig power;

  RetryPolicy retry;

  QueueOrder queue_order = QueueOrder::kFifo;

  /// Period of the power-controller tick (also re-runs stuck rounds).
  sim::SimTime controller_period_s = 60;

  /// SLA monitor: period of the projection scan; 0 disables it entirely.
  sim::SimTime sla_check_period_s = 120;
  /// Raise scheduling rounds when a VM is projected to miss its deadline.
  bool sla_alarms = false;
  /// Dynamic SLA enforcement (section III-A.5 extension): multiply an
  /// at-risk VM's CPU demand by `boost_factor` (once per violation episode).
  bool dynamic_sla_boost = false;
  double boost_factor = 1.5;

  /// Dynamic-threshold extension (section V-A future work): adapt the
  /// power controller's lambdas to the observed satisfaction.
  AdaptiveThresholdConfig adaptive;

  std::uint64_t seed = 7;
};

class SchedulerDriver {
 public:
  SchedulerDriver(sim::Simulator& simulator, datacenter::Datacenter& dc,
                  Policy& policy, DriverConfig config);

  SchedulerDriver(const SchedulerDriver&) = delete;
  SchedulerDriver& operator=(const SchedulerDriver&) = delete;

  /// Schedules the arrival event of every job. Call once before running.
  void submit_workload(const workload::Workload& jobs);

  /// Injects a single job arriving *now* (used by the multi-datacenter
  /// dispatcher, which routes each arrival to a site at submit time).
  /// Returns the VM id.
  datacenter::VmId submit_job_now(const workload::Job& job);

  /// FIFO of queued (unallocated) VMs — the paper's virtual host HV.
  [[nodiscard]] const std::vector<datacenter::VmId>& queue() const {
    return queue_;
  }

  /// Jobs submitted / finished / shed by admission control so far.
  [[nodiscard]] std::size_t submitted() const { return submitted_; }
  [[nodiscard]] std::size_t finished() const { return finished_; }
  [[nodiscard]] std::size_t shed() const { return shed_; }
  [[nodiscard]] bool all_done() const {
    return submitted_ > 0 && finished_ + shed_ == submitted_;
  }

  /// Runs one scheduling round now (also invoked internally on events);
  /// exposed so tests and examples can step the system by hand.
  void round();

  /// Maintenance drain: flags the host unplaceable, live-migrates its
  /// residents away (best fit) as capacity allows, and powers it off once
  /// empty. Progress is re-attempted on every round. Idempotent.
  void drain_host(datacenter::HostId h);
  /// Aborts a drain: the host becomes placeable again (it is not powered
  /// back on if the drain already completed).
  void cancel_drain(datacenter::HostId h);
  [[nodiscard]] bool is_draining(datacenter::HostId h) const;

  /// Fired when the last submitted job finishes; the experiment runner uses
  /// it to stop the clock.
  std::function<void()> on_all_done;

  /// Observation hook: fired after a round's actions pass validation and
  /// are applied, with the subset that actually took effect. The
  /// golden-trace regression test records placement decisions through it.
  std::function<void(sim::SimTime, const std::vector<Action>&)> on_actions;

  /// Fired on every job completion (after metrics are recorded).
  std::function<void(datacenter::VmId)> on_job_finished;

  /// Current controller thresholds (changes over time when the adaptive
  /// extension is on).
  [[nodiscard]] const PowerControllerConfig& thresholds() const {
    return power_.config();
  }

  /// VMs currently serving a post-failure backoff delay (their retry is
  /// scheduled but not yet due). Exposed for tests.
  [[nodiscard]] std::size_t backoff_count() const;

 private:
  /// Per-VM recovery bookkeeping for the fault-injection layer.
  struct RetryState {
    int attempts = 0;              ///< consecutive failed attempts
    sim::SimTime not_before = 0;   ///< backoff gate for the next attempt
    sim::SimTime failed_at = -1;   ///< first disruption of this episode
  };

  /// Arrival entry point; `defers` counts how many times admission control
  /// already pushed this arrival back (resilience backpressure).
  void on_arrival(const workload::Job& job, int defers = 0);
  /// Applies the policy's actions (after defensive validation) and returns
  /// how many were actually executed.
  std::size_t apply(const std::vector<Action>& actions);
  void sla_scan();
  void adaptive_window();
  void progress_drains();
  void evacuate_quarantined();
  datacenter::HostId policies_best_fit(datacenter::VmId v);
  void remove_from_queue(datacenter::VmId v);
  RetryState& retry_state(datacenter::VmId v);
  [[nodiscard]] bool in_backoff(datacenter::VmId v) const;
  /// Schedules the backoff-delayed re-attempt after a failed operation.
  /// `track_recovery` stamps the episode start so on_vm_ready can sample
  /// the time-to-recover (placements only; migration rollbacks leave the
  /// VM running, so there is nothing to recover from).
  void schedule_retry(datacenter::VmId v, bool track_recovery);
  void mark_disrupted(datacenter::VmId v);
  void note_recovered(datacenter::VmId v);

  sim::Simulator& sim_;
  datacenter::Datacenter& dc_;
  Policy& policy_;
  DriverConfig config_;
  PowerController power_;
  AdaptiveThresholds adaptive_;
  std::size_t jobs_seen_by_adaptive_ = 0;
  support::Rng rng_;
  /// Independent stream for backoff jitter: drawing retry delays must not
  /// perturb the policy RNG, or enabling fault injection would shift every
  /// later scheduling decision.
  support::Rng retry_rng_;
  std::vector<datacenter::VmId> queue_;
  std::vector<datacenter::VmId> eligible_;  ///< round scratch: queue_ minus backoff
  std::vector<RetryState> retry_;
  /// VMs whose backoff gate was set and not yet seen to pass, each once;
  /// backoff_count() prunes it, so it stays O(VMs in backoff).
  mutable std::vector<datacenter::VmId> backoff_;
  std::vector<datacenter::HostId> draining_;
  std::vector<bool> boosted_;  ///< per-VM: demand already boosted
  std::size_t submitted_ = 0;
  std::size_t finished_ = 0;
  std::size_t shed_ = 0;  ///< arrivals rejected by admission control
  bool in_round_ = false;
};

}  // namespace easched::sched
