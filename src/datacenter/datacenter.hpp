// The simulated virtualized datacenter.
//
// This class replaces the paper's OMNeT++ "VHost" component: it owns the
// hosts and VMs, executes the actuator operations the scheduler decides
// (VM creation, live migration, node power cycling — section III-C),
// advances job progress under the modelled Xen credit scheduler, injects
// failures, takes checkpoints, and feeds every power/CPU/node-count change
// into the metrics recorder.
//
// Execution model. Job progress is piecewise linear: between two events a
// running VM accrues work at
//     rate = (allocated / demanded) * efficiency(host)
// dedicated-seconds per second. Whenever anything on a host changes (VM
// arrives/leaves/finishes, an operation starts/ends, a Xen weight is
// boosted) the host is *reallocated*: progress since the last change is
// integrated, new CPU shares are computed via allocate_cpu(), each
// resident's projected finish event is rescheduled, and the host's power
// draw is re-derived from its new total CPU usage.
//
// Contention. When a host is CPU-oversubscribed (only the Random and
// Round-Robin baselines create this state; the consolidating policies
// refuse placements with occupation > 1), VMs not only receive a smaller
// share but also progress less efficiently:
//     efficiency = 1 / (1 + contention_penalty * (oversubscription - 1)).
// This models the scheduling/cache interference the paper's testbed
// measurements attribute to contended hosts; it is why the Random policy
// burns far more CPU-hours than the consolidating policies in Table II.
#pragma once

#include <functional>
#include <vector>

#include "datacenter/checkpointer.hpp"
#include "datacenter/failure_model.hpp"
#include "datacenter/host.hpp"
#include "datacenter/ids.hpp"
#include "datacenter/vm.hpp"
#include "datacenter/xen_scheduler.hpp"
#include "faults/fault_plan.hpp"
#include "metrics/accumulators.hpp"
#include "sim/simulator.hpp"
#include "support/rng.hpp"
#include "workload/job.hpp"

namespace easched::faults {
class FaultInjector;
struct FaultOutcome;
}  // namespace easched::faults

namespace easched::datacenter {

struct OpRow;

struct DatacenterConfig {
  std::vector<HostSpec> hosts;

  /// Contention-efficiency penalty factor k (see header comment).
  double contention_penalty = 2.0;
  /// Operation durations are N(mean, mean * sigma_ratio) truncated at 1 s;
  /// the paper observed N(40, 2.5) for creations on the medium nodes.
  double duration_sigma_ratio = 2.5 / 40.0;

  /// Hosts powered on at t=0 (the power controller adjusts from there).
  /// Defaults to all hosts.
  std::size_t initially_on = static_cast<std::size_t>(-1);

  /// Failure injection (reliability extension). Failures only strike hosts
  /// with spec.reliability < 1.
  bool inject_failures = false;
  double mean_repair_s = 2 * sim::kHour;

  CheckpointPolicy checkpoint;

  /// Deterministic operation-level fault injection (see faults/). Not
  /// owned; null disables injection entirely — no extra RNG draws, no
  /// deadline events, bit-identical traces to a build without the layer.
  faults::FaultInjector* fault_injector = nullptr;

  std::uint64_t seed = 1;
};

class Datacenter {
 public:
  Datacenter(sim::Simulator& simulator, DatacenterConfig config,
             metrics::Recorder& recorder);

  Datacenter(const Datacenter&) = delete;
  Datacenter& operator=(const Datacenter&) = delete;

  // ---- queries -----------------------------------------------------------

  [[nodiscard]] std::size_t num_hosts() const { return hosts_.size(); }
  [[nodiscard]] const Host& host(HostId h) const;
  [[nodiscard]] const Vm& vm(VmId v) const;
  [[nodiscard]] std::size_t num_vms() const { return vms_.size(); }

  /// Node-class counts, maintained from the same mutation marks as the
  /// fleet dirty journal: a read re-classifies only the hosts touched
  /// since the previous read, so it costs O(hosts changed), not O(hosts).
  [[nodiscard]] int online_count() const;   ///< On or Booting
  [[nodiscard]] int working_count() const;  ///< residents or operations
  [[nodiscard]] int booting_count() const;
  /// Quarantined hosts still On (the driver's evacuation candidates).
  [[nodiscard]] int quarantined_on_count() const;

  /// Host occupation: max over CPU and memory of reserved/capacity.
  /// Reservations count Creating/Running residents and incoming migrations
  /// at full demand and outgoing migrations at memory only.
  [[nodiscard]] double occupation(HostId h) const;
  /// Occupation of `h` if `v` were (also) placed there; if `v` already
  /// resides on `h` this equals occupation(h) (paper's O(h, vm)).
  [[nodiscard]] double occupation_if(HostId h, VmId v) const;

  /// Hardware + software requirement check (the Preq penalty).
  [[nodiscard]] bool hw_sw_ok(HostId h, VmId v) const;

  /// Whether `h` accepts new placements / incoming migrations at all:
  /// host.is_placeable() (On, no maintenance, no quarantine) AND — when a
  /// ResilienceController rides on the recorder — its circuit breaker
  /// allows placement (closed, or half-open with the probe slot free).
  /// Policies and solvers must consult this, not Host::is_placeable(),
  /// so plans never target a breaker-open host.
  [[nodiscard]] bool placeable(HostId h) const;

  /// True when `v` may be placed on / migrated to `h` without exceeding
  /// capacity: host placeable, hw/sw ok, occupation_if <= 1 (+epsilon).
  [[nodiscard]] bool fits(HostId h, VmId v) const;
  /// Like fits() but ignores the CPU dimension (memory and hw/sw only);
  /// used by the non-consolidating baselines, which oversubscribe CPU.
  [[nodiscard]] bool fits_memory(HostId h, VmId v) const;

  /// Reserved CPU / memory on a host (for policies building scores).
  [[nodiscard]] double reserved_cpu_pct(HostId h) const;
  [[nodiscard]] double reserved_mem_mb(HostId h) const;

  /// All active (non-finished) VM ids.
  [[nodiscard]] std::vector<VmId> active_vms() const;

  /// Cross-round dirty journal for the incremental scheduling core
  /// (core/fleet.hpp). Every mutation that can change a host's
  /// score-relevant state — a reallocation (residents, reservations,
  /// in-flight operations), a power transition, a maintenance /
  /// quarantine flip, a debug mutation hook — marks the host dirty.
  /// FleetState::refresh() drains the set once per round and re-reads only
  /// those hosts instead of snapshotting the whole fleet. Marking is
  /// deduplicated, so the journal stays bounded by num_hosts() even when
  /// nothing drains it (e.g. non-score policies). Draining appends the
  /// dirty ids (deduplicated, in first-marked order) to `out` and clears
  /// the journal; it is const because the single consumer reaches the
  /// Datacenter through a const SchedContext.
  void drain_fleet_dirty(std::vector<HostId>& out) const;
  [[nodiscard]] std::size_t fleet_dirty_count() const {
    return fleet_dirty_.size();
  }

  // ---- actuators (section III-C) -----------------------------------------

  /// Admits a job: materialises its VM in the Queued state and returns the
  /// id. The driver keeps the queue ordering.
  VmId admit_job(const workload::Job& job);

  /// Starts creating a queued VM on an On host. Requires fits_memory().
  void place(VmId v, HostId h);

  /// Starts a live migration of a Running VM to another On host.
  void migrate(VmId v, HostId to);

  /// Power cycling. power_on: Off -> Booting; power_off: idle On ->
  /// ShuttingDown (requires is_idle_on()).
  void power_on(HostId h);
  void power_off(HostId h);

  /// Maintenance (drain) mode: while set, the host accepts no placements
  /// or incoming migrations (fits()/fits_memory() return false).
  void set_maintenance(HostId h, bool on);

  /// Multiplies a VM's Xen credit weight (dynamic SLA enforcement): under
  /// contention the VM's share grows toward its nominal demand without
  /// inflating what it consumes when uncontended. Weight is capped at 65536
  /// (Xen's maximum).
  void boost_weight(VmId v, double factor);

  /// Chaos/test hook: crashes an On host immediately, exactly as if the
  /// FailureModel had struck (residents requeued, checkpoints restored,
  /// repair scheduled). No-op unless the host is On.
  void inject_host_failure(HostId h);

  /// Mutation-test hooks for the invariant checker (see validate/): each
  /// corrupts the world in a way normal actuators never can, so the tests
  /// can prove the corresponding rule actually fires. debug_add_resident
  /// duplicates a resident-list entry (breaks VM conservation only);
  /// debug_force_place installs a queued VM as Running on `h` with
  /// *consistent* bookkeeping but without any capacity check (breaks
  /// capacity when the VM does not fit). Neither reallocates nor touches
  /// the meters.
  void debug_add_resident(HostId h, VmId v);
  void debug_force_place(VmId v, HostId h);
  /// Shifts the maintained online count by `delta` without touching any
  /// host (breaks the node-count rule only).
  void debug_corrupt_node_counts(int delta);

  // ---- notifications to the scheduler driver ------------------------------

  std::function<void(VmId)> on_vm_ready;     ///< creation completed
  std::function<void(VmId)> on_vm_finished;  ///< job completed
  std::function<void(VmId)> on_migration_done;
  /// Boot completed, or a shutdown failed and left the host On.
  std::function<void(HostId)> on_host_online;
  std::function<void(HostId)> on_host_off;        ///< shutdown completed
  std::function<void(HostId, std::vector<VmId>)> on_host_failed;
  std::function<void(HostId)> on_host_repaired;

  /// An operation failed or was aborted by its deadline (`timed_out`):
  /// every op whose kOpRows row traces `op-failed` (all but boots; `v` is
  /// kNoVm for a shutdown). For creations the VM is back in Queued; for
  /// migrations it has been rolled back to its source host. The driver
  /// schedules the backoff-delayed retry.
  std::function<void(faults::FaultOp, VmId, HostId, bool timed_out)>
      on_operation_failed;
  std::function<void(HostId)> on_host_boot_failed;  ///< boot failed
  std::function<void(HostId)> on_host_quarantined;
  std::function<void(HostId)> on_host_unquarantined;

  /// Exposes the simulator (policies need now(); tests drive time).
  [[nodiscard]] sim::Simulator& simulator() noexcept { return sim_; }
  [[nodiscard]] const sim::Simulator& simulator() const noexcept {
    return sim_;
  }
  [[nodiscard]] const DatacenterConfig& config() const noexcept {
    return config_;
  }
  /// Const overload included: recorder_ is a reference to caller-owned
  /// state, and observers (e.g. the score policy emitting trace events
  /// through a const SchedContext) legitimately reach it on a const
  /// Datacenter.
  [[nodiscard]] metrics::Recorder& recorder() const noexcept {
    return recorder_;
  }

  /// The attached fault injector (null when injection is disabled).
  [[nodiscard]] faults::FaultInjector* fault_injector() const noexcept {
    return config_.fault_injector;
  }

 private:
  Host& host_mut(HostId h);
  Vm& vm_mut(VmId v);

  /// The single gateway for host power-state changes after construction:
  /// notifies the attached invariant checker (power-legality rule) before
  /// assigning, so every transition is validated or none are.
  void set_host_state(Host& h, HostState to);

  /// Records `h` in the fleet dirty journal and on the node-class queue
  /// (each deduplicated by its own flag).
  void mark_dirty(HostId h);
  /// Re-classifies the hosts on the node-class queue and adjusts the
  /// counts by their class-bit deltas.
  void settle_node_counts() const;

  /// Integrates progress and recomputes shares/power on a host.
  void reallocate(HostId h);
  /// Integrates operation progress and recomputes the dom0 I/O-channel
  /// shares; reschedules the operations' completion events.
  void reallocate_io(HostId h);
  void integrate_progress(Vm& v);
  void reschedule_finish(Vm& v);
  void finish_vm(VmId v);
  void remove_resident(Host& h, VmId v);
  void remove_op(Host& h, Operation::Kind kind, VmId v);
  void update_power(Host& h);
  void update_node_counters();
  void schedule_failure(HostId h);
  void cancel_failure(HostId h);
  void fail_host(HostId h);
  /// Returns a VM lost with a failed host to the queue: progress rolls back
  /// to its last checkpoint.
  void requeue_lost(Vm& m);
  void maybe_checkpoint(Vm& v);
  double draw_duration(double mean_s);

  // ---- the operation lifecycle (op_lifecycle.hpp) -------------------------
  /// A fault outcome applied to an operation of a given duration.
  struct Injected {
    double duration_s;
    bool fails = false;  ///< takes the failure path at its (shortened) end
    bool hangs = false;  ///< only its deadline ends it
  };
  /// The one injection point: draws the injector's outcome for `op` on
  /// host `h`, traces an injected one as a single `fault-injected` event
  /// (VM-scoped unless `v` is kNoVm) and applies it to `duration_s`.
  /// Without an injector the operation proceeds as drawn.
  Injected inject(faults::FaultOp op, HostId h, VmId v, double duration_s);
  /// The breaker's start note and the start trace, as `row` says.
  void begin_op(const OpRow& row, HostId h, VmId v, HostId src = kNoHost);
  /// The one start path of a VM operation on `h` (a migration's
  /// destination; `src` is its source): draws, injects, arms the deadline,
  /// pushes the operation and re-shares the dom0 I/O channel.
  void start_op(const OpRow& row, VmId v, HostId h, double overhead_cpu_pct,
                HostId src = kNoHost);
  /// A VM operation's completion or deadline event: removes the operation
  /// and finishes or fails it.
  void end_op(HostId h, Operation::Kind leg, VmId v, bool deadline);
  /// The one start path of a power operation on `h`: begins it, injects,
  /// and posts its end as the host's transition_event. With an injector
  /// attached the end comes at the deadline, `op_timeout_factor` x its
  /// mean, if the operation hung or would run that long: it then fails as
  /// a timeout.
  void start_transition(const OpRow& row, HostId h);
  /// The one finish path: settles the operation's state, traces its span,
  /// notes the breaker and fires the driver callback, as `row` says.
  void finish_op(const OpRow& row, HostId h, VmId v, sim::SimTime started);
  /// The one fail path (`timed_out`: aborted by its deadline): rolls the
  /// operation back and charges the failure to the host.
  void fail_op(const OpRow& row, HostId h, VmId v, bool timed_out);
  /// Charges one fault against `h`'s failure budget; quarantines the host
  /// when the budget is exceeded and schedules the cooldown.
  void note_host_fault(HostId h);

  sim::Simulator& sim_;
  DatacenterConfig config_;
  metrics::Recorder& recorder_;
  support::Rng rng_;
  std::vector<Host> hosts_;
  std::vector<Vm> vms_;
  std::vector<sim::EventId> failure_events_;
  FailureModel failure_model_;

  // Fleet dirty journal (see drain_fleet_dirty): `mutable` because the
  // drain is a const query from the scheduling policy's point of view.
  mutable std::vector<HostId> fleet_dirty_;
  mutable std::vector<unsigned char> fleet_dirty_flag_;

  // Node-class counts (see online_count()): per-host class bits, one count
  // per class, and the queue of hosts to re-classify on the next read. A
  // second queue, not the fleet journal, because FleetState::refresh() is
  // that journal's single consumer. `mutable` because reads settle it.
  enum NodeClass : unsigned char {
    kOnline,
    kWorking,
    kBooting,
    kQuarantinedOn,
    kNumNodeClasses,
  };
  mutable std::vector<unsigned char> node_class_;
  mutable int node_counts_[kNumNodeClasses] = {};
  mutable std::vector<HostId> node_dirty_;
  mutable std::vector<unsigned char> node_dirty_flag_;

  // Water-filling scratch for reallocate(), reused across calls: at fleet
  // scale the per-call vectors were a measurable slice of the event
  // kernel. Safe because reallocate() never re-enters itself.
  std::vector<CpuDemand> xen_demands_;
  std::vector<VmId> xen_running_;
  XenScratch xen_scratch_;
  XenAllocation xen_alloc_;
};

}  // namespace easched::datacenter
