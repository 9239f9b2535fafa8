// Runtime state of a physical machine.
//
// Power states: Off -> Booting -> On -> ShuttingDown -> Off, plus Failed
// (crash under the failure model; repairs return the node to Off). Only On
// hosts accept placements. Management operations (VM creation, incoming /
// outgoing migration legs, checkpoints) are tracked per host because they
// consume dom0 CPU and feed the paper's concurrency penalty Pconc.
#pragma once

#include <vector>

#include "datacenter/host_spec.hpp"
#include "datacenter/ids.hpp"
#include "sim/event_queue.hpp"

namespace easched::datacenter {

enum class HostState : std::uint8_t {
  kOff,
  kBooting,
  kOn,
  kShuttingDown,
  kFailed,
};

const char* to_string(HostState state) noexcept;

/// An in-flight management operation on a host.
///
/// Operations race for the host's dom0 I/O channel (the paper:
/// "performing more than one action at the same time can generate a race
/// for the resources (e.g. disk, CPU) which will add an additional
/// overhead", section III-A.3): `n` concurrently active operations each
/// progress at 1/n of full speed, so a creation drawn at 40 s takes 80 s
/// when another creation runs beside it. This is what the Pconc penalty
/// pays off against. A kMigrateOut leg is passive — the transfer is paced
/// by the receiving host — but still burns dom0 CPU on the source.
struct Operation {
  enum class Kind : std::uint8_t {
    kCreate,       ///< creating `vm` here
    kMigrateIn,    ///< receiving `vm`
    kMigrateOut,   ///< sending `vm` away (passive leg)
    kCheckpoint,   ///< checkpointing `vm`
  };
  Kind kind = Kind::kCreate;
  VmId vm = 0;
  double overhead_cpu_pct = 0;  ///< dom0 CPU consumed while in flight
  sim::SimTime started = 0;
  sim::SimTime ends = 0;        ///< projected completion (updated on stretch)
  sim::EventId event = sim::kNoEvent;

  // Fault-injection state (see faults/fault_injector.hpp). A hung op burns
  // dom0 CPU but makes no progress and schedules no completion — only its
  // deadline can end it. An op with injected_fail set completes its
  // (shortened) work and then takes the failure path instead of the
  // success path.
  bool hung = false;
  bool injected_fail = false;
  sim::EventId deadline_event = sim::kNoEvent;  ///< abort-at-timeout

  // I/O-channel progress bookkeeping (active ops only).
  double work_s = 0;            ///< full-speed duration drawn at start
  double done_s = 0;            ///< progressed work
  double rate = 1.0;            ///< current speed (1 = full)
  sim::SimTime last_update = 0;

  /// Whether this operation competes for the dom0 I/O channel.
  [[nodiscard]] bool io_active() const {
    return kind != Kind::kMigrateOut;
  }
  [[nodiscard]] double remaining_s() const {
    const double r = work_s - done_s;
    return r > 0 ? r : 0;
  }
};

struct Host {
  HostId id = 0;
  HostSpec spec;
  HostState state = HostState::kOff;
  /// Maintenance (drain) mode: the host accepts no new placements; the
  /// driver migrates its residents away and powers it off once empty.
  bool maintenance = false;
  /// Quarantine (degraded mode): the host exceeded its failure budget and
  /// is excluded from placement and power-on choices until the cooldown
  /// un-quarantines it; the driver evacuates its residents meanwhile.
  bool quarantined = false;

  /// VMs assigned here: Creating, Running, and incoming Migrating VMs.
  /// (An outgoing migration keeps only a memory reservation, tracked via
  /// the kMigrateOut operation.)
  std::vector<VmId> residents;
  std::vector<Operation> ops;

  double used_cpu_pct = 0;  ///< current allocation total (drives power)
  sim::EventId transition_event = sim::kNoEvent;  ///< boot/shutdown end

  // Failure-budget bookkeeping for the quarantine state machine: faults
  // attributed to this host within the sliding window, and the pending
  // cooldown event while quarantined.
  int fault_count = 0;
  sim::SimTime fault_window_start = 0;
  sim::EventId unquarantine_event = sim::kNoEvent;

  [[nodiscard]] bool is_online() const {
    return state == HostState::kOn || state == HostState::kBooting;
  }
  /// Accepts new placements / incoming migrations.
  [[nodiscard]] bool is_placeable() const {
    return state == HostState::kOn && !maintenance && !quarantined;
  }
  /// "Working" in the paper's sense: executing at least one VM (we include
  /// hosts busy with management operations, which also keep them non-idle).
  [[nodiscard]] bool is_working() const {
    return !residents.empty() || !ops.empty();
  }
  /// Eligible for a power-off decision.
  [[nodiscard]] bool is_idle_on() const {
    return state == HostState::kOn && residents.empty() && ops.empty();
  }
  [[nodiscard]] std::size_t vm_count() const { return residents.size(); }

  /// Aggregate dom0 demand of in-flight operations.
  [[nodiscard]] double mgmt_demand_pct() const {
    double d = 0;
    for (const auto& op : ops) d += op.overhead_cpu_pct;
    return d;
  }
};

}  // namespace easched::datacenter
