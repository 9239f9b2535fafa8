// Runtime state of a virtual machine (one VM encapsulates one HPC job).
//
// Lifecycle:
//   Queued -> Creating -> Running -> Finished
//                 ^          |  ^
//                 |          v  |        (migration pauses execution for
//                 |      Migrating        the transfer, section III-A.3)
//                 |          |
//                 +----------+-- host failure requeues the VM, restoring
//                                the last checkpoint if one exists (III-C)
#pragma once

#include "datacenter/ids.hpp"
#include "sim/event_queue.hpp"
#include "workload/job.hpp"

namespace easched::datacenter {

enum class VmState : std::uint8_t {
  kQueued,     ///< waiting in the scheduler's virtual host
  kCreating,   ///< being created on `host`
  kRunning,    ///< executing on `host`
  kMigrating,  ///< moving from `migration_source` to `host`
  kFinished,   ///< job completed
};

const char* to_string(VmState state) noexcept;

struct Vm {
  VmId id = 0;
  workload::Job job;
  VmState state = VmState::kQueued;

  /// Current host (destination host while migrating); kNoHost when queued.
  HostId host = kNoHost;
  /// Source host while migrating, kNoHost otherwise.
  HostId migration_source = kNoHost;

  /// Dedicated-machine-equivalent seconds of work completed / checkpointed.
  double work_done_s = 0;
  double work_checkpointed_s = 0;

  /// Xen-allocated CPU [% of one core] from the latest reallocate(); feeds
  /// the energy ledger's per-VM share split. Only meaningful while
  /// kRunning.
  double alloc_cpu_pct = 0;

  /// Progress bookkeeping: work accrues at `progress_rate` (dedicated
  /// seconds per wall second, in [0,1]) since `last_progress_update`.
  double progress_rate = 0;
  sim::SimTime last_progress_update = 0;
  sim::EventId finish_event = sim::kNoEvent;
  sim::SimTime finish_at = 0;  ///< time finish_event was posted at

  sim::SimTime finished_at = -1;
  int restarts = 0;            ///< times requeued after a host failure
  int migrations = 0;

  [[nodiscard]] double remaining_work_s() const {
    const double r = job.dedicated_seconds - work_done_s;
    return r > 0 ? r : 0;
  }
  [[nodiscard]] bool is_active() const {
    return state != VmState::kFinished;
  }
};

}  // namespace easched::datacenter
