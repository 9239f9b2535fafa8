#include "core/fleet.hpp"

#include <algorithm>

#include "datacenter/datacenter.hpp"
#include "resilience/resilience.hpp"
#include "support/contracts.hpp"

namespace easched::core {

using datacenter::Datacenter;
using datacenter::HostId;
using datacenter::VmId;
using datacenter::VmState;

void FleetSnapshot::resize(std::size_t n) {
  placeable.assign(n, 0);
  cpu_cap.assign(n, 0.0);
  mem_cap.assign(n, 0.0);
  cpu_res.assign(n, 0.0);
  mem_res.assign(n, 0.0);
  vm_count.assign(n, 0);
  running_demand.assign(n, 0.0);
  mgmt_demand.assign(n, 0.0);
  conc_remaining_s.assign(n, 0.0);
  creation_cost.assign(n, 0.0);
  migration_cost.assign(n, 0.0);
  reliability.assign(n, 1.0);
  arch.assign(n, workload::Arch{});
  software.assign(n, 0);
}

void HostBucketIndex::reset(std::size_t num_hosts) {
  free_cpu_.assign(num_hosts, -1.0);
  free_mem_.assign(num_hosts, -1.0);
  const std::size_t nblocks =
      (num_hosts + kArgminBlock - 1) / static_cast<std::size_t>(kArgminBlock);
  block_free_cpu_.assign(nblocks, -1.0);
  block_free_mem_.assign(nblocks, -1.0);
}

void HostBucketIndex::update(HostId h, const FleetSnapshot& snap) {
  set(h, FleetState::expected_free_cpu(snap, h),
      FleetState::expected_free_mem(snap, h));
}

void HostBucketIndex::set(HostId h, double free_cpu, double free_mem) {
  free_cpu_[h] = free_cpu;
  free_mem_[h] = free_mem;
  rebuild_block(static_cast<int>(h) / kArgminBlock);
}

void HostBucketIndex::rebuild_block(int blk) {
  const int lo = blk * kArgminBlock;
  const int hi =
      std::min(static_cast<int>(free_cpu_.size()), lo + kArgminBlock);
  double best_cpu = -1.0;
  double best_mem = -1.0;
  for (int h = lo; h < hi; ++h) {
    best_cpu = std::max(best_cpu, free_cpu_[static_cast<std::size_t>(h)]);
    best_mem = std::max(best_mem, free_mem_[static_cast<std::size_t>(h)]);
  }
  block_free_cpu_[static_cast<std::size_t>(blk)] = best_cpu;
  block_free_mem_[static_cast<std::size_t>(blk)] = best_mem;
}

void HostBucketIndex::debug_corrupt(HostId h, double delta) {
  free_cpu_[h] += delta;
}

double FleetState::expected_free_cpu(const FleetSnapshot& snap, HostId h) {
  return free_margin(snap.placeable[h] != 0, snap.cpu_cap[h], snap.cpu_res[h]);
}

double FleetState::expected_free_mem(const FleetSnapshot& snap, HostId h) {
  return free_margin(snap.placeable[h] != 0, snap.mem_cap[h], snap.mem_res[h]);
}

void FleetState::refresh(const Datacenter& dc,
                         const std::vector<VmId>& queued) {
  const std::size_t n = dc.num_hosts();
  ++stats_.refreshes;

  dirty_scratch_.clear();
  const auto mark = [this](HostId h) {
    if (dirty_flag_[h] != 0) return;
    dirty_flag_[h] = 1;
    dirty_scratch_.push_back(h);
  };

  std::uint64_t visited = 0;  // hosts examined outside the journal
  if (snap_.size() != n) {
    // First refresh (or a fleet-size change): full (re)initialization.
    reset(n);
    journal_scratch_.clear();
    dc.drain_fleet_dirty(journal_scratch_);  // flush the stale backlog
    journal_scratch_.clear();
    dirty_scratch_.reserve(n);
    for (HostId h = 0; h < n; ++h) mark(h);
  } else {
    // 1. Event-driven dirt: everything the Datacenter journalled since the
    //    last round (reallocations, operation starts and ends, power
    //    transitions, maintenance and quarantine flips, debug mutations).
    journal_scratch_.clear();
    dc.drain_fleet_dirty(journal_scratch_);
    for (const HostId h : journal_scratch_) mark(h);
    // 2. Busy hosts: Σ max(0, op.ends - now) ages with the clock, so a
    //    host whose last read saw operations is re-read every round. A
    //    host that was idle then cannot have gained one since without
    //    being journalled (every operation start goes through
    //    reallocate_io or reallocate).
    visited += busy_.size();
    for (const HostId h : busy_) mark(h);
    // 3. Breaker vetoes: circuit breakers flip dc.placeable(h) from inside
    //    the resilience controller, without touching the Datacenter, and
    //    the half-open probe delay elapses with the clock alone. Only a
    //    host whose breaker is not Healthy can be vetoed, so re-checking
    //    the hosts not Healthy now or at the last refresh covers every
    //    flip since.
    const auto recheck = [&](HostId h) {
      ++visited;
      if (dirty_flag_[h] == 0 &&
          (snap_.placeable[h] != 0) != dc.placeable(h)) {
        mark(h);
      }
    };
    for (const HostId h : veto_watch_) recheck(h);
    if (const auto* rc = resilience::controller(dc.recorder())) {
      for (const HostId h : rc->not_healthy_hosts()) recheck(h);
    }
  }
  stats_.last_out_of_band = visited;

  read_dirty(dc);
  stats_.last_reread = dirty_scratch_.size();
  stats_.hosts_reread += dirty_scratch_.size();

  // 4. Persistent columns: drop VMs that left the queue, then invalidate
  //    the dirty hosts' cells in the survivors.
  queued_scratch_.assign(queued.begin(), queued.end());
  std::sort(queued_scratch_.begin(), queued_scratch_.end());
  for (auto it = cols_.begin(); it != cols_.end();) {
    if (!std::binary_search(queued_scratch_.begin(), queued_scratch_.end(),
                            it->first)) {
      it = cols_.erase(it);
      ++stats_.cols_dropped;
    } else {
      ++it;
    }
  }
  if (!cols_.empty()) {
    for (auto& [vm, col] : cols_) {
      (void)vm;
      for (const HostId h : dirty_scratch_) col.ok[h] = 0;
    }
  }
}

void FleetState::read_all(const Datacenter& dc) {
  const std::size_t n = dc.num_hosts();
  reset(n);
  dirty_scratch_.clear();
  for (HostId h = 0; h < n; ++h) dirty_scratch_.push_back(h);
  read_dirty(dc);
}

void FleetState::read_dirty(const Datacenter& dc) {
  const sim::SimTime now = dc.simulator().now();
  ++read_epoch_;
  busy_.clear();
  for (const HostId h : dirty_scratch_) {
    read_host(dc, h, now, snap_);
    index_.update(h, snap_);
    dirty_flag_[h] = 0;
    read_stamp_[h] = read_epoch_;
    // Every host that was busy at its last read is in this round's dirty
    // set, so rebuilding the busy set from the hosts read here is exact.
    if (!dc.host(h).ops.empty() || snap_.conc_remaining_s[h] != 0 ||
        snap_.mgmt_demand[h] != 0) {
      busy_.push_back(h);
    }
  }
  veto_watch_.clear();
  if (const auto* rc = resilience::controller(dc.recorder())) {
    veto_watch_.assign(rc->not_healthy_hosts().begin(),
                       rc->not_healthy_hosts().end());
  }
}

void FleetState::reset(std::size_t n) {
  snap_.resize(n);
  index_.reset(n);
  dirty_flag_.assign(n, 0);
  read_stamp_.assign(n, 0);
  busy_.clear();
  veto_watch_.clear();
  cols_.clear();
  queued_scratch_.clear();
}

void FleetState::read_host(const Datacenter& dc, HostId h, sim::SimTime now,
                           FleetSnapshot& snap) {
  const auto& host = dc.host(h);
  snap.placeable[h] = dc.placeable(h) ? 1 : 0;
  snap.cpu_cap[h] = host.spec.cpu_capacity_pct;
  snap.mem_cap[h] = host.spec.mem_mb;
  snap.cpu_res[h] = dc.reserved_cpu_pct(h);
  snap.mem_res[h] = dc.reserved_mem_mb(h);
  snap.vm_count[h] = static_cast<int>(host.vm_count());
  snap.mgmt_demand[h] = host.mgmt_demand_pct();
  double conc = 0;
  for (const auto& op : host.ops) conc += std::max(0.0, op.ends - now);
  snap.conc_remaining_s[h] = conc;
  double running = 0;
  for (const VmId v : host.residents) {
    if (dc.vm(v).state == VmState::kRunning) {
      running += dc.vm(v).cpu_demand_pct;
    }
  }
  snap.running_demand[h] = running;
  snap.creation_cost[h] = host.spec.creation_cost_s;
  snap.migration_cost[h] = host.spec.migration_cost_s;
  snap.reliability[h] = host.spec.reliability;
  snap.arch[h] = host.spec.arch;
  snap.software[h] = host.spec.software;
}

FleetColCache* FleetState::col_cache(VmId v, std::size_t num_hosts) {
  FleetColCache& col = cols_[v];
  if (col.by_host.size() != num_hosts) {
    col.by_host.assign(num_hosts, 0.0);
    col.ok.assign(num_hosts, 0);
  }
  return &col;
}

void FleetState::debug_corrupt_snapshot(HostId h, double delta) {
  EA_EXPECTS(h < snap_.size());
  snap_.cpu_res[h] += delta;
  read_stamp_[h] = ++read_epoch_;  // the entry changed under its stamp
}

void FleetState::debug_corrupt_index(HostId h, double delta) {
  EA_EXPECTS(h < index_.size());
  index_.debug_corrupt(h, delta);
}

}  // namespace easched::core
