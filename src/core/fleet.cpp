#include "core/fleet.hpp"

#include <algorithm>

#include "datacenter/datacenter.hpp"
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
  band_count_.assign(kBands, 0);
  band_of_host_.assign(num_hosts, -1);
}

int HostBucketIndex::band_of(double free_cpu_pct) {
  if (free_cpu_pct < 0) return -1;
  const int b = static_cast<int>(free_cpu_pct / kBandWidthPct);
  return b >= kBands ? kBands - 1 : b;
}

void HostBucketIndex::update(HostId h, const FleetSnapshot& snap) {
  free_cpu_[h] = FleetState::expected_free_cpu(snap, h);
  free_mem_[h] = FleetState::expected_free_mem(snap, h);
  const int band = band_of(free_cpu_[h]);
  if (band != band_of_host_[h]) {
    if (band_of_host_[h] >= 0) --band_count_[band_of_host_[h]];
    if (band >= 0) ++band_count_[band];
    band_of_host_[h] = static_cast<std::int8_t>(band);
  }
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

int HostBucketIndex::candidate_upper_bound(double cpu_need_pct) const {
  int band = band_of(std::max(cpu_need_pct, 0.0));
  if (band < 0) band = 0;
  int count = 0;
  for (int b = band; b < kBands; ++b) count += band_count_[b];
  return count;
}

void HostBucketIndex::debug_corrupt(HostId h, double delta) {
  free_cpu_[h] += delta;
}

double FleetState::expected_free_cpu(const FleetSnapshot& snap, HostId h) {
  if (snap.placeable[h] == 0) return -1.0;
  return snap.cpu_cap[h] * kFleetOverMargin - snap.cpu_res[h];
}

double FleetState::expected_free_mem(const FleetSnapshot& snap, HostId h) {
  if (snap.placeable[h] == 0) return -1.0;
  return snap.mem_cap[h] * kFleetOverMargin - snap.mem_res[h];
}

void FleetState::refresh(const Datacenter& dc,
                         const std::vector<VmId>& queued) {
  const sim::SimTime now = dc.simulator().now();
  const std::size_t n = dc.num_hosts();
  ++stats_.refreshes;

  dirty_scratch_.clear();
  const auto mark = [this](HostId h) {
    if (dirty_flag_[h] != 0) return;
    dirty_flag_[h] = 1;
    dirty_scratch_.push_back(h);
  };

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
    //    last round (reallocations, power transitions, maintenance and
    //    quarantine flips, debug mutations).
    journal_scratch_.clear();
    dc.drain_fleet_dirty(journal_scratch_);
    for (const HostId h : journal_scratch_) mark(h);
    // 2. Out-of-band dirt the journal cannot see:
    //    - circuit breakers flip dc.placeable(h) from inside the
    //      resilience controller, without touching the Datacenter;
    //    - Σ max(0, op.ends - now) ages with the clock, so any host with
    //      in-flight operations (or a stale nonzero snapshot of them) must
    //      be re-read every round.
    for (HostId h = 0; h < n; ++h) {
      if (dirty_flag_[h] != 0) continue;
      if ((snap_.placeable[h] != 0) != dc.placeable(h)) {
        mark(h);
      } else if (!dc.host(h).ops.empty() || snap_.conc_remaining_s[h] != 0 ||
                 snap_.mgmt_demand[h] != 0) {
        mark(h);
      }
    }
  }

  for (const HostId h : dirty_scratch_) {
    read_host(dc, h, now, snap_);
    index_.update(h, snap_);
    dirty_flag_[h] = 0;
  }
  stats_.last_reread = dirty_scratch_.size();
  stats_.hosts_reread += dirty_scratch_.size();

  // 3. Persistent columns: drop VMs that left the queue, then invalidate
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
  const sim::SimTime now = dc.simulator().now();
  const std::size_t n = dc.num_hosts();
  reset(n);
  for (HostId h = 0; h < n; ++h) {
    read_host(dc, h, now, snap_);
    index_.update(h, snap_);
  }
}

void FleetState::reset(std::size_t n) {
  snap_.resize(n);
  index_.reset(n);
  dirty_flag_.assign(n, 0);
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
}

void FleetState::debug_corrupt_index(HostId h, double delta) {
  EA_EXPECTS(h < index_.size());
  index_.debug_corrupt(h, delta);
}

}  // namespace easched::core
