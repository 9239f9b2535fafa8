#include "policies/dynamic_backfilling.hpp"

#include <algorithm>

#include "policies/placement_common.hpp"

namespace easched::policies {

using datacenter::Datacenter;
using datacenter::HostId;
using datacenter::HostState;
using datacenter::VmId;
using datacenter::VmState;

std::vector<sched::Action> DynamicBackfillingPolicy::schedule(
    const sched::SchedContext& ctx) {
  // Phase 1: place the queue exactly like BF.
  std::vector<sched::Action> actions = BackfillingPolicy::schedule(ctx);
  if (!actions.empty()) return actions;  // consolidate only in quiet rounds

  // Migration sweeps are periodic, like the score-based policy's.
  const double now = ctx.dc.simulator().now();
  if (now - last_consolidation_ < consolidation_period_s_) return actions;

  // Phase 2: consolidation sweep. Candidate donor = the working host with
  // the lowest occupation whose entire VM set fits elsewhere.
  const Datacenter& dc = ctx.dc;
  std::vector<HostId> working;
  for (HostId h = 0; h < dc.num_hosts(); ++h) {
    const auto& host = dc.host(h);
    if (!dc.placeable(h)) continue;
    if (host.residents.empty() || !host.ops.empty()) continue;
    // Only steady hosts (every resident running) are donors/receivers.
    bool steady = true;
    for (VmId v : host.residents) {
      if (dc.vm(v).state != VmState::kRunning) steady = false;
    }
    if (steady) working.push_back(h);
  }
  if (working.size() < 2) return actions;

  std::sort(working.begin(), working.end(), [&](HostId a, HostId b) {
    return dc.occupation(a) < dc.occupation(b);
  });

  const HostId donor = working.front();
  std::vector<VmId> movers = dc.host(donor).residents;
  if (static_cast<int>(movers.size()) > max_migrations_per_round_)
    return actions;
  last_consolidation_ = now;

  // Tentatively best-fit every mover into the *other* working hosts,
  // tracking hypothetical loads; abort unless the donor empties fully
  // (partial evictions don't let the controller switch anything off).
  std::vector<double> extra_cpu(dc.num_hosts(), 0.0);
  std::vector<double> extra_mem(dc.num_hosts(), 0.0);
  std::vector<sched::Action> moves;
  for (VmId v : movers) {
    const auto& job = dc.vm(v).job;
    HostId best = datacenter::kNoHost;
    double best_occ = -1;
    for (std::size_t i = 1; i < working.size(); ++i) {
      const HostId h = working[i];
      if (!dc.hw_sw_ok(h, v)) continue;
      const auto& spec = dc.host(h).spec;
      const double cpu = dc.reserved_cpu_pct(h) + extra_cpu[h] + job.cpu_pct;
      const double mem = dc.reserved_mem_mb(h) + extra_mem[h] + job.mem_mb;
      const double occ =
          std::max(cpu / spec.cpu_capacity_pct, mem / spec.mem_mb);
      if (occ > 1.0 + 1e-9) continue;
      if (occ > best_occ) {
        best_occ = occ;
        best = h;
      }
    }
    if (best == datacenter::kNoHost) return actions;  // donor can't empty
    extra_cpu[best] += job.cpu_pct;
    extra_mem[best] += job.mem_mb;
    moves.push_back(sched::Action::migrate(v, best));
  }
  actions.insert(actions.end(), moves.begin(), moves.end());
  return actions;
}

}  // namespace easched::policies
