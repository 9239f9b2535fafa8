#include "policies/backfilling.hpp"

#include <algorithm>

#include "policies/placement_common.hpp"

namespace easched::policies {

using datacenter::Datacenter;
using datacenter::HostId;
using datacenter::HostState;
using datacenter::VmId;

std::vector<datacenter::HostId> on_hosts(const Datacenter& dc) {
  std::vector<HostId> out;
  out.reserve(dc.num_hosts());
  for (HostId h = 0; h < dc.num_hosts(); ++h) {
    if (dc.placeable(h)) out.push_back(h);
  }
  return out;
}

HostId best_fit_host(const Datacenter& dc, VmId v) {
  HostId best = datacenter::kNoHost;
  double best_occ = -1;
  for (HostId h = 0; h < dc.num_hosts(); ++h) {
    if (h == dc.vm(v).host || !dc.fits(h, v)) continue;
    const double occ = dc.occupation_if(h, v);
    if (occ > best_occ) {
      best_occ = occ;
      best = h;
    }
  }
  return best;
}

std::vector<sched::Action> BackfillingPolicy::schedule(
    const sched::SchedContext& ctx) {
  std::vector<sched::Action> actions;
  if (ctx.queue.empty()) return actions;
  // Hypothetical reservations made this round must be visible to later
  // queue entries; track them locally.
  std::vector<double> extra_cpu(ctx.dc.num_hosts(), 0.0);
  std::vector<double> extra_mem(ctx.dc.num_hosts(), 0.0);

  for (VmId v : ctx.queue) {
    const auto& job = ctx.dc.vm(v).job;
    HostId best = datacenter::kNoHost;
    double best_occ = -1;
    for (HostId h = 0; h < ctx.dc.num_hosts(); ++h) {
      if (!ctx.dc.placeable(h)) continue;
      if (!ctx.dc.hw_sw_ok(h, v)) continue;
      const auto& spec = ctx.dc.host(h).spec;
      const double cpu =
          ctx.dc.reserved_cpu_pct(h) + extra_cpu[h] + job.cpu_pct;
      const double mem =
          ctx.dc.reserved_mem_mb(h) + extra_mem[h] + job.mem_mb;
      const double occ =
          std::max(cpu / spec.cpu_capacity_pct, mem / spec.mem_mb);
      if (occ > 1.0 + 1e-9) continue;
      if (occ > best_occ) {
        best_occ = occ;
        best = h;
      }
    }
    if (best == datacenter::kNoHost) continue;  // waits for capacity
    extra_cpu[best] += job.cpu_pct;
    extra_mem[best] += job.mem_mb;
    actions.push_back(sched::Action::place(v, best));
  }
  return actions;
}

}  // namespace easched::policies
