#include "policies/round_robin.hpp"

#include "policies/placement_common.hpp"

namespace easched::policies {

std::vector<sched::Action> RoundRobinPolicy::schedule(
    const sched::SchedContext& ctx) {
  std::vector<sched::Action> actions;
  if (ctx.queue.empty()) return actions;
  const auto hosts = on_hosts(ctx.dc);
  if (hosts.empty()) return actions;

  // Track hypothetical memory commitments within this round so a burst of
  // queued VMs spreads instead of all landing on the same cursor position.
  std::vector<double> extra_mem(ctx.dc.num_hosts(), 0.0);

  for (datacenter::VmId v : ctx.queue) {
    const auto& job = ctx.dc.vm(v).job;
    for (std::size_t step = 0; step < hosts.size(); ++step) {
      cursor_ = (cursor_ + 1) % hosts.size();
      const datacenter::HostId h = hosts[cursor_];
      if (!ctx.dc.hw_sw_ok(h, v)) continue;
      const double mem =
          ctx.dc.reserved_mem_mb(h) + extra_mem[h] + job.mem_mb;
      if (mem > ctx.dc.host(h).spec.mem_mb) continue;
      extra_mem[h] += job.mem_mb;
      actions.push_back(sched::Action::place(v, h));
      break;
    }
  }
  return actions;
}

}  // namespace easched::policies
