#include "sched/power_controller.hpp"

#include <algorithm>

#include "resilience/resilience.hpp"
#include "support/contracts.hpp"

namespace easched::sched {

namespace {

using datacenter::Datacenter;
using datacenter::HostId;
using datacenter::HostState;

std::vector<HostId> hosts_off(const Datacenter& dc) {
  auto* rc = resilience::controller(dc.recorder());
  std::vector<HostId> out;
  for (HostId h = 0; h < dc.num_hosts(); ++h) {
    const auto& host = dc.host(h);
    if (host.state == HostState::kOff && !host.maintenance &&
        !host.quarantined &&
        (rc == nullptr || rc->allows_power_on(h))) {
      out.push_back(h);
    }
  }
  return out;
}

std::vector<HostId> hosts_idle_on(const Datacenter& dc) {
  std::vector<HostId> out;
  for (HostId h = 0; h < dc.num_hosts(); ++h) {
    if (dc.host(h).is_idle_on() && !dc.host(h).maintenance) out.push_back(h);
  }
  return out;
}

/// True when some queued VM fits no currently online host (booting hosts
/// count as "will fit soon", so only fully online hosts are checked but a
/// booting host suppresses the forced turn-on to avoid over-provisioning).
bool queue_starved(const SchedContext& ctx) {
  if (ctx.queue.empty() || ctx.dc.booting_count() > 0) return false;
  for (datacenter::VmId v : ctx.queue) {
    bool placeable = false;
    for (HostId h = 0; h < ctx.dc.num_hosts(); ++h) {
      if (ctx.dc.fits(h, v)) {
        placeable = true;
        break;
      }
    }
    if (!placeable) return true;
  }
  return false;
}

}  // namespace

void PowerController::update(const SchedContext& ctx, Datacenter& dc,
                             Policy& policy) {
  if (!config_.enabled) return;

  // The node counts are maintained by the Datacenter, so deciding whether
  // a side acts is O(1); its candidate list is built only once it does.
  // Turning a host on changes no On host, so a lazily built list is the
  // one an eager build at the top would have produced.
  int online = dc.online_count();
  const int working = dc.working_count();
  const bool demand = working > 0 || !ctx.queue.empty();

  // Turn-on side: ratio above lambda_max, nothing online at all while work
  // exists, or a queued VM that fits nowhere. Starvation is checked only
  // when the ratio asks for nothing: a power-on leaves a host booting,
  // which rules it out, and with no off host neither rule can act.
  const auto wants_on = [&] {
    return demand &&
           (online < config_.minexec || online == 0 ||
            static_cast<double>(working) / online > config_.lambda_max);
  };
  const auto power_on_one = [&](std::vector<HostId>& off) {
    const HostId h = policy.choose_power_on(ctx, off);
    const auto it = std::find(off.begin(), off.end(), h);
    EA_ASSERT(it != off.end());  // a pick outside the list is a policy bug
    dc.power_on(h);
    off.erase(it);
    ++online;
  };
  if (wants_on()) {
    auto off = hosts_off(dc);
    while (!off.empty() && wants_on()) power_on_one(off);
  } else if (queue_starved(ctx)) {
    auto off = hosts_off(dc);
    if (!off.empty()) power_on_one(off);
  }

  // Turn-off side: only idle nodes, never below minexec, and never while
  // VMs wait in the queue (they are about to need the capacity).
  if (!ctx.queue.empty()) return;
  const auto wants_off = [&] {
    return online > config_.minexec && online > 0 &&
           static_cast<double>(working) / online < config_.lambda_min;
  };
  if (!wants_off()) return;
  auto idle = hosts_idle_on(dc);
  if (idle.empty()) return;
  ++dc.recorder().counts.power_off_passes;  // the loop picks at least once
  while (!idle.empty() && wants_off()) {
    const HostId h = policy.choose_power_off(ctx, idle);
    const auto it = std::find(idle.begin(), idle.end(), h);
    EA_ASSERT(it != idle.end());
    dc.power_off(h);
    idle.erase(it);
    --online;
  }
}

}  // namespace easched::sched
