// Helpers shared by the baseline policies.
#pragma once

#include <vector>

#include "datacenter/datacenter.hpp"
#include "sched/policy.hpp"

namespace easched::policies {

/// Hosts currently accepting placements (state On).
std::vector<datacenter::HostId> on_hosts(const datacenter::Datacenter& dc);

/// Best-fit choice: among On hosts where `v` fully fits (occupation <= 1),
/// the one whose occupation after placing `v` is highest — i.e. the
/// tightest fill, which is what consolidates. A placed VM's current host is
/// skipped, so the choice is a migration target. Returns kNoHost if none
/// fits.
datacenter::HostId best_fit_host(const datacenter::Datacenter& dc,
                                 datacenter::VmId v);

}  // namespace easched::policies
