#include "validate/invariant_checker.hpp"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

#include "core/fleet.hpp"
#include "core/score_matrix.hpp"
#include "datacenter/datacenter.hpp"
#include "datacenter/vm.hpp"

namespace easched::validate {
namespace {

using datacenter::Datacenter;
using datacenter::Host;
using datacenter::HostId;
using datacenter::HostState;
using datacenter::kNoHost;
using datacenter::Vm;
using datacenter::VmId;
using datacenter::VmState;

/// printf-style message builder; violations are rare, so the allocation
/// here is off every hot path.
std::string msg(const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  return std::string{buf};
}

/// Absolute slack for comparing recorded watts against the power model:
/// both sides run the same arithmetic, so anything beyond rounding noise
/// is a real divergence.
constexpr double kWattsTol = 1e-6;
/// Relative slack for integral aggregation (sums of many products).
constexpr double kIntegralRelTol = 1e-6;

}  // namespace

const char* to_string(Rule rule) noexcept {
  switch (rule) {
    case Rule::kVmConservation:
      return "vm-conservation";
    case Rule::kCapacity:
      return "capacity";
    case Rule::kPowerLegality:
      return "power-legality";
    case Rule::kScoreCache:
      return "score-cache";
    case Rule::kEventMonotonicity:
      return "event-monotonicity";
    case Rule::kEnergyConsistency:
      return "energy-consistency";
    case Rule::kLadderTransition:
      return "ladder-transition";
    case Rule::kBreakerTransition:
      return "breaker-transition";
    case Rule::kFleetSnapshot:
      return "fleet-snapshot";
    case Rule::kFleetIndex:
      return "fleet-index";
    case Rule::kNodeCounts:
      return "node-counts";
  }
  return "?";
}

InvariantChecker::InvariantChecker(CheckerConfig config) : config_(config) {}

void InvariantChecker::clear() {
  violations_.clear();
  for (auto& c : rule_counts_) c = 0;
  checks_ = 0;
  last_event_t_ = 0;
}

bool InvariantChecker::transition_legal(HostState from,
                                        HostState to) noexcept {
  switch (from) {
    case HostState::kOff:
      return to == HostState::kBooting;
    case HostState::kBooting:  // boot completes, or the boot itself fails
      return to == HostState::kOn || to == HostState::kOff;
    case HostState::kOn:  // orderly shutdown, or a crash
      return to == HostState::kShuttingDown || to == HostState::kFailed;
    case HostState::kShuttingDown:  // done, or the shutdown failed
      return to == HostState::kOff || to == HostState::kOn;
    case HostState::kFailed:  // repair returns the node to standby
      return to == HostState::kOff;
  }
  return false;
}

void InvariantChecker::on_host_transition(sim::SimTime t, HostId h,
                                          HostState from, HostState to) {
  ++checks_;
  if (!transition_legal(from, to)) {
    report(Rule::kPowerLegality, t,
           msg("host %u: illegal power transition %s -> %s", h,
               datacenter::to_string(from), datacenter::to_string(to)));
  }
}

void InvariantChecker::check_ladder_shift(sim::SimTime t,
                                          resilience::LadderLevel from,
                                          resilience::LadderLevel to,
                                          bool breach) {
  ++checks_;
  const int df = static_cast<int>(from);
  const int dt = static_cast<int>(to);
  const bool one_rung = breach ? dt == df + 1 : dt == df - 1;
  if (!one_rung || dt < 0 || dt >= resilience::kNumLadderLevels) {
    report(Rule::kLadderTransition, t,
           msg("illegal ladder shift %s -> %s (%s)", resilience::to_string(from),
               resilience::to_string(to), breach ? "breach" : "recovery"));
  }
}

void InvariantChecker::check_breaker_transition(sim::SimTime t,
                                                datacenter::HostId h,
                                                resilience::HostHealth from,
                                                resilience::HostHealth to) {
  ++checks_;
  if (!breaker_transition_legal(from, to)) {
    report(Rule::kBreakerTransition, t,
           msg("host %u: illegal health transition %s -> %s", h,
               resilience::to_string(from), resilience::to_string(to)));
  }
}

bool InvariantChecker::breaker_transition_legal(
    resilience::HostHealth from, resilience::HostHealth to) noexcept {
  using H = resilience::HostHealth;
  switch (from) {
    case H::kHealthy:
      // Opened by K consecutive failures / a crash, or overlaid by the
      // datacenter's quarantine.
      return to == H::kSuspect || to == H::kQuarantined;
    case H::kSuspect:
      // Closed by a good probe, overlaid by quarantine, or written off
      // after too many re-opens.
      return to == H::kHealthy || to == H::kQuarantined || to == H::kDead;
    case H::kQuarantined:
      // Cooldown release hands the host back as Suspect: it must prove
      // itself through a probe before taking load again.
      return to == H::kSuspect;
    case H::kDead:
      // Only hardware repair resurrects a dead host, and only to Suspect.
      return to == H::kSuspect;
  }
  return false;
}

void InvariantChecker::on_event_dispatched(sim::SimTime t) {
  ++checks_;
  if (t < last_event_t_) {
    report(Rule::kEventMonotonicity, t,
           msg("event dispatched at t=%.6f after t=%.6f", t, last_event_t_));
    return;  // keep the high-water mark so one glitch reports once
  }
  last_event_t_ = t;
}

void InvariantChecker::check_datacenter(const Datacenter& dc) {
  ++checks_;
  const sim::SimTime t = dc.simulator().now();
  check_conservation(dc, t);
  check_capacity(dc, t);
  check_energy(dc, t);
  check_node_counts(dc, t);
}

void InvariantChecker::check_conservation(const Datacenter& dc,
                                          sim::SimTime t) {
  // Pass 1: walk resident lists, counting appearances of every VM and
  // checking host-side coherence.
  std::vector<int> seen(dc.num_vms(), 0);
  for (HostId h = 0; h < dc.num_hosts(); ++h) {
    const Host& host = dc.host(h);
    if (!host.residents.empty() && host.state != HostState::kOn) {
      report(Rule::kVmConservation, t,
             msg("host %u holds %zu residents while %s", h,
                 host.residents.size(), datacenter::to_string(host.state)));
    }
    for (VmId v : host.residents) {
      ++seen[v];
      const Vm& m = dc.vm(v);
      if (m.host != h) {
        report(Rule::kVmConservation, t,
               msg("vm %u resident on host %u but points at host %d", v, h,
                   m.host == kNoHost ? -1 : static_cast<int>(m.host)));
      }
      if (m.state != VmState::kCreating && m.state != VmState::kRunning &&
          m.state != VmState::kMigrating) {
        report(Rule::kVmConservation, t,
               msg("vm %u resident on host %u in state %s", v, h,
                   datacenter::to_string(m.state)));
      }
    }
  }

  // Pass 2: every VM's back-pointers against the counts. A placed VM
  // lives exactly once; a queued/finished VM lives nowhere.
  for (VmId v = 0; v < dc.num_vms(); ++v) {
    const Vm& m = dc.vm(v);
    const bool placed = m.state == VmState::kCreating ||
                        m.state == VmState::kRunning ||
                        m.state == VmState::kMigrating;
    if (placed) {
      if (m.host == kNoHost) {
        report(Rule::kVmConservation, t,
               msg("vm %u is %s with no host", v,
                   datacenter::to_string(m.state)));
      } else if (seen[v] != 1) {
        report(Rule::kVmConservation, t,
               msg("vm %u appears %d times across resident lists "
                   "(state %s, host %u)",
                   v, seen[v], datacenter::to_string(m.state), m.host));
      }
    } else {
      if (m.host != kNoHost) {
        report(Rule::kVmConservation, t,
               msg("vm %u is %s but still points at host %u", v,
                   datacenter::to_string(m.state), m.host));
      }
      if (seen[v] != 0) {
        report(Rule::kVmConservation, t,
               msg("vm %u is %s but appears in %d resident lists", v,
                   datacenter::to_string(m.state), seen[v]));
      }
    }
    if (m.state == VmState::kMigrating && m.migration_source == kNoHost) {
      report(Rule::kVmConservation, t,
             msg("vm %u is Migrating with no source host", v));
    }
    if (m.state != VmState::kMigrating && m.migration_source != kNoHost) {
      report(Rule::kVmConservation, t,
             msg("vm %u keeps migration source %u in state %s", v,
                 m.migration_source, datacenter::to_string(m.state)));
    }
  }
}

void InvariantChecker::check_capacity(const Datacenter& dc, sim::SimTime t) {
  for (HostId h = 0; h < dc.num_hosts(); ++h) {
    const Host& host = dc.host(h);
    const double mem = dc.reserved_mem_mb(h);
    // Memory is a hard limit under any policy: reservations include
    // residents and the pinned memory of outgoing migrations.
    if (mem > host.spec.mem_mb * (1 + 1e-9) + 1e-9) {
      report(Rule::kCapacity, t,
             msg("host %u memory oversubscribed: %.1f MB reserved of "
                 "%.1f MB",
                 h, mem, host.spec.mem_mb));
    }
    if (!config_.allow_cpu_oversubscription) {
      const double cpu = dc.reserved_cpu_pct(h);
      if (cpu > host.spec.cpu_capacity_pct * (1 + 1e-9) + 1e-9) {
        report(Rule::kCapacity, t,
               msg("host %u CPU oversubscribed: %.1f%% reserved of %.1f%%",
                   h, cpu, host.spec.cpu_capacity_pct));
      }
    }
  }
}

void InvariantChecker::check_node_counts(const Datacenter& dc,
                                         sim::SimTime t) {
  // The only full recount of the node classes: the Datacenter maintains
  // them from its mutation marks, so a mismatch means a missed mark.
  int online = 0;
  int working = 0;
  int booting = 0;
  int quarantined_on = 0;
  for (HostId h = 0; h < dc.num_hosts(); ++h) {
    const Host& host = dc.host(h);
    online += host.is_online() ? 1 : 0;
    working += host.is_working() ? 1 : 0;
    booting += host.state == HostState::kBooting ? 1 : 0;
    quarantined_on +=
        host.quarantined && host.state == HostState::kOn ? 1 : 0;
  }
  const struct {
    const char* name;
    int maintained;
    int recount;
  } counts[] = {
      {"online", dc.online_count(), online},
      {"working", dc.working_count(), working},
      {"booting", dc.booting_count(), booting},
      {"quarantined-on", dc.quarantined_on_count(), quarantined_on},
  };
  for (const auto& c : counts) {
    if (c.maintained != c.recount) {
      report(Rule::kNodeCounts, t,
             msg("%s count %d but %d hosts by recount", c.name, c.maintained,
                 c.recount));
    }
  }
}

void InvariantChecker::check_energy(const Datacenter& dc, sim::SimTime t) {
  const metrics::Recorder& rec = dc.recorder();
  double host_sum_w = 0;
  double host_sum_integral = 0;
  for (HostId h = 0; h < dc.num_hosts(); ++h) {
    const Host& host = dc.host(h);
    double expected = 0;
    switch (host.state) {
      case HostState::kOn:
        expected = host.spec.power.watts_on(host.used_cpu_pct,
                                            host.spec.cpu_capacity_pct);
        break;
      case HostState::kBooting:
      case HostState::kShuttingDown:
        expected = host.spec.power.watts_boot();
        break;
      case HostState::kOff:
      case HostState::kFailed:
        expected = host.spec.power.watts_off();
        break;
    }
    const double actual = rec.watts.host_current(h);
    if (std::abs(actual - expected) > kWattsTol) {
      report(Rule::kEnergyConsistency, t,
             msg("host %u (%s) draws %.3f W, power model says %.3f W", h,
                 datacenter::to_string(host.state), actual, expected));
    }
    host_sum_w += actual;
    host_sum_integral += rec.watts.host_integral(h, t);
  }
  const double total_w = rec.watts.total_current();
  if (std::abs(total_w - host_sum_w) >
      kIntegralRelTol * std::max(1.0, std::abs(host_sum_w))) {
    report(Rule::kEnergyConsistency, t,
           msg("aggregate power %.6f W != sum of hosts %.6f W", total_w,
               host_sum_w));
  }
  const double total_integral = rec.watts.total_integral(t);
  if (std::abs(total_integral - host_sum_integral) >
      kIntegralRelTol * std::max(1.0, std::abs(host_sum_integral))) {
    report(Rule::kEnergyConsistency, t,
           msg("energy integral %.6f Ws != sum of host integrals %.6f Ws",
               total_integral, host_sum_integral));
  }
}

void InvariantChecker::check_score_model(const core::ScoreModel& model,
                                         sim::SimTime t) {
  ++checks_;
  int r = -1;
  int c = -1;
  const int diverged = model.count_cache_divergences(&r, &c);
  if (diverged > 0) {
    report(Rule::kScoreCache, t,
           msg("%d cached score cells diverge from recomputation, "
               "first at (%d, %d)",
               diverged, r, c));
  }
}

void InvariantChecker::check_fleet(const core::FleetState& fleet,
                                   const datacenter::Datacenter& dc,
                                   sim::SimTime t) {
  ++checks_;
  const core::FleetSnapshot& snap = fleet.snapshot();
  const std::size_t n = dc.num_hosts();
  if (snap.size() != n) {
    report(Rule::kFleetSnapshot, t,
           msg("fleet snapshot covers %zu hosts, datacenter has %zu",
               snap.size(), n));
    return;
  }

  // kFleetSnapshot: every field of every host, bitwise, against the shared
  // read path. A divergence means the dirty journal (or the refresh's
  // out-of-band scans) missed a mutation.
  core::FleetSnapshot fresh;
  fresh.resize(n);
  for (HostId h = 0; h < n; ++h) {
    core::FleetState::read_host(dc, h, t, fresh);
    const bool same = snap.placeable[h] == fresh.placeable[h] &&
                      snap.cpu_cap[h] == fresh.cpu_cap[h] &&
                      snap.mem_cap[h] == fresh.mem_cap[h] &&
                      snap.cpu_res[h] == fresh.cpu_res[h] &&
                      snap.mem_res[h] == fresh.mem_res[h] &&
                      snap.vm_count[h] == fresh.vm_count[h] &&
                      snap.running_demand[h] == fresh.running_demand[h] &&
                      snap.mgmt_demand[h] == fresh.mgmt_demand[h] &&
                      snap.conc_remaining_s[h] == fresh.conc_remaining_s[h] &&
                      snap.creation_cost[h] == fresh.creation_cost[h] &&
                      snap.migration_cost[h] == fresh.migration_cost[h] &&
                      snap.reliability[h] == fresh.reliability[h] &&
                      snap.arch[h] == fresh.arch[h] &&
                      snap.software[h] == fresh.software[h];
    if (!same) {
      report(Rule::kFleetSnapshot, t,
             msg("host %u: fleet snapshot diverges from a fresh re-read "
                 "(stale dirty journal?)",
                 h));
    }
  }

  // kFleetIndex: margins, block maxima and the band histogram against the
  // snapshot they were built from (not `fresh` — a stale snapshot is the
  // other rule's violation; the index must mirror its own source).
  const core::HostBucketIndex& index = fleet.index();
  if (index.size() != n) {
    report(Rule::kFleetIndex, t,
           msg("fleet index covers %zu hosts, snapshot has %zu",
               index.size(), n));
    return;
  }
  for (HostId h = 0; h < n; ++h) {
    const double cpu = core::FleetState::expected_free_cpu(snap, h);
    const double mem = core::FleetState::expected_free_mem(snap, h);
    if (index.free_cpu(h) != cpu || index.free_mem(h) != mem) {
      report(Rule::kFleetIndex, t,
             msg("host %u: index margins (%.6f, %.6f) != snapshot-derived "
                 "(%.6f, %.6f)",
                 h, index.free_cpu(h), index.free_mem(h), cpu, mem));
    }
  }
  const std::vector<double>& block_cpu = index.block_free_cpu();
  const std::vector<double>& block_mem = index.block_free_mem();
  const std::size_t nblocks =
      (n + core::kArgminBlock - 1) /
      static_cast<std::size_t>(core::kArgminBlock);
  if (block_cpu.size() != nblocks || block_mem.size() != nblocks) {
    report(Rule::kFleetIndex, t,
           msg("fleet index has %zu blocks, expected %zu", block_cpu.size(),
               nblocks));
    return;
  }
  for (std::size_t blk = 0; blk < nblocks; ++blk) {
    double best_cpu = -1.0;
    double best_mem = -1.0;
    const std::size_t lo = blk * core::kArgminBlock;
    const std::size_t hi = std::min(n, lo + core::kArgminBlock);
    for (std::size_t h = lo; h < hi; ++h) {
      const auto id = static_cast<HostId>(h);
      best_cpu = std::max(best_cpu, core::FleetState::expected_free_cpu(snap, id));
      best_mem = std::max(best_mem, core::FleetState::expected_free_mem(snap, id));
    }
    if (block_cpu[blk] != best_cpu || block_mem[blk] != best_mem) {
      report(Rule::kFleetIndex, t,
             msg("block %zu: index maxima (%.6f, %.6f) != recomputed "
                 "(%.6f, %.6f)",
                 blk, block_cpu[blk], block_mem[blk], best_cpu, best_mem));
    }
  }
  std::vector<int> bands(core::HostBucketIndex::kBands, 0);
  for (HostId h = 0; h < n; ++h) {
    const int b = core::HostBucketIndex::band_of(
        core::FleetState::expected_free_cpu(snap, h));
    if (b >= 0) ++bands[b];
  }
  for (int b = 0; b < core::HostBucketIndex::kBands; ++b) {
    if (index.band_count(b) != bands[b]) {
      report(Rule::kFleetIndex, t,
             msg("band %d: index counts %d hosts, recount says %d", b,
                 index.band_count(b), bands[b]));
    }
  }
}

void InvariantChecker::report(Rule rule, sim::SimTime t,
                              std::string message) {
  ++rule_counts_[static_cast<int>(rule)];
  if (violations_.size() >= config_.max_violations) return;
  violations_.push_back(Violation{rule, t, std::move(message)});
  if (on_violation) on_violation(violations_.back());
  if (config_.abort_on_violation) {
    std::fprintf(stderr, "easched invariant violation [%s] at t=%.3f: %s\n",
                 to_string(rule), t, violations_.back().message.c_str());
    std::abort();
  }
}

}  // namespace easched::validate
