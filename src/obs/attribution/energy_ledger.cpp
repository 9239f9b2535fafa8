#include "obs/attribution/energy_ledger.hpp"

#include <utility>

#include "support/contracts.hpp"

namespace easched::obs {

const char* vm_class_of(double cpu_pct) noexcept {
  if (cpu_pct <= 100.0) return "1core";
  if (cpu_pct <= 200.0) return "2core";
  if (cpu_pct <= 300.0) return "3core";
  if (cpu_pct <= 400.0) return "4core";
  return ">4core";
}

void EnergyLedger::ensure_host(std::size_t h) {
  if (h >= slots_.size()) {
    slots_.resize(h + 1);
    hosts_.resize(h + 1);
  }
}

void EnergyLedger::ensure_vm(std::int64_t vm) {
  EA_EXPECTS(vm >= 0);
  const auto idx = static_cast<std::size_t>(vm);
  if (idx >= vm_j_.size()) {
    vm_j_.resize(idx + 1, 0.0);
    vm_cpu_pct_.resize(idx + 1, 0.0);
  }
}

void EnergyLedger::integrate(HostSlot& slot, HostEnergy& acc, sim::SimTime t) {
  if (!slot.started) {
    slot.last_t = t;
    slot.started = true;
    return;
  }
  EA_EXPECTS(t >= slot.last_t);
  const double dt = t - slot.last_t;
  slot.last_t = t;
  if (dt <= 0) return;

  const EnergySample& s = slot.sample;
  acc.off_j += s.off_w * dt;
  acc.boot_j += s.boot_w * dt;
  acc.idle_j += s.idle_w * dt;
  const double load = s.load_w * dt;
  acc.load_j += load;
  if (rung_j_.size() <= static_cast<std::size_t>(rung_)) {
    rung_j_.resize(static_cast<std::size_t>(rung_) + 1, 0.0);
  }
  rung_j_[static_cast<std::size_t>(rung_)] +=
      (s.off_w + s.boot_w + s.idle_w + s.load_w) * dt;

  if (load > 0) {
    // Split the utilisation-dependent joules by CPU share: each running
    // resident gets alloc/used, dom0 management the remainder. used_cpu_pct
    // is the same total the power model derived load_w from, so the shares
    // partition the load exactly.
    const double used = s.used_cpu_pct;
    if (used > 0) {
      double guest = 0;
      for (const VmShare& sh : s.shares) {
        ensure_vm(sh.vm);
        vm_j_[static_cast<std::size_t>(sh.vm)] += load * sh.alloc_pct / used;
        guest += sh.alloc_pct;
      }
      const double mgmt = used - guest;
      if (mgmt > 0) mgmt_j_ += load * mgmt / used;
    } else {
      mgmt_j_ += load;  // defensive: load without allocation bookkeeping
    }
  }
}

void EnergyLedger::set_host_power(sim::SimTime t, std::size_t h,
                                  EnergySample sample) {
  ensure_host(h);
  integrate(slots_[h], hosts_[h], t);
  slots_[h].sample = std::move(sample);
}

void EnergyLedger::note_vm(std::int64_t vm, double cpu_pct) {
  ensure_vm(vm);
  vm_cpu_pct_[static_cast<std::size_t>(vm)] = cpu_pct;
}

void EnergyLedger::set_rung(sim::SimTime t, int rung) {
  EA_EXPECTS(rung >= 0);
  if (rung == rung_) return;
  for (std::size_t h = 0; h < slots_.size(); ++h) {
    integrate(slots_[h], hosts_[h], t);
  }
  rung_ = rung;
}

void EnergyLedger::finish(sim::SimTime t) {
  for (std::size_t h = 0; h < slots_.size(); ++h) {
    integrate(slots_[h], hosts_[h], t);
  }
}

double EnergyLedger::total_j() const {
  double j = 0;
  for (const HostEnergy& he : hosts_) j += he.total_j();
  return j;
}

double EnergyLedger::off_j() const {
  double j = 0;
  for (const HostEnergy& he : hosts_) j += he.off_j;
  return j;
}

double EnergyLedger::boot_j() const {
  double j = 0;
  for (const HostEnergy& he : hosts_) j += he.boot_j;
  return j;
}

double EnergyLedger::idle_j() const {
  double j = 0;
  for (const HostEnergy& he : hosts_) j += he.idle_j;
  return j;
}

double EnergyLedger::load_j() const {
  double j = 0;
  for (const HostEnergy& he : hosts_) j += he.load_j;
  return j;
}

std::map<std::string, double> EnergyLedger::vm_class_j() const {
  std::map<std::string, double> by_class;
  for (std::size_t v = 0; v < vm_j_.size(); ++v) {
    if (vm_j_[v] == 0) continue;
    by_class[vm_class_of(vm_cpu_pct_[v])] += vm_j_[v];
  }
  return by_class;
}

}  // namespace easched::obs
