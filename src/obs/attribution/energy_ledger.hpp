// Per-host / per-VM energy attribution ledger.
//
// The aggregate meters in metrics::Recorder answer "how many joules did the
// run burn"; the EnergyLedger answers "where did they go". It observes the
// exact same piecewise-constant power signal the Datacenter feeds into
// `recorder.watts` — every `update_power()` hands the ledger a decomposed
// sample — and integrates it into named buckets:
//
//   per host      off / transition (boot+shutdown) / idle / load joules
//   per VM        the host's load joules split by allocated CPU share
//                 (the dom0 management slice lands in a separate mgmt
//                 bucket, not on any VM)
//   per VM class  per-VM joules rolled up by requested core count
//   per rung      joules by the degradation-ladder level the scheduler was
//                 running at (resilience control plane; everything is
//                 "full" when no controller is attached)
//
// Because the ledger samples the identical wattage values at the identical
// simulation times as the recorder's meters, the sum of its per-host totals
// reproduces `RunReport::energy_kwh` up to floating-point association —
// tests hold this to 0.1 % and in practice it matches far tighter.
//
// Determinism contract: all samples arrive from the simulation thread at
// sim-time stamps; nothing here reads the wall clock or any thread count,
// so ledger state — and the run_summary.json built from it — is
// byte-identical across same-seed runs, in a sweep at any
// EASCHED_SWEEP_THREADS.
//
// Like the Tracer, the ledger is a null sink until enable() is called
// (see obs/obs.hpp).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace easched::obs {

/// One running VM's allocated CPU at the moment of a power change.
struct VmShare {
  std::int64_t vm = -1;
  double alloc_pct = 0;  ///< Xen-allocated CPU [% of one core]
};

/// Decomposed power draw of one host from a power change onward. Exactly
/// one group is non-zero per host state: off_w (Off/Failed), boot_w
/// (Booting/ShuttingDown), or idle_w + load_w (On; idle is the power
/// model's utilisation-0 draw, load the utilisation-dependent remainder).
struct EnergySample {
  double off_w = 0;
  double boot_w = 0;
  double idle_w = 0;
  double load_w = 0;
  double used_cpu_pct = 0;        ///< total allocation driving load_w
  std::vector<VmShare> shares;    ///< running residents' allocations
};

/// Joule totals of one host, by power-state bucket.
struct HostEnergy {
  double off_j = 0;
  double boot_j = 0;
  double idle_j = 0;
  double load_j = 0;
  [[nodiscard]] double total_j() const {
    return off_j + boot_j + idle_j + load_j;
  }
};

/// Maps a VM's requested CPU to its attribution class ("1core".."4core",
/// ">4core"). Stable identifiers used in metrics labels and run_summary.
[[nodiscard]] const char* vm_class_of(double cpu_pct) noexcept;

class EnergyLedger {
 public:
  void enable() noexcept { enabled_ = true; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Installs `sample` as host `h`'s power decomposition from time `t`
  /// onward, after integrating the previous decomposition over the elapsed
  /// interval. `t` must be >= the host's previous sample time.
  void set_host_power(sim::SimTime t, std::size_t h, EnergySample sample);

  /// Registers a VM's requested CPU so its joules can be rolled up by
  /// class. Idempotent per VM id.
  void note_vm(std::int64_t vm, double cpu_pct);

  /// Switches the degradation-ladder rung all *subsequent* joules are
  /// attributed to (0 = full .. 3 = frozen, resilience::LadderLevel
  /// values). Integrates every host up to `t` under the old rung first.
  void set_rung(sim::SimTime t, int rung);

  /// Integrates every host up to `t`. Call once when the run ends, before
  /// reading any totals.
  void finish(sim::SimTime t);

  // ---- totals (valid after finish(); joules) ------------------------------

  [[nodiscard]] const std::vector<HostEnergy>& hosts() const noexcept {
    return hosts_;
  }
  [[nodiscard]] double total_j() const;
  [[nodiscard]] double off_j() const;
  [[nodiscard]] double boot_j() const;
  [[nodiscard]] double idle_j() const;
  [[nodiscard]] double load_j() const;
  /// dom0 management slice of the load joules (not attributed to any VM).
  [[nodiscard]] double mgmt_j() const noexcept { return mgmt_j_; }

  /// Per-VM attributed load joules, indexed by VM id (0 for ids that never
  /// ran). Size = highest VM id seen + 1.
  [[nodiscard]] const std::vector<double>& vm_j() const noexcept {
    return vm_j_;
  }
  /// Per-VM-class rollup of vm_j(), keyed by vm_class_of().
  [[nodiscard]] std::map<std::string, double> vm_class_j() const;

  /// Joules by degradation-ladder rung (index = LadderLevel value).
  [[nodiscard]] const std::vector<double>& rung_j() const noexcept {
    return rung_j_;
  }

  /// Hosts with the largest total joules, descending (ties by lower host
  /// id), at most `n` entries. Pairs are (host id, joules).
  [[nodiscard]] std::vector<std::pair<std::size_t, double>> top_hosts(
      std::size_t n) const;

 private:
  struct HostSlot {
    EnergySample sample;
    sim::SimTime last_t = 0;
    bool started = false;
  };

  /// Integrates host `h`'s current sample over [last_t, t].
  void integrate(HostSlot& slot, HostEnergy& acc, sim::SimTime t);
  void ensure_host(std::size_t h);
  void ensure_vm(std::int64_t vm);

  bool enabled_ = false;
  int rung_ = 0;
  std::vector<HostSlot> slots_;
  std::vector<HostEnergy> hosts_;
  std::vector<double> vm_j_;
  std::vector<double> vm_cpu_pct_;  ///< requested CPU per VM id (class key)
  std::vector<double> rung_j_;
  double mgmt_j_ = 0;
};

}  // namespace easched::obs
