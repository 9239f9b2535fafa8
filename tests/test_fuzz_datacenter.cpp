// Randomized stress harness: drives the Datacenter with random (but valid)
// actuator calls interleaved with time advancement and checks structural
// invariants after every step. This is the property-based safety net for
// the bookkeeping that the scenario tests cannot cover combinatorially:
// resident lists vs. VM states, reservations vs. capacities, operation
// records vs. VM operations, meters vs. states.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/hill_climb.hpp"
#include "core/score_matrix.hpp"
#include "faults/fault_injector.hpp"
#include "test_fixtures.hpp"

namespace easched::datacenter {
namespace {

using easched::testing::make_chaos_plan;
using easched::testing::make_job;

class Fuzzer {
 public:
  explicit Fuzzer(std::uint64_t seed, bool failures,
                  const faults::FaultPlan* plan = nullptr)
      : rng_(seed), recorder_(kHosts) {
    DatacenterConfig config;
    config.hosts.assign(kHosts, HostSpec::medium());
    if (failures) {
      config.inject_failures = true;
      config.mean_repair_s = 400;
      for (std::size_t i = 0; i < kHosts; i += 2) {
        config.hosts[i].reliability = 0.85;
      }
    }
    config.checkpoint.enabled = failures;
    config.checkpoint.period_s = 120;
    config.checkpoint.duration_s = 3;
    config.seed = seed ^ 0x5eed;
    if (plan != nullptr && plan->enabled) {
      injector_ = std::make_unique<faults::FaultInjector>(*plan);
      config.fault_injector = injector_.get();
      config.quarantine.failure_budget = plan->quarantine_budget;
      config.quarantine.window_s = plan->quarantine_window_s;
      config.quarantine.cooldown_s = plan->quarantine_cooldown_s;
    }
    dc_ = std::make_unique<Datacenter>(simulator_, config, recorder_);
    dc_->on_host_failed = [this](HostId, std::vector<VmId> lost) {
      for (VmId v : lost) queued_.push_back(v);
    };
    // A failed/aborted creation hands the VM back to the queue; track it so
    // it can be re-placed (the stranded-VM invariant below relies on every
    // requeue path reporting back, mirroring what the driver does).
    dc_->on_operation_failed = [this](faults::FaultOp op, VmId v, HostId,
                                      bool) {
      if (op == faults::FaultOp::kCreate) queued_.push_back(v);
    };
  }

  void step() {
    switch (rng_.uniform_int(0, 6)) {
      case 0:
        maybe_submit();
        break;
      case 1:
        maybe_place();
        break;
      case 2:
        maybe_migrate();
        break;
      case 3:
        maybe_power_cycle();
        break;
      case 4:
        maybe_boost();
        break;
      default:
        advance();
        break;
    }
    check_invariants();
  }

  void drain() {
    // Push time forward so in-flight operations and jobs settle.
    for (int i = 0; i < 50; ++i) {
      simulator_.run_until(simulator_.now() + 500.0);
      check_invariants();
    }
  }

 private:
  static constexpr std::size_t kHosts = 6;

  void maybe_submit() {
    static constexpr double kCpu[4] = {50, 100, 200, 400};
    workload::Job job = make_job(
        kCpu[rng_.uniform_int(0, 3)], rng_.uniform(128, 1500),
        rng_.uniform(200, 4000), rng_.uniform(1.2, 2.0), simulator_.now());
    queued_.push_back(dc_->admit_job(job));
  }

  void maybe_place() {
    if (queued_.empty()) return;
    const std::size_t pick = rng_.uniform_int(0, queued_.size() - 1);
    const VmId v = queued_[pick];
    if (dc_->vm(v).state != VmState::kQueued) {
      queued_.erase(queued_.begin() + static_cast<long>(pick));
      return;
    }
    std::vector<HostId> fitting;
    for (HostId h = 0; h < dc_->num_hosts(); ++h) {
      if (dc_->fits_memory(h, v)) fitting.push_back(h);
    }
    if (fitting.empty()) return;
    queued_.erase(queued_.begin() + static_cast<long>(pick));
    dc_->place(v, fitting[rng_.uniform_int(0, fitting.size() - 1)]);
  }

  void maybe_migrate() {
    std::vector<VmId> running;
    for (VmId v : dc_->active_vms()) {
      if (dc_->vm(v).state == VmState::kRunning) running.push_back(v);
    }
    if (running.empty()) return;
    const VmId v = running[rng_.uniform_int(0, running.size() - 1)];
    std::vector<HostId> targets;
    for (HostId h = 0; h < dc_->num_hosts(); ++h) {
      if (h != dc_->vm(v).host && dc_->fits_memory(h, v)) targets.push_back(h);
    }
    if (targets.empty()) return;
    dc_->migrate(v, targets[rng_.uniform_int(0, targets.size() - 1)]);
  }

  void maybe_power_cycle() {
    const HostId h =
        static_cast<HostId>(rng_.uniform_int(0, dc_->num_hosts() - 1));
    const auto& host = dc_->host(h);
    if (host.state == HostState::kOff) {
      dc_->power_on(h);
    } else if (host.is_idle_on() && dc_->online_count() > 1) {
      dc_->power_off(h);
    }
  }

  void maybe_boost() {
    for (VmId v : dc_->active_vms()) {
      if (dc_->vm(v).state == VmState::kRunning && rng_.uniform01() < 0.3) {
        if (rng_.uniform01() < 0.5) {
          dc_->boost_demand(v, dc_->vm(v).cpu_demand_pct * 1.5);
        } else {
          dc_->boost_weight(v, 2.0);
        }
        return;
      }
    }
  }

  void advance() { simulator_.run_until(simulator_.now() + rng_.uniform(1, 300)); }

  void check_invariants() {
    double expected_working = 0;
    double expected_online = 0;
    double expected_booting = 0;
    double expected_quarantined_on = 0;

    for (HostId h = 0; h < dc_->num_hosts(); ++h) {
      const Host& host = dc_->host(h);
      expected_working += host.is_working() ? 1 : 0;
      expected_online += host.is_online() ? 1 : 0;
      expected_booting += host.state == HostState::kBooting ? 1 : 0;
      expected_quarantined_on +=
          host.quarantined && host.state == HostState::kOn ? 1 : 0;

      // Residents' states and back-pointers are consistent.
      for (VmId v : host.residents) {
        const Vm& vm = dc_->vm(v);
        ASSERT_EQ(vm.host, h);
        ASSERT_TRUE(vm.state == VmState::kCreating ||
                    vm.state == VmState::kRunning ||
                    vm.state == VmState::kMigrating)
            << to_string(vm.state);
      }
      // Only On hosts hold residents or operations.
      if (host.state != HostState::kOn) {
        ASSERT_TRUE(host.residents.empty());
        ASSERT_TRUE(host.ops.empty());
        ASSERT_DOUBLE_EQ(host.used_cpu_pct, 0.0);
      }
      // Memory reservations never exceed physical memory.
      ASSERT_LE(dc_->reserved_mem_mb(h), host.spec.mem_mb + 1e-6);
      // A quarantined host is never offered to placement.
      if (host.quarantined) ASSERT_FALSE(host.is_placeable());
      // Operation records refer to live VMs in matching states.
      for (const auto& op : host.ops) {
        const Vm& vm = dc_->vm(op.vm);
        switch (op.kind) {
          case Operation::Kind::kCreate:
            ASSERT_EQ(vm.state, VmState::kCreating);
            break;
          case Operation::Kind::kMigrateIn:
            ASSERT_EQ(vm.state, VmState::kMigrating);
            ASSERT_EQ(vm.host, h);
            break;
          case Operation::Kind::kMigrateOut:
            ASSERT_EQ(vm.state, VmState::kMigrating);
            ASSERT_EQ(vm.migration_source, h);
            break;
          case Operation::Kind::kCheckpoint:
            break;  // checkpointed VM may have been requeued meanwhile
        }
        ASSERT_GE(op.done_s, -1e9);
        ASSERT_LE(op.done_s, op.work_s + 1e-6);
        // A hung operation always has its abort deadline armed: nothing
        // can wedge forever.
        if (op.hung) ASSERT_NE(op.deadline_event, sim::kNoEvent);
      }
      // Power meter matches the host state.
      const double watts = recorder_.watts.host_current(h);
      if (host.state == HostState::kOff || host.state == HostState::kFailed) {
        ASSERT_DOUBLE_EQ(watts, host.spec.power.watts_off());
      } else {
        ASSERT_GE(watts, host.spec.power.watts_off());
        ASSERT_LE(watts, host.spec.power.watts_on(host.spec.cpu_capacity_pct,
                                                  host.spec.cpu_capacity_pct) +
                             1e-6);
      }
    }

    ASSERT_EQ(dc_->working_count(), static_cast<int>(expected_working));
    ASSERT_EQ(dc_->online_count(), static_cast<int>(expected_online));
    ASSERT_EQ(dc_->booting_count(), static_cast<int>(expected_booting));
    ASSERT_EQ(dc_->quarantined_on_count(),
              static_cast<int>(expected_quarantined_on));

    // Every VM's bookkeeping is sane.
    for (VmId v = 0; v < dc_->num_vms(); ++v) {
      const Vm& vm = dc_->vm(v);
      ASSERT_GE(vm.work_done_s, 0.0);
      ASSERT_LE(vm.work_done_s, vm.job.dedicated_seconds + 1e-6);
      ASSERT_LE(vm.work_checkpointed_s, vm.work_done_s + 1e-6);
      ASSERT_GE(vm.progress_rate, 0.0);
      ASSERT_LE(vm.progress_rate, 1.0 + 1e-9);
      if (vm.state == VmState::kQueued) {
        // No stranded VM: every path that hands a VM back (host crash,
        // failed or timed-out creation) must report it, or it would sit
        // queued forever with nobody retrying the placement.
        ASSERT_NE(std::find(queued_.begin(), queued_.end(), v), queued_.end())
            << "VM " << v << " queued but untracked";
      }
      if (vm.state == VmState::kQueued || vm.state == VmState::kFinished) {
        ASSERT_EQ(vm.host, kNoHost);
      } else {
        ASSERT_LT(vm.host, dc_->num_hosts());
        const auto& residents = dc_->host(vm.host).residents;
        ASSERT_NE(std::find(residents.begin(), residents.end(), v),
                  residents.end());
      }
      if (vm.state != VmState::kMigrating) {
        ASSERT_EQ(vm.migration_source, kNoHost);
      }
    }
  }

  support::Rng rng_;
  sim::Simulator simulator_;
  metrics::Recorder recorder_;
  std::unique_ptr<faults::FaultInjector> injector_;  // outlives dc_
  std::unique_ptr<Datacenter> dc_;
  std::vector<VmId> queued_;
};

/// Fuzz at the scheduling layer: interleaves score-based scheduling rounds
/// (the solver planning over the live system, plans applied like the SB
/// policy applies them) with failure injection and time advancement, and
/// checks the solver-facing safety properties after every round:
///  - no host is committed beyond its reserved CPU / memory capacity,
///  - no VM is left on the virtual row while a feasible host scores
///    negative for it (the climber must have taken that placement).
class SchedulingFuzzer {
 public:
  explicit SchedulingFuzzer(std::uint64_t seed,
                            const faults::FaultPlan* plan = nullptr)
      : rng_(seed), recorder_(kHosts) {
    DatacenterConfig config;
    config.hosts.assign(kHosts, HostSpec::medium());
    config.inject_failures = true;
    config.mean_repair_s = 500;
    for (std::size_t i = 0; i < kHosts; i += 2) {
      config.hosts[i].reliability = 0.9;
    }
    config.checkpoint.enabled = true;
    config.checkpoint.period_s = 150;
    config.checkpoint.duration_s = 3;
    config.seed = seed ^ 0xf00d;
    if (plan != nullptr && plan->enabled) {
      injector_ = std::make_unique<faults::FaultInjector>(*plan);
      config.fault_injector = injector_.get();
      config.quarantine.failure_budget = plan->quarantine_budget;
      config.quarantine.window_s = plan->quarantine_window_s;
      config.quarantine.cooldown_s = plan->quarantine_cooldown_s;
    }
    dc_ = std::make_unique<Datacenter>(simulator_, config, recorder_);
    dc_->on_host_failed = [this](HostId, std::vector<VmId> lost) {
      for (VmId v : lost) queued_.push_back(v);
    };
    dc_->on_operation_failed = [this](faults::FaultOp op, VmId v, HostId,
                                      bool) {
      if (op == faults::FaultOp::kCreate) queued_.push_back(v);
    };
    params_.use_virt = true;
    params_.use_conc = true;
    params_.use_fault = true;
  }

  void step(int i) {
    const int arrivals = static_cast<int>(rng_.uniform_int(0, 2));
    for (int a = 0; a < arrivals; ++a) {
      static constexpr double kCpu[4] = {50, 100, 200, 400};
      queued_.push_back(dc_->admit_job(make_job(
          kCpu[rng_.uniform_int(0, 3)], rng_.uniform(128, 1200),
          rng_.uniform(500, 6000), rng_.uniform(1.2, 2.0), simulator_.now())));
    }
    round(/*consolidate=*/i % 4 == 3);
    simulator_.run_until(simulator_.now() + rng_.uniform(30, 400));
    sync_queue();
  }

 private:
  static constexpr std::size_t kHosts = 6;

  void sync_queue() {
    std::vector<VmId> synced;
    for (VmId v : queued_) {
      if (dc_->vm(v).state == VmState::kQueued &&
          std::find(synced.begin(), synced.end(), v) == synced.end()) {
        synced.push_back(v);
      }
    }
    queued_ = std::move(synced);
  }

  void round(bool consolidate) {
    sync_queue();
    core::ScoreModel model(*dc_, queued_, params_, consolidate);
    core::HillClimbLimits limits;
    limits.max_moves = 512;
    limits.min_migration_gain = 35;
    const auto stats = core::hill_climb(model, limits);

    // A column left on the virtual row means every real host scored it
    // non-negative: any negative (or even merely finite-vs-infinite) cell
    // gives an astronomically negative delta the climber must take.
    if (!stats.hit_move_limit) {
      for (int c = 0; c < model.cols(); ++c) {
        if (model.original_row(c) != model.virtual_row()) continue;
        if (model.plan_row(c) != model.virtual_row()) continue;
        for (int r = 0; r < model.virtual_row(); ++r) {
          ASSERT_GE(model.cell(r, c), 0.0)
              << "VM " << model.vm_at(c) << " left queued although host row "
              << r << " scores negative";
        }
      }
    }

    // Apply the plan the way ScoreBasedPolicy emits actions, with the same
    // defensive validation the driver performs.
    int migrations = 0;
    for (int c = 0; c < model.cols(); ++c) {
      const int planned = model.plan_row(c);
      if (planned == model.original_row(c)) continue;
      if (planned == model.virtual_row()) continue;
      const VmId v = model.vm_at(c);
      const HostId h = model.host_at(planned);
      if (dc_->host(h).state != HostState::kOn) continue;
      if (!dc_->fits_memory(h, v)) continue;
      // fits_memory() rejecting quarantined hosts is what keeps degraded
      // nodes out of placement; a validated action must never target one.
      ASSERT_FALSE(dc_->host(h).quarantined);
      if (model.original_row(c) == model.virtual_row()) {
        if (dc_->vm(v).state != VmState::kQueued) continue;
        queued_.erase(std::find(queued_.begin(), queued_.end(), v));
        dc_->place(v, h);
      } else if (migrations < 8) {
        if (dc_->vm(v).state != VmState::kRunning) continue;
        if (dc_->vm(v).host == h) continue;
        dc_->migrate(v, h);
        ++migrations;
      }
    }
    check_capacity();
  }

  void check_capacity() {
    for (HostId h = 0; h < dc_->num_hosts(); ++h) {
      const Host& host = dc_->host(h);
      ASSERT_LE(dc_->reserved_mem_mb(h), host.spec.mem_mb + 1e-6)
          << "host " << h << " over-committed on memory";
      ASSERT_LE(dc_->reserved_cpu_pct(h), host.spec.cpu_capacity_pct + 1e-6)
          << "host " << h << " over-committed on CPU";
    }
  }

  support::Rng rng_;
  sim::Simulator simulator_;
  metrics::Recorder recorder_;
  std::unique_ptr<faults::FaultInjector> injector_;  // outlives dc_
  std::unique_ptr<Datacenter> dc_;
  std::vector<VmId> queued_;
  core::ScoreParams params_;
};

class FuzzDatacenter : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzDatacenter, InvariantsHoldWithoutFailures) {
  Fuzzer fuzzer(GetParam(), /*failures=*/false);
  for (int i = 0; i < 600; ++i) fuzzer.step();
  fuzzer.drain();
}

TEST_P(FuzzDatacenter, InvariantsHoldWithFailureInjection) {
  Fuzzer fuzzer(GetParam() * 7919 + 1, /*failures=*/true);
  for (int i = 0; i < 600; ++i) fuzzer.step();
  fuzzer.drain();
}

TEST_P(FuzzDatacenter, SchedulingRoundsWithFailuresKeepInvariants) {
  SchedulingFuzzer fuzzer(GetParam() * 104729 + 11);
  for (int i = 0; i < 40; ++i) fuzzer.step(i);
}

// Chaos variant: deterministic operation-fault injection (fail / hang /
// slow on every actuator op, plus a lemon host) interleaved with the random
// actuator calls AND the host-crash failure model. The structural
// invariants must hold throughout: no over-commit, no stranded queued VM,
// no placements onto quarantined hosts, no operation wedged without an
// armed abort deadline.
TEST_P(FuzzDatacenter, InjectedOperationFaultsKeepInvariants) {
  const faults::FaultPlan plan = make_chaos_plan(GetParam());
  Fuzzer fuzzer(GetParam() * 271 + 9, /*failures=*/true, &plan);
  for (int i = 0; i < 600; ++i) fuzzer.step();
  fuzzer.drain();
}

// Same chaos plan under full scheduling rounds: the solver plans over a
// system where creations fail, migrations roll back and hosts get
// quarantined mid-round; the capacity and placement-validity properties
// must survive.
TEST_P(FuzzDatacenter, SchedulingRoundsWithInjectedOperationFaults) {
  const faults::FaultPlan plan = make_chaos_plan(GetParam() ^ 0xfau);
  SchedulingFuzzer fuzzer(GetParam() * 104729 + 13, &plan);
  for (int i = 0; i < 40; ++i) fuzzer.step(i);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDatacenter,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

}  // namespace
}  // namespace easched::datacenter
