// Shared helpers for datacenter-level tests: a small fleet with
// deterministic (zero-jitter) operation durations so lifecycle timings can
// be asserted exactly, plus the seeded scenario builders (workloads, fault
// plans, run configurations) the integration / fault / fuzz / validation
// tests share instead of each growing its own copy.
#pragma once

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <utility>

#include "datacenter/datacenter.hpp"
#include "experiments/runner.hpp"
#include "experiments/setup.hpp"
#include "faults/fault_injector.hpp"
#include "faults/fault_plan.hpp"
#include "obs/obs.hpp"
#include "sim/simulator.hpp"
#include "workload/synthetic.hpp"

namespace easched::testing {

inline workload::Job make_job(double cpu_pct = 100, double mem_mb = 512,
                              double dedicated_s = 1000,
                              double deadline_factor = 1.5,
                              double submit = 0) {
  workload::Job job;
  job.submit = submit;
  job.dedicated_seconds = dedicated_s;
  job.cpu_pct = cpu_pct;
  job.mem_mb = mem_mb;
  job.deadline_factor = deadline_factor;
  return job;
}

/// A fixture owning simulator + recorder + datacenter with `n` identical
/// medium hosts, zero duration jitter and no contention surprises.
struct SmallDc {
  sim::Simulator simulator;
  metrics::Recorder recorder;
  datacenter::Datacenter dc;

  static datacenter::DatacenterConfig make_config(
      std::size_t n, datacenter::DatacenterConfig base) {
    // Tests that pre-populated custom hosts keep them; otherwise n
    // identical medium nodes.
    if (base.hosts.empty()) {
      base.hosts.assign(n, datacenter::HostSpec::medium());
    }
    base.duration_sigma_ratio = 0;  // deterministic operation durations
    base.seed = 99;
    return base;
  }

  explicit SmallDc(std::size_t n = 3,
                   datacenter::DatacenterConfig base = {})
      : recorder(n), dc(simulator, make_config(n, std::move(base)), recorder) {}

  datacenter::VmId admit_and_place(const workload::Job& job,
                                   datacenter::HostId h) {
    const auto v = dc.admit_job(job);
    dc.place(v, h);
    return v;
  }
};

// ---- shared scenario builders ---------------------------------------------

/// A small 1.5-day synthetic trace (~10 jobs/hour): enough load to exercise
/// every policy end to end while a full run stays sub-second.
inline workload::Workload small_week(std::uint64_t seed = 77) {
  workload::SyntheticConfig c;
  c.seed = seed;
  c.span_seconds = 1.5 * sim::kDay;
  c.mean_jobs_per_hour = 10;
  return workload::generate(c);
}

/// RunConfig over a reduced heterogeneous fleet (default 4 fast / 10 medium
/// / 6 slow, seed 5) with a generous horizon as a stall safety net.
inline experiments::RunConfig small_config(const std::string& policy,
                                           std::size_t fast = 4,
                                           std::size_t medium = 10,
                                           std::size_t slow = 6) {
  experiments::RunConfig config;
  config.datacenter.hosts = experiments::evaluation_hosts(fast, medium, slow);
  config.datacenter.seed = 5;
  config.policy = policy;
  config.horizon_s = 90 * sim::kDay;
  return config;
}

/// A 6-hour synthetic trace for the fault-heavy end-to-end runs.
inline workload::Workload chaos_workload() {
  workload::SyntheticConfig wl;
  wl.seed = 7;
  wl.span_seconds = 6 * sim::kHour;
  wl.mean_jobs_per_hour = 8;
  wl.median_runtime_s = 1200;
  wl.max_runtime_s = 2 * sim::kHour;
  return workload::generate(wl);
}

/// The chaos experiments' standard fault mix, kept in the inline-spec form
/// so the test doubles as coverage of parse_fault_plan().
inline faults::FaultPlan chaos_experiment_plan() {
  return faults::parse_fault_plan(
      "seed=42,create.fail=0.2,create.hang=0.05,migrate.fail=0.1,"
      "power_on.fail=0.1,lemon=1:4,retry_base=5,retry_cap=120,"
      "quarantine_window=1800,quarantine_cooldown=900");
}

/// An aggressive operation-fault mix for the fuzz/chaos variants: every
/// actuator operation can fail, hang or run slow, and host 2 is a lemon.
inline faults::FaultPlan make_chaos_plan(std::uint64_t seed) {
  faults::FaultPlan plan;
  plan.enabled = true;
  plan.seed = seed * 31 + 5;
  plan.spec(faults::FaultOp::kCreate) = {0.10, 0.05, 0.10, 2.5};
  plan.spec(faults::FaultOp::kMigrate) = {0.12, 0.06, 0.10, 2.5};
  plan.spec(faults::FaultOp::kPowerOn) = {0.08, 0.04, 0.05, 2.0};
  plan.spec(faults::FaultOp::kPowerOff) = {0.08, 0.04, 0.0, 1.0};
  plan.spec(faults::FaultOp::kCheckpoint) = {0.15, 0.05, 0.0, 1.0};
  plan.lemons.push_back({2, 5.0});
  plan.quarantine.window_s = 1200;
  plan.quarantine.cooldown_s = 600;
  return plan;
}

/// A run with its tracer on. The bundle must not move once the run starts
/// (the recorder holds a pointer), so run_traced() returns it on the heap.
struct TracedRun {
  obs::Observability obs;
  experiments::RunResult result;

  /// The trace in its byte-deterministic form (`wall_` args dropped): what
  /// repeat-run determinism tests compare.
  [[nodiscard]] std::string jsonl() const {
    std::ostringstream os;
    obs.tracer.write_jsonl(os, /*include_wall=*/false);
    return os.str();
  }
  [[nodiscard]] std::size_t count(obs::EventKind kind) const {
    const auto& events = obs.tracer.events();
    return static_cast<std::size_t>(std::count_if(
        events.begin(), events.end(),
        [kind](const obs::TraceEvent& e) { return e.kind == kind; }));
  }
};

inline std::unique_ptr<TracedRun> run_traced(const workload::Workload& jobs,
                                             experiments::RunConfig config) {
  auto run = std::make_unique<TracedRun>();
  run->obs.tracer.enable();
  config.obs = &run->obs;
  run->result = experiments::run_experiment(jobs, std::move(config));
  return run;
}

/// SmallDc wired to a FaultInjector; medium hosts: creation 40 s,
/// migration 60 s, boot 300 s, deterministic.
struct InjectedDc {
  faults::FaultInjector injector;
  SmallDc f;

  explicit InjectedDc(const faults::FaultPlan& plan, std::size_t hosts = 2)
      : injector(plan), f(hosts, [&] {
          datacenter::DatacenterConfig config;
          config.fault_injector = &injector;
          return config;
        }()) {}
};

}  // namespace easched::testing
