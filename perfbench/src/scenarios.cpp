#include "scenarios.hpp"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "core/score_based_policy.hpp"
#include "experiments/setup.hpp"
#include "experiments/sweep.hpp"
#include "faults/fault_plan.hpp"
#include "workload/synthetic.hpp"

namespace perfbench {

namespace {

using easched::experiments::RunConfig;
using easched::experiments::RunResult;
using easched::workload::SyntheticConfig;
using Clock = std::chrono::steady_clock;
namespace sim = easched::sim;

/// The evaluation fleet (15 fast, 50 medium, 35 slow) times `k`.
std::vector<easched::datacenter::HostSpec> evaluation_mix(std::size_t k) {
  return easched::experiments::evaluation_hosts(15 * k, 50 * k, 35 * k);
}

/// The evaluation week's traffic at `rate` times its arrival intensity.
SyntheticConfig scaled_traffic(std::uint64_t seed, double rate,
                               double span_s) {
  SyntheticConfig wl;
  wl.seed = seed;
  wl.span_seconds = span_s;
  wl.mean_jobs_per_hour *= rate;
  return wl;
}

/// Simulated hours of coldstart_2k's first day that the benchmark keeps.
constexpr double kColdstartHours = 7;
/// Simulated days of chaos_2d: short enough that a measurement repeats the
/// run about thirty times (see end_to_end() in main.cpp).
constexpr double kChaosDays = 2;
/// Workload seeds per paper_sweep batch: seed, seed + 1, ...
constexpr std::uint64_t kSweepSeeds = 4;
/// Simulated-time cap of every run: the runs end on their own days before
/// it, so a run that reaches it has stalled and fails the check.
constexpr sim::SimTime kHorizon = 30 * sim::kDay;

Scenario single(std::uint64_t seed, const SyntheticConfig& traffic,
                std::string policy) {
  Scenario s;
  s.inputs.push_back(easched::workload::generate(traffic));
  s.tasks.push_back({0, std::move(policy), seed});
  return s;
}

Scenario coldstart_2k(std::uint64_t seed) {
  SyntheticConfig traffic =
      scaled_traffic(seed, 20, kColdstartHours * sim::kHour);
  // Flat, unbatched arrivals: the peak memory of a run follows its largest
  // consolidation matrix, so bursty traffic would make it a lottery.
  traffic.diurnal_amplitude = 0;
  traffic.batch_mean = 1;
  Scenario s = single(seed, traffic, "SB");
  s.configure = [](const ScenarioTask& t) {
    RunConfig c;
    c.datacenter.hosts = evaluation_mix(20);
    c.datacenter.initially_on = c.datacenter.hosts.size();
    c.datacenter.seed = t.seed;
    c.horizon_s = kHorizon;
    return c;
  };
  return s;
}

Scenario paper_sweep(std::uint64_t seed) {
  Scenario s;
  s.sweep = true;
  for (std::uint64_t i = 0; i < kSweepSeeds; ++i) {
    s.inputs.push_back(easched::workload::evaluation_workload(seed + i));
    for (const char* policy : {"RD", "RR", "BF", "DBF", "SB0", "SB1", "SB2",
                               "SB", "SB-full"}) {
      s.tasks.push_back({static_cast<std::size_t>(i), policy, seed + i});
    }
  }
  s.configure = [](const ScenarioTask& t) {
    RunConfig c;
    c.datacenter = easched::experiments::evaluation_datacenter(t.seed);
    c.horizon_s = kHorizon;
    return c;
  };
  return s;
}

Scenario chaos_2d(std::uint64_t seed) {
  Scenario s = single(seed, scaled_traffic(seed, 10, kChaosDays * sim::kDay),
                      "SB-full");
  s.configure = [](const ScenarioTask& t) {
    RunConfig c;
    c.datacenter.hosts = evaluation_mix(10);
    for (std::size_t i = 1; i < c.datacenter.hosts.size(); i += 2) {
      c.datacenter.hosts[i].reliability = 0.95 + 0.04 * (i % 3) / 2.0;
    }
    c.datacenter.inject_failures = true;
    c.datacenter.mean_repair_s = 2 * sim::kHour;
    c.datacenter.checkpoint.enabled = true;
    c.datacenter.checkpoint.period_s = 1800;
    c.datacenter.seed = t.seed;
    c.faults = easched::faults::parse_fault_plan(
        "migrate.fail=0.08,create.fail=0.03,create.hang=0.01,"
        "power_on.fail=0.02,lemon=3:8,breaker_threshold=3");
    c.faults.seed = t.seed;
    c.horizon_s = kHorizon;
    return c;
  };
  return s;
}

/// The named policy with the variant's solver settings applied to the
/// score-based family (make_policy() would read them from the
/// environment).
std::unique_ptr<easched::sched::Policy> build_policy(const std::string& name,
                                                     const Variant& v) {
  using easched::core::ScoreBasedConfig;
  const std::pair<const char*, ScoreBasedConfig (*)()> kScoreBased[] = {
      {"SB0", &ScoreBasedConfig::sb0}, {"SB1", &ScoreBasedConfig::sb1},
      {"SB2", &ScoreBasedConfig::sb2}, {"SB", &ScoreBasedConfig::sb},
      {"SB-full", &ScoreBasedConfig::sb_full}};
  for (const auto& [label, make] : kScoreBased) {
    if (name != label) continue;
    ScoreBasedConfig c = make();
    c.solver_threads = v.solver_threads;
    c.incremental = v.incremental;
    return std::make_unique<easched::core::ScoreBasedPolicy>(std::move(c));
  }
  return easched::experiments::make_policy(name);
}

}  // namespace

Scenario make_scenario(const std::string& name, std::uint64_t seed) {
  const Clock::time_point t0 = Clock::now();
  Scenario s;
  if (name == "coldstart_2k") {
    s = coldstart_2k(seed);
  } else if (name == "paper_sweep") {
    s = paper_sweep(seed);
  } else if (name == "chaos_2d") {
    s = chaos_2d(seed);
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  s.generate_s = std::chrono::duration<double>(Clock::now() - t0).count();
  return s;
}

Scenario make_tiny_sweep(std::uint64_t seed) {
  Scenario s;
  s.sweep = true;
  for (std::uint64_t i = 0; i < 2; ++i) {
    s.inputs.push_back(
        easched::workload::generate(scaled_traffic(seed + i, 1, sim::kDay)));
    for (const char* policy : {"RR", "BF", "SB", "SB-full"}) {
      s.tasks.push_back({static_cast<std::size_t>(i), policy, seed + i});
    }
  }
  s.configure = [](const ScenarioTask& t) {
    RunConfig c;
    c.datacenter.hosts = easched::experiments::evaluation_hosts(3, 10, 7);
    c.datacenter.seed = t.seed;
    c.horizon_s = kHorizon;
    return c;
  };
  return s;
}

std::uint64_t task_digest(const CallLog& log, const RunResult& r) {
  Digest d;
  d.u64(log.digest.value());
  d.u64(r.events_dispatched);
  d.u64(r.jobs_submitted);
  d.u64(r.jobs_finished);
  d.u64(r.faults_injected);
  const easched::metrics::RunReport& rep = r.report;
  for (const double x : {rep.duration_s, rep.avg_working, rep.avg_online,
                         rep.cpu_hours, rep.energy_kwh, rep.satisfaction,
                         rep.delay_pct}) {
    d.f64(x);
  }
  for (const std::uint64_t x :
       {rep.migrations, rep.creations, rep.turn_ons, rep.turn_offs,
        rep.failures, rep.op_failures, rep.op_timeouts, rep.retries,
        rep.rollbacks, rep.quarantines, rep.breaker_opens}) {
    d.u64(x);
  }
  return d.value();
}

Outcome run_scenario(const Scenario& scenario, const Variant& variant) {
  const std::size_t n = scenario.tasks.size();
  Outcome out;
  out.logs.resize(n);
  if (variant.profile) {
    for (std::size_t i = 0; i < n; ++i) {
      out.obs.push_back(std::make_unique<easched::obs::Observability>());
      out.obs.back()->profiler.enable();
    }
  }
  // Each task writes only its own CallLog and Observability slot, which
  // the benchmark owns and sized before any worker starts.
  const auto config_for = [&scenario, &variant, &out](std::size_t i) {
    const ScenarioTask& task = scenario.tasks[i];
    RunConfig c = scenario.configure(task);
    c.policy_instance = std::make_unique<TimedPolicy>(
        build_policy(task.policy, variant), out.logs[i], variant.pace);
    if (variant.profile) c.obs = out.obs[i].get();
    return c;
  };

  const Clock::time_point t0 = Clock::now();
  if (scenario.sweep) {
    std::vector<easched::experiments::SweepTask> batch;
    for (std::size_t i = 0; i < n; ++i) {
      batch.push_back({&scenario.inputs[scenario.tasks[i].input],
                       [&config_for, i] { return config_for(i); }});
    }
    out.results = easched::experiments::SweepRunner(variant.sweep_threads)
                      .run(std::move(batch));
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      out.results.push_back(easched::experiments::run_experiment(
          scenario.inputs[scenario.tasks[i].input], config_for(i)));
    }
  }
  out.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();

  Digest d;
  for (std::size_t i = 0; i < n; ++i) {
    d.u64(task_digest(out.logs[i], out.results[i]));
  }
  out.digest = d.value();
  return out;
}

}  // namespace perfbench
