// Reliability extension demo (paper sections III-A.6 and III-C): a fleet
// where some nodes fail, with checkpointing and the Pfault penalty.
//
// Half the datacenter is flaky (reliability 0.95-0.99); failures strike
// while nodes are up and their VMs bounce back to the queue, recovering
// from the last checkpoint. Run it twice to see the penalty matter:
//   failure_drill                 -> SB-full (Pfault steers VMs to the
//                                   reliable nodes, fewer restarts)
//   failure_drill --policy SB     -> reliability-blind score policy
//
// Operation-level chaos (fault-injection layer) is scripted with --faults:
//   failure_drill --faults="migrate.fail=0.05,create.hang=0.01,lemon=3:8"
// or --faults=<file> holding the same pairs. Every injection and
// recovery action is an event of the structured trace: write it with
// --trace=run.jsonl (also --trace-format=, --metrics-out=, --profile) and
// read the fault events back with
//   trace_tool tail run.jsonl --kind=fault-injected   (or op-failed,
//                                                       quarantine...)
//
// The resilience control plane (solver watchdog, degradation ladder,
// admission control, per-host circuit breakers) is armed with --resilience:
//   failure_drill --resilience=on
//   failure_drill --resilience="budget=64,max_pending=48,breaker_threshold=2"
//                 --faults="create.fail=0.2,lemon=3:8"
// The report then grows a `resilience:` line with breach/ladder/shed/breaker
// counts (see docs/architecture.md, "Resilience control plane").
//
// Live telemetry rides the same observability flags: --telemetry-out=,
// --prom-out=, --alerts= and --live (in-terminal dashboard) — see
// docs/telemetry.md. A drill under --alerts="breaker_open_rate>0.1" is the
// quickest way to watch the alert engine fire.
#include <cstdio>

#include "experiments/runner.hpp"
#include "experiments/setup.hpp"
#include "faults/fault_plan.hpp"
#include "obs/obs_cli.hpp"
#include "resilience/resilience.hpp"
#include "support/cli.hpp"
#include "workload/synthetic.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace easched;
  support::CliArgs args(argc, argv);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int("seed", 99));

  experiments::RunConfig config;
  config.datacenter.hosts = experiments::evaluation_hosts(5, 12, 8);
  for (std::size_t i = 0; i < config.datacenter.hosts.size(); ++i) {
    if (i % 2 == 1) {
      config.datacenter.hosts[i].reliability = 0.95 + 0.04 * (i % 3) / 2.0;
    }
  }
  config.datacenter.inject_failures = true;
  config.datacenter.mean_repair_s = 2 * sim::kHour;
  config.datacenter.checkpoint.enabled = true;
  config.datacenter.checkpoint.period_s = 1800;
  config.datacenter.seed = seed;

  workload::SyntheticConfig wl;
  wl.seed = seed;
  wl.span_seconds = 2 * sim::kDay;
  wl.mean_jobs_per_hour = 4;
  wl.max_fault_tolerance = 0.02;
  const auto jobs = workload::generate(wl);

  config.policy = args.get("policy", "SB-full");
  // A horizon guards against a pathological stall if the fleet melts down.
  config.horizon_s = 30 * sim::kDay;

  if (args.has("faults")) {
    config.faults = faults::parse_fault_plan(args.get("faults", ""));
  }
  if (args.has("resilience")) {
    config.resilience =
        resilience::parse_resilience_spec(args.get("resilience", "on"));
  }
  const obs::ObsOptions obs_opts = obs::options_from_cli(args);
  args.warn_unrecognized();
  obs::Observability observability;
  // With the control plane armed, ride the energy ledger along so the
  // degraded-rung energy split below has data (null-cost otherwise).
  const bool rung_energy = args.has("resilience");
  if (rung_energy || obs::wants_observability(obs_opts)) {
    obs::configure(observability, obs_opts);
    if (rung_energy) observability.ledger.enable();
    config.obs = &observability;
  }

  const auto result = experiments::run_experiment(jobs, std::move(config));
  std::printf("%s\n", result.report.to_string().c_str());
  std::printf("failures: %llu, jobs finished %zu/%zu\n",
              static_cast<unsigned long long>(result.report.failures),
              result.jobs_finished, result.jobs_submitted);
  const std::string robustness = result.report.robustness_to_string();
  if (!robustness.empty()) std::printf("%s\n", robustness.c_str());
  const std::string resil = result.report.resilience_to_string();
  if (!resil.empty()) std::printf("%s\n", resil.c_str());
  if (rung_energy && observability.ledger.total_j() > 0) {
    // Resilience x attribution: how many of the run's joules were burned
    // while the ladder had degraded the solver.
    constexpr double kJPerKwh = 3.6e6;
    const auto& rungs = observability.ledger.rung_j();
    const double full_j = rungs.empty() ? 0.0 : rungs[0];
    double degraded_j = 0;
    for (std::size_t r = 1; r < rungs.size(); ++r) degraded_j += rungs[r];
    const double total_j = observability.ledger.total_j();
    std::printf(
        "attribution: energy full-solver %.2f kWh (%.1f%%), degraded rungs "
        "%.2f kWh (%.1f%%)\n",
        full_j / kJPerKwh, 100.0 * full_j / total_j, degraded_j / kJPerKwh,
        100.0 * degraded_j / total_j);
  }
  obs::finish(observability, obs_opts, &result.report);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return easched::support::run_guarded(argc, argv, run);
}
