// Quickstart: the smallest complete use of the public API.
//
// Builds a 10-node datacenter, synthesises a half-day workload, runs the
// paper's score-based policy against plain backfilling, and prints the
// table-style reports. Start here to see how the pieces wire together:
//   workload  ->  Datacenter + SchedulerDriver(policy)  ->  RunReport
//
// Usage: quickstart [--policy SB|BF|RD|RR|DBF|SB0|SB1|SB2] [--seed N]
//                    [--trace=out.jsonl] [--trace-format=jsonl|chrome]
//                    [--metrics-out=metrics.json] [--profile]
//                    [--summary-out=run_summary.json] [--attribution]
#include <cstdio>

#include "experiments/runner.hpp"
#include "experiments/setup.hpp"
#include "obs/obs_cli.hpp"
#include "support/cli.hpp"
#include "workload/synthetic.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace easched;
  support::CliArgs args(argc, argv);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int("seed", 7));

  // 1. A small datacenter: 2 fast, 5 medium, 3 slow nodes.
  experiments::RunConfig config;
  config.datacenter.hosts.clear();
  for (int i = 0; i < 2; ++i)
    config.datacenter.hosts.push_back(datacenter::HostSpec::fast());
  for (int i = 0; i < 5; ++i)
    config.datacenter.hosts.push_back(datacenter::HostSpec::medium());
  for (int i = 0; i < 3; ++i)
    config.datacenter.hosts.push_back(datacenter::HostSpec::slow());
  config.datacenter.seed = seed;

  // 2. Half a day of synthetic grid jobs scaled to this small cluster.
  workload::SyntheticConfig wl;
  wl.seed = seed;
  wl.span_seconds = 12 * sim::kHour;
  wl.mean_jobs_per_hour = 6;
  const workload::Workload jobs = workload::generate(wl);
  std::printf("workload: %s\n",
              workload::describe(workload::compute_stats(jobs)).c_str());

  // 3. Run the chosen policy (paper thresholds lambda = 30-90 %).
  config.policy = args.get("policy", "SB");
  config.driver.power.lambda_min = 0.30;
  config.driver.power.lambda_max = 0.90;

  // 4. Optional observability: --trace/--metrics-out/--profile.
  const obs::ObsOptions obs_opts = obs::options_from_cli(args);
  args.warn_unrecognized();
  obs::Observability observability;
  if (obs::wants_observability(obs_opts)) {
    obs::configure(observability, obs_opts);
    config.obs = &observability;
  }

  const auto result = experiments::run_experiment(jobs, std::move(config));
  std::printf("%s\n", result.report.to_string().c_str());
  std::printf("jobs finished: %zu/%zu, events: %llu, simulated %.1f h\n",
              result.jobs_finished, result.jobs_submitted,
              static_cast<unsigned long long>(result.events_dispatched),
              result.end_time_s / sim::kHour);
  obs::finish(observability, obs_opts, &result.report);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return easched::support::run_guarded(argc, argv, run);
}
