// Full-scale reproduction run: the paper's 100-node datacenter executing a
// week of Grid-like workload under any of the implemented policies.
//
// This is the workhorse the Table II-V benches wrap; as an example it lets
// you reproduce any single cell of those tables from the command line, or
// point the simulator at a real SWF trace (e.g. Grid5000 from the Grid
// Workloads Archive) instead of the synthetic workload.
//
// Usage:
//   datacenter_week [--policy SB] [--lmin 0.3] [--lmax 0.9] [--seed N]
//                   [--swf path/to/trace.swf] [--csv]
//                   [--faults "migrate.fail=0.05,lemon=3:8" | --faults file]
//                   [--trace=out.jsonl] [--trace-format=jsonl|chrome]
//                   [--metrics-out=metrics.json] [--profile]
//                   [--summary-out=run_summary.json] [--attribution]
//                   [--telemetry-out=tl.jsonl] [--prom-out=metrics.prom]
//                   [--alerts="power_w>25000 for=300"] [--live]
#include <cstdio>

#include "experiments/runner.hpp"
#include "experiments/setup.hpp"
#include "faults/fault_plan.hpp"
#include "obs/obs_cli.hpp"
#include "support/cli.hpp"
#include "workload/swf.hpp"
#include "workload/synthetic.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace easched;
  support::CliArgs args(argc, argv);

  workload::Workload jobs;
  const std::string swf = args.get("swf", "");
  if (!swf.empty()) {
    jobs = workload::read_swf_file(swf);
  } else {
    jobs = workload::evaluation_workload(
        static_cast<std::uint64_t>(args.get_int("seed", 20071001)));
  }
  std::printf("workload: %s\n",
              workload::describe(workload::compute_stats(jobs)).c_str());

  experiments::RunConfig config;
  config.datacenter = experiments::evaluation_datacenter(
      static_cast<std::uint64_t>(args.get_int("seed", 20071001)));
  config.policy = args.get("policy", "SB");
  config.driver.power.lambda_min = args.get_double("lmin", 0.30);
  config.driver.power.lambda_max = args.get_double("lmax", 0.90);
  if (args.has("faults")) {
    config.faults = faults::parse_fault_plan(args.get("faults", ""));
  }
  const bool csv = args.get_bool("csv", false);
  const obs::ObsOptions obs_opts = obs::options_from_cli(args);
  args.warn_unrecognized();
  obs::Observability observability;
  if (obs::wants_observability(obs_opts)) {
    obs::configure(observability, obs_opts);
    config.obs = &observability;
  }

  const auto result = experiments::run_experiment(jobs, std::move(config));
  if (csv) {
    const auto& r = result.report;
    std::printf("policy,lmin,lmax,work,on,cpu_h,kwh,s,delay,migrations\n");
    std::printf("%s,%.2f,%.2f,%.2f,%.2f,%.1f,%.1f,%.2f,%.2f,%llu\n",
                r.policy.c_str(), r.lambda_min, r.lambda_max, r.avg_working,
                r.avg_online, r.cpu_hours, r.energy_kwh, r.satisfaction,
                r.delay_pct, static_cast<unsigned long long>(r.migrations));
  } else {
    std::printf("%s\n", result.report.to_string().c_str());
    std::printf("jobs %zu/%zu, events %llu, simulated %.1f days\n",
                result.jobs_finished, result.jobs_submitted,
                static_cast<unsigned long long>(result.events_dispatched),
                result.end_time_s / sim::kDay);
    const std::string robustness = result.report.robustness_to_string();
    if (!robustness.empty()) std::printf("%s\n", robustness.c_str());
  }
  obs::finish(observability, obs_opts, &result.report);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return easched::support::run_guarded(argc, argv, run);
}
