// Delta-minimises a failing scenario repro bundle (see validate/repro.hpp).
//
// A bundle is written by the experiment runner when the invariant checker
// trips mid-run (RunConfig.validate.repro_path, or EASCHED_VALIDATE=1 via
// scripts/run_validation.sh). This tool replays the bundled scenario with
// ddmin-reduced job subsets until the violation is pinned to a minimal job
// list, then writes the minimised bundle back out:
//
//   shrink_tool --bundle=repro.txt --out=repro.min.txt [--max-tests=N]
//
// Exit codes: 0 minimised, 1 the bundle does not reproduce, 2 bad usage.
// Typically driven through scripts/shrink_repro.sh, which builds first.
#include <cstdio>
#include <string>

#include "experiments/runner.hpp"
#include "faults/fault_plan.hpp"
#include "support/cli.hpp"
#include "validate/repro.hpp"
#include "validate/shrink.hpp"

namespace {

/// Rebuilds the bundled run configuration. Fresh per replay: run_experiment
/// consumes the config (policy instance, injector wiring).
easched::experiments::RunConfig config_for(
    const easched::validate::ReproBundle& bundle) {
  easched::experiments::RunConfig config;
  config.policy = bundle.policy;
  config.datacenter.hosts = easched::validate::specs_for(bundle.host_classes);
  config.datacenter.seed = bundle.dc_seed;
  config.datacenter.inject_failures = bundle.inject_failures;
  config.datacenter.checkpoint.enabled = bundle.checkpoint_enabled;
  config.datacenter.checkpoint.period_s = bundle.checkpoint_period_s;
  config.driver.power.lambda_min = bundle.lambda_min;
  config.driver.power.lambda_max = bundle.lambda_max;
  config.horizon_s = bundle.horizon_s;
  if (!bundle.fault_spec.empty()) {
    config.faults = easched::faults::parse_fault_plan(bundle.fault_spec);
  }
  config.validate.enabled = true;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace easched;
  support::CliArgs args(argc, argv);
  const std::string bundle_path = args.get("bundle", "");
  const std::string out_path = args.get("out", "");
  validate::ShrinkOptions options;
  options.max_tests =
      static_cast<std::size_t>(args.get_int("max-tests", 2000));
  args.warn_unrecognized();
  if (bundle_path.empty() || out_path.empty()) {
    std::fprintf(stderr,
                 "usage: shrink_tool --bundle=<repro.txt> --out=<min.txt> "
                 "[--max-tests=N]\n");
    return 2;
  }

  validate::ReproBundle bundle =
      validate::read_repro_bundle_file(bundle_path);
  std::printf("bundle: %s — %zu jobs, violation \"%s\" at t=%.3f\n",
              bundle_path.c_str(), bundle.jobs.size(),
              bundle.violation.c_str(), bundle.violation_t);

  std::size_t replays = 0;
  const auto still_fails = [&](const workload::Workload& jobs) {
    if (jobs.empty()) return false;  // run_experiment requires jobs
    ++replays;
    const auto result = experiments::run_experiment(jobs, config_for(bundle));
    return !result.violations.empty();
  };

  const validate::ShrinkResult result =
      validate::shrink_workload(bundle.jobs, still_fails, options);
  if (!result.reproduced) {
    std::fprintf(stderr,
                 "bundle does not reproduce a violation (was it recorded "
                 "under a different build?)\n");
    return 1;
  }

  std::printf("shrunk %zu -> %zu jobs in %zu replays\n", bundle.jobs.size(),
              result.jobs.size(), replays);
  bundle.jobs = result.jobs;
  validate::write_repro_bundle_file(out_path, bundle);
  std::printf("minimised bundle written to %s\n", out_path.c_str());
  return 0;
}
