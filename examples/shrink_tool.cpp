// Delta-minimises a failing scenario repro bundle (see experiments/repro.hpp).
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

#include "experiments/repro.hpp"
#include "experiments/runner.hpp"
#include "support/cli.hpp"
#include "validate/shrink.hpp"

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

  const experiments::ReproBundle bundle =
      experiments::read_repro_bundle_file(bundle_path);
  std::printf("bundle: %s — %zu jobs, violation \"%s\" at t=%.3f\n",
              bundle_path.c_str(), bundle.jobs.size(),
              bundle.violation.what.c_str(), bundle.violation.t);

  std::size_t replays = 0;
  const auto still_fails = [&](const workload::Workload& jobs) {
    if (jobs.empty()) return false;  // run_experiment requires jobs
    ++replays;
    // Fresh per replay: run_experiment consumes its config.
    return !experiments::run_experiment(
                jobs, experiments::read_repro_bundle_file(bundle_path).config)
                .violations.empty();
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
  experiments::write_repro_bundle_file(out_path, bundle.config,
                                       bundle.violation, result.jobs);
  std::printf("minimised bundle written to %s\n", out_path.c_str());
  return 0;
}
