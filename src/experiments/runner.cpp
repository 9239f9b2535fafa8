#include "experiments/runner.hpp"

#include <cstdlib>
#include <optional>
#include <stdexcept>

#include "experiments/repro.hpp"
#include "experiments/setup.hpp"
#include "faults/fault_injector.hpp"
#include "sim/simulator.hpp"
#include "support/contracts.hpp"
#include "support/key_table.hpp"
#include "validate/validate.hpp"

namespace easched::experiments {

namespace {

std::string breaker_text(const faults::BreakerPolicy& b) {
  return "threshold=" + support::format_value(b.threshold) +
         ",probe_after=" + support::format_value(b.probe_after_s) +
         ",dead_after=" + support::format_value(b.dead_after);
}

}  // namespace

RunResult run_experiment(const workload::Workload& jobs, RunConfig config) {
  EA_EXPECTS(!jobs.empty());

  if (!config.validate.enabled) {
    // Flip validation on from the environment without touching the config.
    const char* env = std::getenv("EASCHED_VALIDATE");
    if (env != nullptr && env[0] != '\0' &&
        !(env[0] == '0' && env[1] == '\0')) {
      config.validate.enabled = true;
    }
  }

  sim::Simulator simulator;
  metrics::Recorder recorder(config.datacenter.hosts.size());
  recorder.obs = config.obs;

  std::optional<faults::FaultInjector> injector;
  if (config.faults.enabled) {
    injector.emplace(config.faults);
    config.datacenter.fault_injector = &*injector;
    // An armed breaker in the fault plan switches the resilience control
    // plane on for its circuit-breaker half even without a --resilience=
    // spec (watchdog and admission stay at their inert defaults). Two
    // different armed policies have no winner, so the run refuses them.
    if (config.faults.breakers.threshold > 0) {
      const faults::BreakerPolicy& own = config.resilience.breakers;
      if (config.resilience.enabled && own.threshold > 0 &&
          own != config.faults.breakers) {
        throw std::invalid_argument(
            "breaker policy set twice: fault plan " +
            breaker_text(config.faults.breakers) + ", resilience config " +
            breaker_text(own));
      }
      config.resilience.enabled = true;
      config.resilience.breakers = config.faults.breakers;
    }
  }

  std::optional<resilience::ResilienceController> res;
  if (config.resilience.enabled) {
    res.emplace(config.resilience, recorder, config.datacenter.hosts.size());
    recorder.resilience = &*res;
  }

  datacenter::Datacenter dc(simulator, config.datacenter, recorder);

  std::unique_ptr<sched::Policy> policy =
      config.policy_instance ? std::move(config.policy_instance)
                             : make_policy(config.policy);

  std::optional<validate::InvariantChecker> checker;
  std::string repro_written;
  if (config.validate.enabled) {
    checker.emplace(config.validate.checker);
    recorder.validator = &*checker;
    simulator.set_observer(&*checker);
    checker->on_violation = [&config, &jobs, &recorder, &policy,
                             &repro_written](const validate::Violation& v) {
      const std::string what =
          std::string(validate::to_string(v.rule)) + ": " + v.message;
      if (auto* e = obs::record(recorder, v.t,
                                obs::EventKind::kInvariantViolation)) {
        e->label = what;
        e->arg("rule", static_cast<double>(static_cast<int>(v.rule)));
      }
      if (config.validate.repro_path.empty() || !repro_written.empty()) {
        return;
      }
      // First violation: the run's config (under the name of the policy
      // actually run) plus the workload slice submitted so far.
      config.policy = policy->name();
      write_repro_bundle_file(config.validate.repro_path, config, {what, v.t},
                              jobs);
      repro_written = config.validate.repro_path;
    };
  }

  sched::SchedulerDriver driver(simulator, dc, *policy, config.driver);
  if (auto* e = obs::record(recorder, simulator.now(),
                            obs::EventKind::kRunBegin)) {
    e->label = policy->name();
    e->arg("hosts", static_cast<double>(config.datacenter.hosts.size()))
        .arg("jobs", static_cast<double>(jobs.size()));
  }
  driver.submit_workload(jobs);
  driver.on_all_done = [&simulator] { simulator.stop(); };

  // Live telemetry: register the sampling periodic only when a plane is
  // enabled — an untouched run schedules no extra events and stays
  // bit-identical to a run with no telemetry plane.
  obs::TelemetryPlane* telemetry = obs::telemetry(recorder);
  obs::TelemetryPlane::Sources telemetry_src;
  if (telemetry != nullptr) {
    telemetry_src.dc = &dc;
    telemetry_src.driver = &driver;
    telemetry_src.recorder = &recorder;
    telemetry_src.lambda_min = config.driver.power.lambda_min;
    telemetry_src.lambda_max = config.driver.power.lambda_max;
    telemetry->sample(simulator.now(), telemetry_src);  // t=0 baseline
    simulator.every(telemetry->config().period_s,
                    [telemetry, &telemetry_src, &simulator, &driver] {
                      // The adaptive-threshold extension moves the lambdas
                      // over time; snapshot the live band.
                      telemetry_src.lambda_min =
                          driver.thresholds().lambda_min;
                      telemetry_src.lambda_max =
                          driver.thresholds().lambda_max;
                      telemetry->sample(simulator.now(), telemetry_src);
                    });
  }

  if (config.horizon_s > 0) {
    simulator.run_until(config.horizon_s);
  } else {
    simulator.run();
  }

  RunResult result;
  result.end_time_s = simulator.now();
  result.jobs_submitted = driver.submitted();
  result.jobs_finished = driver.finished();
  result.jobs_shed = driver.shed();
  result.events_dispatched = simulator.dispatched();
  result.events_cancelled = simulator.cancelled();
  result.hit_horizon = config.horizon_s > 0 && !driver.all_done();
  // Feed the kernel counters through the recorder before the report is
  // built, so sim.events_* rows land in every registry snapshot.
  recorder.counts.events_dispatched = result.events_dispatched;
  recorder.counts.events_cancelled = result.events_cancelled;
  recorder.counts.events_kept = simulator.kept();
  // Close the energy ledger's integration window at the same end time the
  // report integrates to, so the attributed joules and the aggregate
  // energy_kwh cover the identical interval.
  if (auto* el = obs::ledger(recorder)) {
    el->finish(simulator.now());
  }
  // Close the telemetry stream at the same end time: one final sample (when
  // the cadence missed the endpoint) and a sink flush.
  if (telemetry != nullptr) {
    telemetry->finish(simulator.now(), telemetry_src);
  }
  result.report =
      make_report(recorder, simulator.now(), policy->name(),
                  config.driver.power.lambda_min,
                  config.driver.power.lambda_max);
  if (injector) result.faults_injected = injector->injected_count();
  if (checker) {
    result.violations = checker->violations();
    result.invariant_checks = checker->checks_run();
    result.repro_path = repro_written;
    simulator.set_observer(nullptr);
    recorder.validator = nullptr;
  }
  // Post-run aggregation, not hot-path instrumentation: runs whenever a
  // bundle is attached, whichever of its instruments are enabled.
  if (config.obs != nullptr) {
    config.obs->registry.set_sim_time(simulator.now());
    obs::publish_run_metrics(recorder, config.obs->registry);
  }
  return result;
}

}  // namespace easched::experiments
