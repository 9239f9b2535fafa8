// Overhead gates: a subsystem that is attached but has nothing to do must
// cost nothing.
//
//   bench_overhead [--component=obs|attribution|telemetry|resilience|fleet]
//                  [--repeats=N] [--smoke]
//
// Each component names two or three configurations ("variants") of the
// same run:
//   [0] the baseline — the subsystem absent, or the reference path;
//   [1] the variant that must be free — the subsystem attached but off
//       (or idle), or the fast path that must not lose where it has the
//       least to win;
//   [2] optionally the paid path — the subsystem switched on, reported
//       for context with no time budget.
//
// All variants run once per repeat, interleaved, so machine-wide drift
// (thermal throttling, background load) biases every variant equally.
// Each run gets a fresh, unattached Observability bundle; a variant's
// setup decides what to enable and whether to attach it.
//
// `--smoke` (the bench_*_smoke ctest entries, one per component) exits
// non-zero unless (a) variant [1] is behaviourally identical to the
// baseline — same event count, bit-identical energy, migrations and
// satisfaction — (b) the median of the per-repeat paired deltas (variant
// [1] minus the baseline of the same repeat, which cancels slow drift a
// min-vs-min comparison cannot) stays within 2 % of the median baseline
// time plus 5 ms of absolute slack for timer jitter on loaded machines,
// and (c) every check the component adds holds. Runs are timed in CPU
// time of the (single) run thread, so time the core spends on other
// processes is not billed to whichever variant was running. Without
// `--component` every component runs.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/score_based_policy.hpp"
#include "obs/obs.hpp"
#include "resilience/resilience.hpp"
#include "support/cli.hpp"

namespace {

using namespace easched;

using Require = std::function<void(bool ok, const char* what)>;

struct Variant {
  const char* label;
  /// Turns the component's config into this variant; `bundle` is fresh
  /// each run and attached only if the setup sets `config.obs`. Null
  /// leaves the config as it is.
  std::function<void(experiments::RunConfig& config,
                     obs::Observability& bundle)>
      setup;
};

/// What the repeats of one variant left behind.
struct Timed {
  std::vector<double> ms;  ///< one thread-CPU-time sample per repeat
  experiments::RunResult result;               ///< last repeat's
  std::unique_ptr<obs::Observability> bundle;  ///< last repeat's
};

struct Component {
  const char* name;
  std::function<workload::Workload()> workload;
  std::function<experiments::RunConfig()> config;
  std::vector<Variant> variants;  ///< baseline, must-be-free, [paid]
  /// Component-specific requirements on the variants' runs (same order),
  /// checked after the timed repeats.
  std::function<void(const std::vector<Timed>&, const Require&)> checks;
};

void attach(experiments::RunConfig& config, obs::Observability& bundle) {
  config.obs = &bundle;
}

// The obs/attribution/telemetry/resilience scenario: a busy week on a
// small fleet, long enough that a per-event cost would show.
workload::Workload busy_week() {
  workload::SyntheticConfig c;
  c.seed = bench::kSeed;
  c.span_seconds = 7.0 * sim::kDay;
  c.mean_jobs_per_hour = 25;
  return workload::generate(c);
}

experiments::RunConfig busy_week_config() {
  experiments::RunConfig config;
  config.datacenter.hosts = experiments::evaluation_hosts(8, 20, 12);
  config.datacenter.seed = bench::kSeed;
  config.policy = "SB";
  config.horizon_s = 90 * sim::kDay;
  return config;
}

std::vector<Component> components() {
  std::vector<Component> all;

  all.push_back(
      {"obs",
       busy_week,
       busy_week_config,
       {{"baseline", nullptr},
        {"disabled", attach},
        {"tracing",
         [](experiments::RunConfig& config, obs::Observability& bundle) {
           bundle.tracer.enable();
           bundle.profiler.enable();
           config.obs = &bundle;
         }}},
       [](const std::vector<Timed>& v, const Require& require) {
         const std::size_t events = v[2].bundle->tracer.size();
         std::printf("  tracing recorded %zu events/run\n", events);
         require(v[1].bundle->tracer.size() == 0,
                 "disabled tracer recorded no events");
         require(events > 0, "enabled tracer recorded events");
       }});

  all.push_back(
      {"attribution",
       busy_week,
       busy_week_config,
       {{"baseline", nullptr},
        {"disabled", attach},
        {"attributed",
         [](experiments::RunConfig& config, obs::Observability& bundle) {
           bundle.ledger.enable();
           bundle.decisions.enable();
           config.obs = &bundle;
         }}},
       [](const std::vector<Timed>& v, const Require& require) {
         const obs::Observability& off = *v[1].bundle;
         require(off.ledger.total_j() == 0,
                 "disabled ledger integrated no joules");
         require(off.decisions.size() == 0,
                 "disabled decision log recorded no decisions");
         const double report_kwh = v[2].result.report.energy_kwh;
         require(report_kwh == v[0].result.report.energy_kwh,
                 "attribution does not perturb the simulation");
         // The ledger watches the identical power signal, so the books
         // must balance.
         const double ledger_kwh = v[2].bundle->ledger.total_j() / 3.6e6;
         const double rel =
             report_kwh > 0 ? std::fabs(ledger_kwh - report_kwh) / report_kwh
                            : 1.0;
         std::printf("  ledger %0.6f kWh vs report %0.6f kWh (rel %.2e)\n",
                     ledger_kwh, report_kwh, rel);
         require(rel <= 1e-3, "ledger joules within 0.1% of RunReport");
         require(v[2].bundle->decisions.size() > 0,
                 "decision log recorded decisions");
       }});

  all.push_back(
      {"telemetry",
       busy_week,
       busy_week_config,
       {{"baseline", nullptr},
        {"disabled", attach},
        {"sampled",
         [](experiments::RunConfig& config, obs::Observability& bundle) {
           bundle.telemetry.enable();
           bundle.telemetry.add_sink(std::make_unique<obs::MemorySink>());
           bundle.telemetry.set_alert_rules(
               obs::parse_alert_rules("queue_depth>50 for=600"));
           config.obs = &bundle;
         }}},
       [](const std::vector<Timed>& v, const Require& require) {
         const std::uint64_t samples = v[2].bundle->telemetry.samples_taken();
         std::printf("  sampled run took %llu samples\n",
                     static_cast<unsigned long long>(samples));
         require(v[1].bundle->telemetry.samples_taken() == 0,
                 "disabled plane took no samples");
         // The sampling periodic adds events to the queue but must never
         // change what the simulation computes.
         const metrics::RunReport& base = v[0].result.report;
         const metrics::RunReport& sampled = v[2].result.report;
         require(sampled.energy_kwh == base.energy_kwh &&
                     sampled.migrations == base.migrations &&
                     sampled.satisfaction == base.satisfaction,
                 "sampling does not perturb the simulation");
         require(samples > 0, "enabled plane sampled the run");
       }});

  all.push_back(
      {"resilience",
       busy_week,
       busy_week_config,
       {{"baseline", nullptr},
        // Enabled with every mechanism neutralised; the per-round
        // bookkeeping still runs.
        {"idle",
         [](experiments::RunConfig& config, obs::Observability&) {
           config.resilience.enabled = true;
           config.resilience.solver_budget_moves = 0;  // watchdog off
           config.resilience.max_pending = 0;          // admission off
           config.resilience.breakers.threshold = 0;    // breakers off
         }}},
       [](const std::vector<Timed>& v, const Require& require) {
         const experiments::RunResult& idle = v[1].result;
         require(idle.jobs_shed == 0 && idle.report.jobs_deferred == 0,
                 "idle controller shed or deferred nothing");
         require(idle.report.solver_breaches == 0 &&
                     idle.report.max_ladder_level == 0,
                 "idle controller never walked the ladder");
       }});

  // The incremental scheduling core where it has the least to win: the
  // 100-host evaluation week, where dirty fractions are high and fleets
  // small. BENCH_fleet.json covers the fleet sizes where it pays.
  const auto score_based = [](bool incremental) {
    return [incremental](experiments::RunConfig& config,
                         obs::Observability&) {
      core::ScoreBasedConfig cfg = core::ScoreBasedConfig::sb();
      cfg.incremental = incremental;
      config.policy_instance = std::make_unique<core::ScoreBasedPolicy>(cfg);
    };
  };
  all.push_back({"fleet",
                 [] { return bench::week_workload(); },
                 [] { return bench::week_run_config("SB"); },
                 {{"reference", score_based(false)},
                  {"incremental", score_based(true)}},
                 nullptr});

  return all;
}

/// CPU time of the calling thread [ms]. A run is single-threaded, so this
/// is its cost; unlike wall time it does not grow while other processes
/// hold the core.
double thread_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return 1e3 * static_cast<double>(ts.tv_sec) +
         1e-6 * static_cast<double>(ts.tv_nsec);
}

void run_once(Timed& out, const Variant& variant, const Component& component,
              const workload::Workload& jobs) {
  experiments::RunConfig config = component.config();
  auto bundle = std::make_unique<obs::Observability>();
  if (variant.setup) variant.setup(config, *bundle);
  const double begin = thread_cpu_ms();
  out.result = experiments::run_experiment(jobs, std::move(config));
  out.ms.push_back(thread_cpu_ms() - begin);
  out.bundle = std::move(bundle);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0 : (n % 2 == 1 ? v[n / 2]
                                  : 0.5 * (v[n / 2 - 1] + v[n / 2]));
}

/// Times every variant of `component`, prints the table and runs the
/// checks. Returns the number of failed checks.
int run_component(const Component& component, int repeats) {
  const workload::Workload jobs = component.workload();
  const std::vector<Variant>& variants = component.variants;
  std::printf("%s overhead: %zu jobs, median of %d interleaved runs each\n",
              component.name, jobs.size(), repeats);

  {
    // Untimed warm-up: the first run pays allocator/page-cache costs that
    // would otherwise be billed to whichever variant goes first.
    Timed warmup;
    run_once(warmup, variants[0], component, jobs);
  }
  std::vector<Timed> v(variants.size());
  for (int i = 0; i < repeats; ++i) {
    for (std::size_t k = 0; k < v.size(); ++k) {
      run_once(v[k], variants[k], component, jobs);
    }
  }

  // Paired deltas against the baseline run of the same repeat.
  const double base_ms = median(v[0].ms);
  double gated_ms = 0;
  std::printf("  %-12s %8.1f ms\n", variants[0].label, base_ms);
  for (std::size_t k = 1; k < v.size(); ++k) {
    std::vector<double> delta;
    for (int i = 0; i < repeats; ++i) delta.push_back(v[k].ms[i] - v[0].ms[i]);
    const double delta_ms = median(delta);
    std::printf("  %-12s %+8.1f ms  (%+.2f%%)\n", variants[k].label,
                delta_ms, 100.0 * delta_ms / base_ms);
    if (k == 1) gated_ms = delta_ms;
  }

  int failed = 0;
  const Require require = [&failed](bool ok, const char* what) {
    if (!ok) {
      std::printf("FAIL: %s\n", what);
      ++failed;
    }
  };
  const experiments::RunResult& base = v[0].result;
  const experiments::RunResult& gated = v[1].result;
  const std::string identical = std::string(variants[1].label) +
                                " run is bit-identical to the " +
                                variants[0].label + " run";
  require(gated.events_dispatched == base.events_dispatched &&
              gated.report.energy_kwh == base.report.energy_kwh &&
              gated.report.migrations == base.report.migrations &&
              gated.report.satisfaction == base.report.satisfaction,
          identical.c_str());
  const std::string budget = std::string(variants[1].label) +
                             " within 2% (+5 ms) of " + variants[0].label;
  require(gated_ms <= base_ms * 0.02 + 5.0, budget.c_str());
  if (component.checks) component.checks(v, require);
  return failed;
}

}  // namespace

int main(int argc, char** argv) {
  support::CliArgs args(argc, argv);
  const bool smoke = args.get_bool("smoke", false);
  const int repeats = static_cast<int>(args.get_int("repeats", 7));
  const std::string only = args.get("component", "");
  args.warn_unrecognized();

  int failed = 0;
  bool found = false;
  for (const Component& component : components()) {
    if (!only.empty() && only != component.name) continue;
    found = true;
    failed += run_component(component, repeats);
  }
  if (!found) {
    std::fprintf(stderr,
                 "bench_overhead: unknown --component=%s (expected obs, "
                 "attribution, telemetry, resilience or fleet)\n",
                 only.c_str());
    return 2;
  }
  if (!smoke) return 0;
  std::printf(failed == 0 ? "SMOKE OK\n" : "SMOKE FAIL\n");
  return failed == 0 ? 0 : 1;
}
