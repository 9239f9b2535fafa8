// Simulation-kernel benchmark: the pooled event queue against the pre-pool
// reference implementation, whole-run throughput, and sweep-harness scaling.
//
// Four sections:
//   churn          — push N random-time events, pop them all (the queue's
//                    steady-state arrival/dispatch pattern)
//   cancel_resched — cancel + re-push against a standing live set (the
//                    simulator's VM-finish rescheduling pattern)
//   whole_run_week — events/sec of the full SB week reproduction on the
//                    simulator's (pooled) queue
//   sweep          — wall-clock of a small threshold grid under
//                    SweepRunner(1) vs SweepRunner(4)
//
// Both microbench sections drive PooledEventQueue and ReferenceEventQueue
// in the same binary, interleaved within each repeat so machine-wide drift
// biases both equally.
//
// `--smoke` (the `bench_sim_smoke` ctest entry) runs reduced-size
// microbenches only and exits non-zero if the pooled queue is slower than
// the reference on either pattern (small multiplicative slack for timer
// jitter). `--json` emits the measurements as an easched.baseline/1
// document, committed as BENCH_sim.json by scripts/refresh_bench.sh: times
// may rise and rates fall 25 % against it, the week's event count is exact.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "obs/attribution/summary_diff.hpp"
#include "sim/event_queue.hpp"
#include "sim/reference_event_queue.hpp"
#include "support/cli.hpp"

namespace {

using namespace easched;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0
               : (n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]));
}

/// Push `n` events at pseudo-random times, then pop the queue dry.
/// Returns elapsed ms; `sink` guards against the loop being optimised out.
template <typename Queue>
double churn_once(int n, int& sink) {
  Queue q;
  int fired = 0;
  const auto t0 = Clock::now();
  for (int i = 0; i < n; ++i) {
    q.push(static_cast<sim::SimTime>((i * 2654435761u) % 100000),
           [&fired] { ++fired; });
  }
  while (!q.empty()) q.pop().action();
  const double ms = ms_since(t0);
  sink += fired;
  return ms;
}

/// Maintain a standing set of `live` events; each round cancels one,
/// re-pushes it, and every fourth round pops. The simulator does exactly
/// this for VM-finish events on every CPU reallocation.
template <typename Queue>
double cancel_resched_once(int live, int rounds, int& sink) {
  Queue q;
  std::vector<decltype(q.push(0, [] {}))> ids(
      static_cast<std::size_t>(live));
  sim::SimTime t = 0;
  for (int i = 0; i < live; ++i) ids[i] = q.push(1000 + i, [] {});
  const auto t0 = Clock::now();
  for (int i = 0; i < rounds; ++i) {
    const auto k = static_cast<std::size_t>(
        (static_cast<std::uint64_t>(i) * 48271u) % static_cast<std::uint64_t>(live));
    q.cancel(ids[k]);
    ids[k] = q.push(t + 500 + (i % 997), [] {});
    if (i % 4 == 0) t = q.pop().time;
  }
  const double ms = ms_since(t0);
  sink += static_cast<int>(q.size());
  return ms;
}

}  // namespace

int main(int argc, char** argv) {
  support::CliArgs args(argc, argv);
  const bool smoke = args.get_bool("smoke", false);
  const bool json = args.get_bool("json", false);
  const bool skip_week = args.get_bool("skip-week", smoke);
  const bool skip_sweep = args.get_bool("skip-sweep", smoke);
  const int reps = static_cast<int>(args.get_int("reps", smoke ? 3 : 5));
  args.warn_unrecognized();

  std::vector<obs::BaselineMetric> rows;
  int sink = 0;

  // ---- churn + cancel_resched, pooled vs reference, interleaved --------
  const int churn_n = smoke ? 50000 : 200000;
  const int cr_live = 2000;
  const int cr_rounds = smoke ? 30000 : 100000;
  std::vector<double> churn_pooled, churn_ref, cr_pooled, cr_ref;
  for (int r = 0; r < reps; ++r) {
    churn_pooled.push_back(churn_once<sim::PooledEventQueue>(churn_n, sink));
    churn_ref.push_back(churn_once<sim::ReferenceEventQueue>(churn_n, sink));
    cr_pooled.push_back(
        cancel_resched_once<sim::PooledEventQueue>(cr_live, cr_rounds, sink));
    cr_ref.push_back(cancel_resched_once<sim::ReferenceEventQueue>(
        cr_live, cr_rounds, sink));
  }
  // churn does one push + one pop per event.
  const double churn_pooled_ns = median(churn_pooled) * 1e6 / (2.0 * churn_n);
  const double churn_ref_ns = median(churn_ref) * 1e6 / (2.0 * churn_n);
  const double cr_pooled_ns = median(cr_pooled) * 1e6 / cr_rounds;
  const double cr_ref_ns = median(cr_ref) * 1e6 / cr_rounds;
  rows.push_back({"churn_pooled", churn_pooled_ns, "ns/op", "lower", -1, 0.25});
  rows.push_back({"churn_reference", churn_ref_ns, "ns/op", "lower", -1, 0.25});
  rows.push_back({"cancel_resched_pooled", cr_pooled_ns, "ns/op",
                  "lower", -1, 0.25});
  rows.push_back({"cancel_resched_reference", cr_ref_ns, "ns/op",
                  "lower", -1, 0.25});

  if (!json) {
    std::printf("churn (push+pop, n=%d):    pooled %7.1f ns/op,  "
                "reference %7.1f ns/op  (%.2fx)\n",
                churn_n, churn_pooled_ns, churn_ref_ns,
                churn_ref_ns / churn_pooled_ns);
    std::printf("cancel+reschedule (live=%d): pooled %7.1f ns/op,  "
                "reference %7.1f ns/op  (%.2fx)\n",
                cr_live, cr_pooled_ns, cr_ref_ns, cr_ref_ns / cr_pooled_ns);
  }

  // ---- whole-run week events/sec (through the build's EventQueue) ------
  if (!skip_week) {
    const auto jobs = bench::week_workload();
    double best_ms = 0;
    std::uint64_t dispatched = 0;
    const int week_reps = static_cast<int>(args.get_int("week-reps", 1));
    for (int r = 0; r < week_reps; ++r) {
      const auto t0 = Clock::now();
      const auto res = experiments::run_experiment(
          jobs, bench::week_run_config("SB", 0.30, 0.90));
      const double ms = ms_since(t0);
      if (r == 0 || ms < best_ms) best_ms = ms;
      dispatched = res.events_dispatched;
    }
    const double events_per_sec = dispatched / (best_ms / 1000.0);
    rows.push_back({"whole_run_week_ms", best_ms, "ms", "lower", -1, 0.25});
    rows.push_back({"whole_run_week_events", static_cast<double>(dispatched),
                    "events", "", 0, -1});
    rows.push_back({"whole_run_week_events_per_sec", events_per_sec, "events/s",
                    "higher", -1, 0.25});
    if (!json) {
      std::printf("whole-run week (SB 30-90, pooled queue): %.0f ms, "
                  "%llu events, %.0f events/sec\n",
                  best_ms, static_cast<unsigned long long>(dispatched),
                  events_per_sec);
    }
  }

  // ---- sweep harness scaling on a small grid ---------------------------
  if (!skip_sweep) {
    workload::SyntheticConfig wl;
    wl.seed = bench::kSeed;
    wl.span_seconds = 0.75 * sim::kDay;
    wl.mean_jobs_per_hour = 10;
    const auto jobs = workload::generate(wl);
    const auto grid = [&jobs] {
      std::vector<experiments::SweepTask> tasks;
      for (double lmin : {0.10, 0.30, 0.50, 0.70}) {
        for (double lmax : {0.80, 1.00}) {
          tasks.push_back({&jobs, [lmin, lmax] {
                             experiments::RunConfig config;
                             config.datacenter.hosts =
                                 experiments::evaluation_hosts(4, 10, 6);
                             config.datacenter.seed = 5;
                             config.policy = "SB";
                             config.driver.power.lambda_min = lmin;
                             config.driver.power.lambda_max = lmax;
                             return config;
                           }});
        }
      }
      return tasks;
    };
    const auto time_sweep = [&grid](int threads) {
      experiments::SweepRunner sweep(threads);
      const auto t0 = Clock::now();
      const auto results = sweep.run(grid());
      double ms = ms_since(t0);
      return results.empty() ? 0.0 : ms;
    };
    time_sweep(1);  // warm-up (page cache, allocator)
    const double serial_ms = time_sweep(1);
    const double threaded_ms = time_sweep(4);
    rows.push_back({"sweep_grid8_threads1_ms", serial_ms, "ms",
                    "lower", -1, 0.25});
    rows.push_back({"sweep_grid8_threads4_ms", threaded_ms, "ms",
                    "lower", -1, 0.25});
    rows.push_back({"sweep_grid8_speedup", serial_ms / threaded_ms, "x",
                    "higher", -1, 0.25});
    if (!json) {
      std::printf("sweep (8-point grid): 1 thread %.0f ms, 4 threads "
                  "%.0f ms (%.2fx, %u hw threads)\n",
                  serial_ms, threaded_ms, serial_ms / threaded_ms,
                  std::thread::hardware_concurrency());
    }
  }

  if (json) {
    obs::write_baseline(
        std::cout,
        {{"queue", "pooled"},
         {"hw_threads", std::to_string(std::thread::hardware_concurrency())},
         {"reps", std::to_string(reps)},
         {"week", skip_week ? "skipped" : "run"},
         {"sweep", skip_sweep ? "skipped" : "run"}},
        rows);
  }

  if (smoke) {
    // The pooled queue must not regress below the seed implementation on
    // either pattern. 15 % multiplicative slack absorbs timer jitter on
    // loaded single-core CI machines; the expected margin is several x.
    bool ok = true;
    const auto require = [&ok](const char* what, double pooled, double ref) {
      const bool pass = pooled <= ref * 1.15;
      std::printf("smoke: %s pooled %.1f ns/op vs reference %.1f ns/op -> "
                  "%s\n", what, pooled, ref, pass ? "PASS" : "FAIL");
      ok = ok && pass;
    };
    require("churn", churn_pooled_ns, churn_ref_ns);
    require("cancel+reschedule", cr_pooled_ns, cr_ref_ns);
    if (sink == 0) ok = false;  // keep the sink observable
    return ok ? 0 : 1;
  }
  return sink != 0 ? 0 : 1;
}
