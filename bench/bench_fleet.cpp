// Fleet-scale round timing for the cross-round incremental scheduling core
// (core/fleet.hpp): the number behind BENCH_fleet.json.
//
// Main mode. For each fleet size (default 1000/4000/10000 hosts) and churn
// level, a synthetic steady-state scenario is driven round by round: the
// fleet is prepopulated to ~95 % CPU utilization, then every 60 s round a
// fixed number of jobs finishes (their residency is sized so completions
// match arrivals) and the same number arrives into the queue. Only
// `policy.schedule()` is timed — exactly the code the incremental core
// accelerates: the host re-read, the matrix build and the hill-climb
// sweep. Both variants run the identical scenario in one process:
//
//   reference   — ScoreBasedConfig.incremental = false: every round
//                 re-reads all M hosts and evaluates the matrix without
//                 pruning or persistent columns (the executable spec);
//   incremental — the cross-round FleetState path: dirty-journal re-reads,
//                 capacity-pruned argmin, persistent queued-VM columns.
//
// The two action streams are compared round for round and any divergence
// is a hard failure: the speedup claim is only meaningful if the decisions
// are identical. `--json` emits the rows committed as BENCH_fleet.json
// (scripts/refresh_bench.sh).
//
// The 100-host non-regression gate for the same two variants is
// `bench_overhead --component=fleet` (the `bench_fleet_smoke` ctest entry).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/score_based_policy.hpp"
#include "datacenter/datacenter.hpp"
#include "metrics/accumulators.hpp"
#include "sched/policy.hpp"
#include "sim/simulator.hpp"
#include "support/cli.hpp"
#include "support/rng.hpp"

namespace {

using namespace easched;
using datacenter::HostId;
using datacenter::VmId;

constexpr double kRoundSeconds = 60;
constexpr double kUtilization = 0.95;  ///< prepopulated CPU load fraction
constexpr double kVmCpuPct = 100;
constexpr double kVmMemMb = 512;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0 : (n % 2 == 1 ? v[n / 2]
                                  : 0.5 * (v[n / 2 - 1] + v[n / 2]));
}

double mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

workload::Job churn_job(support::Rng& rng, double submit, double mean_life) {
  workload::Job job;
  job.submit = submit;
  job.dedicated_seconds = rng.uniform(0.5, 1.5) * mean_life;
  job.cpu_pct = kVmCpuPct;
  job.mem_mb = kVmMemMb;
  job.deadline_factor = 10;  // SLA terms are off; keep deadlines inert
  return job;
}

/// One steady-state scenario run: timings plus the emitted action stream
/// (flattened; compared across variants for decision identity).
struct VariantRun {
  std::vector<double> round_ms;        ///< measured rounds only
  std::vector<sched::Action> actions;  ///< every action of every round
  std::uint64_t hosts_reread = 0;      ///< fleet stats (incremental only)
  std::uint64_t refreshes = 0;
};

VariantRun run_variant(std::size_t hosts, int churn, int warmup_rounds,
                       int measured_rounds, bool incremental) {
  sim::Simulator simulator;
  metrics::Recorder recorder(hosts);
  datacenter::DatacenterConfig dconf;
  dconf.hosts.assign(hosts, datacenter::HostSpec::medium());
  dconf.seed = bench::kSeed;
  dconf.duration_sigma_ratio = 0;  // deterministic operation durations
  datacenter::Datacenter dc(simulator, dconf, recorder);

  // Identically seeded in both variants: the workload draw sequence only
  // depends on round structure, which identical decisions keep identical.
  support::Rng wl_rng{bench::kSeed + hosts};
  support::Rng policy_rng{bench::kSeed};

  // Steady state by construction: population such that CPU utilization is
  // kUtilization, residency such that ~`churn` VMs finish per round.
  const double vms_per_host =
      datacenter::HostSpec::medium().cpu_capacity_pct / kVmCpuPct;
  const std::size_t population = static_cast<std::size_t>(
      static_cast<double>(hosts) * vms_per_host * kUtilization);
  const double mean_life = static_cast<double>(population) * kRoundSeconds /
                           static_cast<double>(churn);

  for (std::size_t i = 0; i < population; ++i) {
    const VmId v = dc.admit_job(churn_job(wl_rng, 0, mean_life));
    dc.place(v, static_cast<HostId>(i % hosts));
  }
  simulator.run_until(300);  // initial creations settle into Running

  core::ScoreBasedConfig cfg = core::ScoreBasedConfig::sb2();
  cfg.incremental = incremental;
  core::ScoreBasedPolicy policy(cfg);

  VariantRun out;
  std::vector<VmId> queue;
  std::vector<VmId> still_queued;
  double now = 300;
  for (int round = 0; round < warmup_rounds + measured_rounds; ++round) {
    now += kRoundSeconds;
    simulator.run_until(now);  // completions + op endings, all journaled
    for (int i = 0; i < churn; ++i) {
      queue.push_back(dc.admit_job(churn_job(wl_rng, now, mean_life)));
    }

    const sched::SchedContext ctx{dc, queue, policy_rng};
    const auto begin = std::chrono::steady_clock::now();
    const std::vector<sched::Action> actions = policy.schedule(ctx);
    const auto end = std::chrono::steady_clock::now();
    if (round >= warmup_rounds) {
      out.round_ms.push_back(
          std::chrono::duration<double, std::milli>(end - begin).count());
    }

    still_queued.assign(queue.begin(), queue.end());
    for (const sched::Action& a : actions) {
      out.actions.push_back(a);
      if (a.kind != sched::Action::Kind::kPlace) continue;
      if (!dc.placeable(a.host) || !dc.fits(a.host, a.vm)) continue;
      dc.place(a.vm, a.host);
      std::erase(still_queued, a.vm);
    }
    queue.swap(still_queued);
  }
  return out;
}

bool same_actions(const VariantRun& a, const VariantRun& b) {
  if (a.actions.size() != b.actions.size()) return false;
  for (std::size_t i = 0; i < a.actions.size(); ++i) {
    if (a.actions[i].kind != b.actions[i].kind ||
        a.actions[i].vm != b.actions[i].vm ||
        a.actions[i].host != b.actions[i].host) {
      return false;
    }
  }
  return true;
}

struct Row {
  std::size_t hosts = 0;
  int churn = 0;
  double ref_mean_ms = 0, ref_median_ms = 0;
  double inc_mean_ms = 0, inc_median_ms = 0;
  double speedup = 0;  ///< median reference / median incremental
  bool identical = false;
};

int run_main(const support::CliArgs& args, bool json) {
  std::vector<std::size_t> sizes;
  {
    // --hosts=1000,4000 limits the sweep (default 1000,4000,10000).
    std::string spec = args.get("hosts", "1000,4000,10000");
    std::replace(spec.begin(), spec.end(), ',', ' ');
    std::size_t v = 0;
    for (const char* p = spec.c_str(); std::sscanf(p, "%zu", &v) == 1;) {
      sizes.push_back(v);
      while (*p == ' ') ++p;
      while (*p != '\0' && *p != ' ') ++p;
      if (*p == '\0') break;
    }
  }
  const int rounds = static_cast<int>(args.get_int("rounds", 30));
  const int warmup = static_cast<int>(args.get_int("warmup", 10));

  std::vector<Row> rows;
  int bad = 0;
  for (const std::size_t hosts : sizes) {
    // Two churn levels: ~0.8 % and ~3 % of the fleet turning over per
    // round (dirty-set sizes bracketing a busy production round).
    const int churns[] = {std::max(4, static_cast<int>(hosts / 128)),
                          std::max(16, static_cast<int>(hosts / 32))};
    for (const int churn : churns) {
      if (!json) {
        std::fprintf(stderr, "fleet %zu hosts, churn %d/round...\n", hosts,
                     churn);
      }
      const VariantRun ref =
          run_variant(hosts, churn, warmup, rounds, /*incremental=*/false);
      const VariantRun inc =
          run_variant(hosts, churn, warmup, rounds, /*incremental=*/true);

      Row row;
      row.hosts = hosts;
      row.churn = churn;
      row.ref_mean_ms = mean(ref.round_ms);
      row.ref_median_ms = median(ref.round_ms);
      row.inc_mean_ms = mean(inc.round_ms);
      row.inc_median_ms = median(inc.round_ms);
      row.speedup = row.inc_median_ms > 0
                        ? row.ref_median_ms / row.inc_median_ms
                        : 0;
      row.identical = same_actions(ref, inc);
      rows.push_back(row);
      if (!row.identical) {
        std::fprintf(stderr,
                     "FAIL: action streams diverged at %zu hosts, churn %d\n",
                     hosts, churn);
        bad = 1;
      }
    }
  }

  if (json) {
    std::printf("{\n  \"benchmark\": \"fleet_round\",\n");
    std::printf("  \"rounds\": %d, \"warmup\": %d,\n", rounds, warmup);
    std::printf("  \"utilization\": %.2f,\n  \"rows\": [\n", kUtilization);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::printf(
          "    {\"hosts\": %zu, \"churn\": %d, "
          "\"reference_ms\": {\"mean\": %.4f, \"median\": %.4f}, "
          "\"incremental_ms\": {\"mean\": %.4f, \"median\": %.4f}, "
          "\"speedup\": %.2f, \"identical_decisions\": %s}%s\n",
          r.hosts, r.churn, r.ref_mean_ms, r.ref_median_ms, r.inc_mean_ms,
          r.inc_median_ms, r.speedup, r.identical ? "true" : "false",
          i + 1 < rows.size() ? "," : "");
    }
    std::printf("  ]\n}\n");
  } else {
    std::printf("%8s %8s %14s %14s %9s %10s\n", "hosts", "churn",
                "ref med (ms)", "inc med (ms)", "speedup", "identical");
    for (const Row& r : rows) {
      std::printf("%8zu %8d %14.3f %14.3f %8.2fx %10s\n", r.hosts, r.churn,
                  r.ref_median_ms, r.inc_median_ms, r.speedup,
                  r.identical ? "yes" : "NO");
    }
  }
  return bad;
}

}  // namespace

int main(int argc, char** argv) {
  support::CliArgs args(argc, argv);
  const bool json = args.get_bool("json", false);
  const int rc = run_main(args, json);
  args.warn_unrecognized();
  return rc;
}
