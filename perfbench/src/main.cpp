// perfbench: end-to-end and per-layer benchmark of whole scheduler runs.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--digests <file>]
//
// --trace 0 repeats the workload until --seconds have passed and prints the
// end-to-end metrics; --trace 1 runs it with the PhaseProfiler on, next to
// untraced, reference-core and solver-pool variants, and prints the
// per-layer metrics. Either way every run's decision digest must agree
// with the others and, at the default seed, with the digest recorded in
// --digests. The last line of stdout is the JSON result. See README.md.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/profiler.hpp"
#include "pace.hpp"
#include "scenarios.hpp"
#include "stats.hpp"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

/// The seed whose digests digests.txt records.
constexpr std::uint64_t kDefaultSeed = 1;
/// Set-ups before each timed run; setup_s is the fastest of all of them.
constexpr int kSetupReps = 3;
/// Fewest timed runs of one end-to-end measurement.
constexpr std::size_t kMinRuns = 3;

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 0;
  int trace = -1;
  std::string digests;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      a.trace = std::stoi(val);
    } else if (key == "--digests") {
      a.digests = val;
    } else {
      throw std::invalid_argument("unknown argument: " + key);
    }
  }
  if (argc % 2 != 1) throw std::invalid_argument("arguments come in pairs");
  if (a.workload.empty() || a.seconds <= 0 || (a.trace != 0 && a.trace != 1)) {
    throw std::invalid_argument(
        "usage: perfbench --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1> [--digests <file>]");
  }
  return a;
}

int hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(n, 1u, 8u));
}

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

/// The recorded default-seed digest of `workload`, or 0 when none is.
std::uint64_t recorded_digest(const std::string& path,
                              const std::string& workload) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string name, hex;
    if (ls >> name >> hex && name == workload) {
      return std::stoull(hex, nullptr, 16);
    }
  }
  return 0;
}

/// Correctness bookkeeping shared by both modes: every digest of one seed
/// must agree, and match the recorded one at the default seed.
class DigestCheck {
 public:
  explicit DigestCheck(const Args& args) {
    if (args.seed == kDefaultSeed && !args.digests.empty()) {
      expected_ = recorded_digest(args.digests, args.workload);
    }
  }
  void see(const char* what, std::uint64_t digest) {
    if (first_ == 0) first_ = digest;
    if (digest != first_) {
      std::printf("MISMATCH: %s digest %016llx differs from %016llx\n", what,
                  static_cast<unsigned long long>(digest),
                  static_cast<unsigned long long>(first_));
      ok_ = false;
    }
  }
  void fail(const char* what) {
    std::printf("MISMATCH: %s\n", what);
    ok_ = false;
  }
  [[nodiscard]] bool finish() {
    std::printf("digest %016llx", static_cast<unsigned long long>(first_));
    if (expected_ != 0) {
      const bool match = first_ == expected_;
      std::printf(" (recorded %016llx: %s)",
                  static_cast<unsigned long long>(expected_),
                  match ? "match" : "MISMATCH");
      ok_ = ok_ && match;
    }
    std::printf("\n");
    return ok_;
  }

 private:
  std::uint64_t first_ = 0;
  std::uint64_t expected_ = 0;
  bool ok_ = true;
};

/// Job totals of one outcome, and whether every run ended on its own.
struct Jobs {
  std::uint64_t submitted = 0;
  std::uint64_t finished = 0;
  bool stalled = false;
};

Jobs job_totals(const Outcome& o) {
  Jobs j;
  for (const auto& r : o.results) {
    j.submitted += r.jobs_submitted;
    j.finished += r.jobs_finished;
    j.stalled = j.stalled || r.hit_horizon || !r.violations.empty();
  }
  return j;
}

std::vector<double> pooled(const Outcome& o,
                           std::vector<double> CallLog::*field) {
  std::vector<double> out;
  for (const CallLog& log : o.logs) {
    out.insert(out.end(), (log.*field).begin(), (log.*field).end());
  }
  return out;
}

/// Per task, the element-wise minimum of one CallLog series over the runs
/// folded in so far. Runs of one seed do the same rounds, so the series
/// line up; false when they do not.
bool fold_fastest(std::vector<std::vector<double>>& fastest, const Outcome& o,
                  std::vector<double> CallLog::*field) {
  if (fastest.empty()) {
    for (const CallLog& log : o.logs) fastest.push_back(log.*field);
    return true;
  }
  for (std::size_t t = 0; t < fastest.size(); ++t) {
    const std::vector<double>& sample = o.logs[t].*field;
    if (sample.size() != fastest[t].size()) return false;
    for (std::size_t i = 0; i < sample.size(); ++i) {
      fastest[t][i] = std::min(fastest[t][i], sample[i]);
    }
  }
  return true;
}

double total(const std::vector<std::vector<double>>& series) {
  double s = 0;
  for (const std::vector<double>& v : series) s += sum(v);
  return s;
}

/// The benchmark host's speed swings by up to 2x from one second to the
/// next and between periods of a minute (other tenants contend for its
/// caches and memory). Two things take that out of the timings:
/// - each run is cut into segments at every scheduling round
///   (CallLog::segment_s); every segment and every round's decision keeps
///   its fastest time over the repetitions, and the timings are their sums:
///   the run as fast as each of its parts was seen to go;
/// - a slow period can outlast the measurement, so the sums are put at the
///   host's quiet pace (pace.hpp) by the fastest of the Pace slices taken
///   between rounds all through it.
/// Each repetition is preceded by its own set-ups, which spreads the set-up
/// samples over the measurement the same way.
std::vector<Metric> end_to_end(const Args& args, DigestCheck& check,
                               Jobs& jobs) {
  Pace pace;
  Variant paced;
  paced.pace = &pace;
  std::vector<double> wall_s, setup_s;
  double rss_mb = 0;
  Outcome first;
  std::vector<std::vector<double>> segment_s, decide_ms;
  const Clock::time_point t0 = Clock::now();
  // Two runs at least, so repeats of one seed are compared; kMinRuns
  // unless that takes twice the budget; then as many as fit in --seconds.
  while (wall_s.size() < 2 ||
         (wall_s.size() < kMinRuns && since(t0) < 2 * args.seconds) ||
         since(t0) + median(wall_s) <= args.seconds) {
    Scenario s;
    for (int i = 0; i < kSetupReps; ++i) {
      const Clock::time_point t1 = Clock::now();
      s = make_scenario(args.workload, args.seed);
      setup_s.push_back(since(t1));
    }
    Outcome o = run_scenario(s, paced);
    pace.slice();  // so that even runs too short for one have slices
    check.see("repeat", o.digest);
    if (!fold_fastest(segment_s, o, &CallLog::segment_s) ||
        !fold_fastest(decide_ms, o, &CallLog::decide_ms)) {
      check.fail("repeat did different rounds");
    }
    double segments_s = 0;
    for (const CallLog& log : o.logs) segments_s += sum(log.segment_s);
    wall_s.push_back(segments_s);
    // Set-up plus one run; later runs only add allocator drift.
    if (wall_s.size() == 1) {
      rss_mb = peak_rss_mb();
      first = std::move(o);
    }
  }
  jobs = job_totals(first);

  std::uint64_t events = 0;
  double energy = 0, satisfaction = 0;
  for (const auto& r : first.results) {
    events += r.events_dispatched;
    energy += r.report.energy_kwh;
    satisfaction += r.report.satisfaction;
  }
  const double tasks = static_cast<double>(first.results.size());
  const double rounds =
      static_cast<double>(pooled(first, &CallLog::decide_ms).size());
  const std::vector<double>& slices = pace.slices_ms();
  const double slice_ms = *std::min_element(slices.begin(), slices.end());
  const double run_s = at_quiet_pace(total(segment_s), slice_ms);
  std::printf("%zu runs of %zu task(s), %.0f rounds: fastest %.4f s, median "
              "%.4f s, fastest segments %.4f s\n",
              wall_s.size(), first.results.size(), rounds,
              *std::min_element(wall_s.begin(), wall_s.end()), median(wall_s),
              total(segment_s));
  std::printf("%zu pace slices: fastest %.3f ms, median %.3f ms (%.1f ms at "
              "quiet pace): %.4f s at quiet pace\n",
              slices.size(), slice_ms, median(slices), Pace::kQuietSliceMs,
              run_s);
  return {
      {"run_s", run_s, "s"},
      {"events_per_s", static_cast<double>(events) / run_s, "1/s"},
      {"decide_mean_ms", at_quiet_pace(total(decide_ms), slice_ms) / rounds,
       "ms"},
      {"peak_rss_mb", rss_mb, "MB"},
      {"setup_s",
       at_quiet_pace(*std::min_element(setup_s.begin(), setup_s.end()),
                     slice_ms),
       "s"},
      {"energy_kwh", energy / tasks, "kWh"},
      {"satisfaction_pct", satisfaction / tasks, "%"},
      {"completed_pct",
       100.0 * static_cast<double>(jobs.finished) /
           static_cast<double>(jobs.submitted),
       "%"},
  };
}

/// Sum over tasks of one profiler phase, in seconds.
double phase_s(const Outcome& o, easched::obs::Phase phase) {
  double ms = 0;
  for (const auto& obs : o.obs) ms += sum(obs->profiler.samples(phase));
  return ms / 1000.0;
}

std::vector<double> phase_samples(const Outcome& o,
                                  easched::obs::Phase phase) {
  std::vector<double> out;
  for (const auto& obs : o.obs) {
    const auto& s = obs->profiler.samples(phase);
    out.insert(out.end(), s.begin(), s.end());
  }
  return out;
}

double schedule_s(const Outcome& o) {
  return sum(pooled(o, &CallLog::schedule_ms)) / 1000.0;
}

std::vector<Metric> per_layer(const Scenario& s, const Args& args,
                              DigestCheck& check, Jobs& jobs) {
  using easched::obs::Phase;
  const int nproc = hardware_threads();
  const Variant base;  // serial, untraced
  Variant traced;
  traced.profile = true;

  // Untraced and traced runs alternate until --seconds have passed; the
  // last traced run gives the layer figures.
  std::vector<double> overhead_pct;
  Outcome untraced, tr;
  const Clock::time_point t0 = Clock::now();
  do {
    untraced = run_scenario(s, base);
    check.see("untraced", untraced.digest);
    tr = run_scenario(s, traced);
    check.see("traced", tr.digest);
    overhead_pct.push_back(100.0 * (tr.wall_s / untraced.wall_s - 1.0));
  } while (since(t0) < args.seconds / 2);
  jobs = job_totals(tr);

  Variant reference;
  reference.incremental = false;
  const Outcome ref = run_scenario(s, reference);
  check.see("reference core", ref.digest);
  Variant pool;
  pool.solver_threads = nproc;
  const Outcome pooled_solver = run_scenario(s, pool);
  check.see("solver pool", pooled_solver.digest);

  double solo_s = 0;
  for (const CallLog& log : untraced.logs) solo_s += log.lifetime_s;
  double efficiency = solo_s / untraced.wall_s;
  if (s.sweep) {
    Variant parallel;
    parallel.sweep_threads = nproc;
    const Outcome par = run_scenario(s, parallel);
    check.see("parallel sweep", par.digest);
    efficiency = solo_s / (nproc * par.wall_s);
  }

  double queue_len_sum = 0, dirty_frac_sum = 0, rounds = 0;
  std::size_t queue_len_max = 0;
  std::uint64_t climb_moves = 0, migration_moves = 0;
  for (const CallLog& log : tr.logs) {
    queue_len_sum += log.queue_len_sum;
    dirty_frac_sum += log.dirty_frac_sum;
    rounds += static_cast<double>(log.schedule_ms.size());
    queue_len_max = std::max(queue_len_max, log.queue_len_max);
    climb_moves += log.climb_moves;
    migration_moves += log.migration_moves;
  }
  double dispatched = 0, cancelled = 0, creations = 0, migrations = 0,
         turn_ons = 0, turn_offs = 0, faults = 0, op_failures = 0,
         retries = 0, rollbacks = 0, quarantines = 0, breaker_opens = 0;
  for (const auto& r : tr.results) {
    dispatched += static_cast<double>(r.events_dispatched);
    cancelled += static_cast<double>(r.events_cancelled);
    creations += static_cast<double>(r.report.creations);
    migrations += static_cast<double>(r.report.migrations);
    turn_ons += static_cast<double>(r.report.turn_ons);
    turn_offs += static_cast<double>(r.report.turn_offs);
    faults += static_cast<double>(r.faults_injected);
    op_failures += static_cast<double>(r.report.op_failures);
    retries += static_cast<double>(r.report.retries);
    rollbacks += static_cast<double>(r.report.rollbacks);
    quarantines += static_cast<double>(r.report.quarantines);
    breaker_opens += static_cast<double>(r.report.breaker_opens);
  }

  const std::vector<double> power_off_ms = pooled(tr, &CallLog::power_off_ms);
  const std::vector<double> decide_ms = pooled(tr, &CallLog::decide_ms);
  std::printf("%zu rounds, highest percentile with >=10 beyond: p%g\n",
              decide_ms.size(), tail_percentile(decide_ms.size()).value_or(0));
  const std::vector<double> round_ms = phase_samples(tr, Phase::kRound);
  const double round_s = phase_s(tr, Phase::kRound);
  const double untraced_schedule_s = schedule_s(untraced);
  return {
      {"sched.decide_p50_ms", percentile(decide_ms, 50), "ms"},
      {"sched.decide_p99_ms", percentile(decide_ms, 99), "ms"},
      {"sched.decide_p999_ms", percentile(decide_ms, 99.9), "ms"},
      {"core.schedule_s", schedule_s(tr), "s"},
      {"core.schedule_p999_ms",
       percentile(pooled(tr, &CallLog::schedule_ms), 99.9), "ms"},
      {"core.rebuild_s", phase_s(tr, Phase::kRebuild), "s"},
      {"core.climb_s", phase_s(tr, Phase::kClimb), "s"},
      {"core.invalidate_s", phase_s(tr, Phase::kInvalidate), "s"},
      {"core.power_off_rank_s", sum(power_off_ms) / 1000.0, "s"},
      {"core.power_off_rank_calls", static_cast<double>(power_off_ms.size()),
       "count"},
      {"core.power_off_rank_p99_ms", percentile(power_off_ms, 99), "ms"},
      {"sched.power_on_pick_s",
       sum(pooled(tr, &CallLog::power_on_ms)) / 1000.0, "s"},
      {"sched.round_s", round_s, "s"},
      {"sched.round_p50_ms", percentile(round_ms, 50), "ms"},
      {"sched.round_p99_ms", percentile(round_ms, 99), "ms"},
      {"sched.actuate_s", phase_s(tr, Phase::kActuate), "s"},
      {"sched.power_s", phase_s(tr, Phase::kPower), "s"},
      {"sim.between_rounds_s", tr.wall_s - round_s, "s"},
      {"sim.events_dispatched", dispatched, "count"},
      {"sim.events_cancelled", cancelled, "count"},
      {"core.queue_len_mean", queue_len_sum / std::max(rounds, 1.0), "count"},
      {"core.queue_len_max", static_cast<double>(queue_len_max), "count"},
      {"core.dirty_frac_mean", dirty_frac_sum / std::max(rounds, 1.0),
       "ratio"},
      {"core.climb_moves", static_cast<double>(climb_moves), "count"},
      {"core.migration_moves", static_cast<double>(migration_moves), "count"},
      {"core.incremental_speedup", schedule_s(ref) / untraced_schedule_s,
       "x"},
      {"core.solver_pool_speedup",
       untraced_schedule_s / schedule_s(pooled_solver), "x"},
      {"datacenter.creations", creations, "count"},
      {"datacenter.migrations", migrations, "count"},
      {"datacenter.turn_ons", turn_ons, "count"},
      {"datacenter.turn_offs", turn_offs, "count"},
      {"faults.injected", faults, "count"},
      {"datacenter.op_failures", op_failures, "count"},
      {"sched.retries", retries, "count"},
      {"datacenter.rollbacks", rollbacks, "count"},
      {"datacenter.quarantines", quarantines, "count"},
      {"resilience.breaker_opens", breaker_opens, "count"},
      {"experiments.sweep_efficiency", efficiency, "ratio"},
      {"workload.generate_s", s.generate_s, "s"},
      {"obs.trace_overhead_pct", median(overhead_pct), "%"},
  };
}

void print_result(bool correct, const Jobs& jobs,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  // A run that fails the correctness check counts every job as failed.
  const std::uint64_t failed =
      correct ? jobs.submitted - jobs.finished : jobs.submitted;
  out += ", \"attempted\": " + std::to_string(jobs.submitted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
           buf + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int run(const Args& args) {
  DigestCheck check(args);
  Jobs jobs;
  const std::vector<Metric> metrics =
      args.trace == 0
          ? end_to_end(args, check, jobs)
          : per_layer(make_scenario(args.workload, args.seed), args, check,
                      jobs);
  const bool correct = check.finish() && !jobs.stalled && jobs.submitted > 0;
  for (const Metric& m : metrics) {
    if (!valid_metric_name(m.name) || !valid_unit(m.unit) ||
        !std::isfinite(m.value)) {
      std::printf("BAD METRIC: %s = %g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
      return 1;
    }
    std::printf("%-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (jobs.stalled) std::printf("a run stalled or broke an invariant\n");
  print_result(correct, jobs, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
