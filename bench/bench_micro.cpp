// Micro-benchmarks (google-benchmark): throughput of the pieces that bound
// simulation speed — the event queue, the Xen allocation, score-matrix
// construction, one hill-climbing round, and a whole simulated day.
//
// The paper's simulator "can simulate a large virtualized datacenter
// executing a workload for a week using one machine during an hour"; these
// numbers document that our event-driven kernel does the same week in
// seconds.
#include <benchmark/benchmark.h>

#include "core/hill_climb.hpp"
#include "core/score_based_policy.hpp"
#include "core/score_matrix.hpp"
#include "datacenter/xen_scheduler.hpp"
#include "experiments/runner.hpp"
#include "experiments/setup.hpp"
#include "sim/simulator.hpp"
#include "workload/synthetic.hpp"

namespace {

using namespace easched;

void BM_EventQueuePushPop(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue q;
    int fired = 0;
    for (int i = 0; i < n; ++i) {
      q.push((i * 2654435761u) % 100000, [&fired] { ++fired; });
    }
    while (!q.empty()) q.pop().action();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueuePushPop)->Arg(1024)->Arg(16384);

void BM_XenAllocate(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<datacenter::CpuDemand> vms;
  for (int i = 0; i < n; ++i) {
    vms.push_back({50.0 + 37.0 * (i % 9), 256.0, 0.0});
  }
  for (auto _ : state) {
    auto alloc = datacenter::allocate_cpu(400.0, vms, 80.0);
    benchmark::DoNotOptimize(alloc.used_pct);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_XenAllocate)->Arg(4)->Arg(16)->Arg(64);

/// A populated datacenter for matrix benchmarks.
struct MatrixFixture {
  sim::Simulator simulator;
  metrics::Recorder recorder{100};
  datacenter::Datacenter dc;
  std::vector<datacenter::VmId> queue;

  MatrixFixture()
      : dc(simulator, experiments::evaluation_datacenter(5), recorder) {
    support::Rng rng{11};
    // 60 running VMs spread over the fleet + 8 queued.
    for (int i = 0; i < 60; ++i) {
      workload::Job job;
      job.submit = 0;
      job.dedicated_seconds = 7200;
      job.cpu_pct = (i % 4 + 1) * 100.0;
      job.mem_mb = 512;
      const auto v = dc.admit_job(job);
      dc.place(v, static_cast<datacenter::HostId>(
                      rng.uniform_int(0, dc.num_hosts() - 1)));
    }
    simulator.run_until(600);  // creations settle
    for (int i = 0; i < 8; ++i) {
      workload::Job job;
      job.submit = simulator.now();
      job.dedicated_seconds = 3600;
      job.cpu_pct = 100;
      job.mem_mb = 512;
      queue.push_back(dc.admit_job(job));
    }
  }
};

void BM_ScoreMatrixBuild(benchmark::State& state) {
  MatrixFixture fx;
  core::ScoreParams params;
  for (auto _ : state) {
    core::ScoreModel model(fx.dc, fx.queue, params, true);
    benchmark::DoNotOptimize(model.cols());
  }
}
BENCHMARK(BM_ScoreMatrixBuild);

void BM_HillClimbRound(benchmark::State& state) {
  MatrixFixture fx;
  core::ScoreParams params;
  for (auto _ : state) {
    core::ScoreModel model(fx.dc, fx.queue, params, true);
    core::HillClimbLimits limits;
    auto stats = core::hill_climb(model, limits);
    benchmark::DoNotOptimize(stats.moves);
  }
}
BENCHMARK(BM_HillClimbRound);

/// A populated datacenter at parametric scale for the solver_scaling
/// benchmark: `hosts` nodes in the evaluation fleet's 15/50/35 mix, with
/// a running population of ~60 % of the fleet and a queue burst. Fixed
/// seeds: every solver variant sees the identical instance.
struct ScalingFixture {
  sim::Simulator simulator;
  metrics::Recorder recorder;
  datacenter::Datacenter dc;
  std::vector<datacenter::VmId> queue;

  static datacenter::DatacenterConfig make_config(int hosts) {
    const std::size_t fast = static_cast<std::size_t>(hosts) * 15 / 100;
    const std::size_t medium = static_cast<std::size_t>(hosts) / 2;
    datacenter::DatacenterConfig config;
    config.hosts = experiments::evaluation_hosts(
        fast, medium, static_cast<std::size_t>(hosts) - fast - medium);
    config.seed = 3;
    return config;
  }

  explicit ScalingFixture(int hosts)
      : recorder(static_cast<std::size_t>(hosts)),
        dc(simulator, make_config(hosts), recorder) {
    support::Rng rng{23};
    const int running = hosts * 3 / 5;
    for (int i = 0; i < running; ++i) {
      workload::Job job;
      job.submit = 0;
      job.dedicated_seconds = 36000;
      job.cpu_pct = (i % 4 + 1) * 100.0;
      job.mem_mb = 512;
      const auto v = dc.admit_job(job);
      datacenter::HostId h = static_cast<datacenter::HostId>(
          rng.uniform_int(0, dc.num_hosts() - 1));
      while (!dc.fits(h, v)) h = (h + 1) % dc.num_hosts();
      dc.place(v, h);
    }
    simulator.run_until(600);  // creations settle
    const int queued = hosts / 12 + 4;
    for (int i = 0; i < queued; ++i) {
      workload::Job job;
      job.submit = simulator.now();
      job.dedicated_seconds = 7200;
      job.cpu_pct = (i % 2 + 1) * 100.0;
      job.mem_mb = 512;
      queue.push_back(dc.admit_job(job));
    }
  }
};

/// solver_scaling: one consolidation round (matrix build + solve) at fleet
/// sizes 100 / 400 / 1600, comparing the seed implementation
/// (hill_climb_reference, full-matrix rescan per iteration) with the
/// incremental production solver. Both produce bit-identical plans
/// (tests/test_solver_equivalence.cpp); only the time differs.
template <typename Solve>
void solver_scaling_round(benchmark::State& state, const Solve& solve) {
  ScalingFixture fx(static_cast<int>(state.range(0)));
  core::ScoreParams params;
  for (auto _ : state) {
    core::ScoreModel model(fx.dc, fx.queue, params, /*migration=*/true);
    auto stats = solve(model);
    benchmark::DoNotOptimize(stats.moves);
  }
  state.counters["moves"] = static_cast<double>([&] {
    core::ScoreModel model(fx.dc, fx.queue, params, true);
    return solve(model).moves;
  }());
}

void BM_SolverScaling_Serial(benchmark::State& state) {
  solver_scaling_round(state, [](core::ScoreModel& model) {
    return core::hill_climb_reference(model, core::HillClimbLimits{});
  });
}
BENCHMARK(BM_SolverScaling_Serial)
    ->Arg(100)->Arg(400)->Arg(1600)
    ->Unit(benchmark::kMillisecond);

void BM_SolverScaling_Incremental(benchmark::State& state) {
  solver_scaling_round(state, [](core::ScoreModel& model) {
    return core::hill_climb(model, core::HillClimbLimits{});
  });
}
BENCHMARK(BM_SolverScaling_Incremental)
    ->Arg(100)->Arg(400)->Arg(1600)
    ->Unit(benchmark::kMillisecond);

void BM_SimulatedDay(benchmark::State& state) {
  workload::SyntheticConfig wl;
  wl.span_seconds = sim::kDay;
  const auto jobs = workload::generate(wl);
  for (auto _ : state) {
    experiments::RunConfig config;
    config.datacenter = experiments::evaluation_datacenter(1);
    config.policy = "SB";
    auto res = experiments::run_experiment(jobs, std::move(config));
    benchmark::DoNotOptimize(res.report.energy_kwh);
  }
}
BENCHMARK(BM_SimulatedDay)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
