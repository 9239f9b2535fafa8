// Shared generator of randomized scheduling scenarios for the solver
// property and differential tests (test_score_model_property,
// test_solver_equivalence).
//
// Each instance is a small heterogeneous datacenter with a settled running
// population, a non-empty queue and randomized penalty configuration —
// enough variety to hit every score term (incompatible architectures,
// missing software, fault-tolerant jobs, SLA pressure) without blowing up
// the per-instance cost.
#pragma once

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/score.hpp"
#include "support/rng.hpp"
#include "test_fixtures.hpp"

namespace easched::testing {

struct RandomInstance {
  std::unique_ptr<SmallDc> fixture;
  std::vector<datacenter::VmId> queue;
  core::ScoreParams params;
  bool migration = false;

  /// Reproduction recipe: the Rng's construction seed and this instance's
  /// 0-based draw index within that stream. A failing property test prints
  /// both (via describe()), so the exact instance can be regenerated by
  /// seeding an Rng with `stream_seed` and drawing `index + 1` instances.
  std::uint64_t stream_seed = 0;
  int index = -1;

  std::string describe() const {
    char buf[80];
    std::snprintf(buf, sizeof buf, "instance #%d of rng stream seed=%llu",
                  index, static_cast<unsigned long long>(stream_seed));
    return buf;
  }
};

inline RandomInstance make_random_instance(support::Rng& rng,
                                           std::uint64_t stream_seed,
                                           int index, int max_hosts = 6,
                                           int max_running = 8,
                                           int max_queued = 6) {
  using datacenter::DatacenterConfig;
  using datacenter::HostId;
  using datacenter::HostSpec;
  using datacenter::VmId;

  RandomInstance inst;
  inst.stream_seed = stream_seed;
  inst.index = index;
  const int hosts = static_cast<int>(rng.uniform_int(2, max_hosts));
  DatacenterConfig config;
  for (int i = 0; i < hosts; ++i) {
    HostSpec spec;
    switch (rng.uniform_int(0, 3)) {
      case 0:
        spec = HostSpec::fast();
        break;
      case 1:
        spec = HostSpec::medium();
        break;
      case 2:
        spec = HostSpec::slow();
        break;
      default:
        spec = HostSpec::low_power();
        break;
    }
    spec.reliability = rng.uniform(0.8, 1.0);
    if (rng.uniform01() < 0.1) spec.arch = workload::Arch::kPpc64;
    if (rng.uniform01() < 0.3) spec.software |= workload::kSwKvm;
    config.hosts.push_back(spec);
  }
  inst.fixture =
      std::make_unique<SmallDc>(config.hosts.size(), std::move(config));
  SmallDc& f = *inst.fixture;

  const auto random_job = [&rng](double submit) {
    workload::Job job = make_job(
        100.0 * static_cast<double>(rng.uniform_int(1, 3)),
        rng.uniform(128, 1200), rng.uniform(2000, 60000),
        rng.uniform(1.2, 2.0), submit);
    if (rng.uniform01() < 0.3) job.fault_tolerance = rng.uniform01();
    if (rng.uniform01() < 0.1) job.software |= workload::kSwKvm;
    if (rng.uniform01() < 0.05) job.arch = workload::Arch::kPpc64;
    return job;
  };

  const int running = static_cast<int>(rng.uniform_int(0, max_running));
  for (int i = 0; i < running; ++i) {
    const VmId v = f.dc.admit_job(random_job(0));
    std::vector<HostId> fitting;
    for (HostId h = 0; h < f.dc.num_hosts(); ++h) {
      if (f.dc.fits(h, v)) fitting.push_back(h);
    }
    if (fitting.empty()) continue;  // stays queued, outside the instance
    f.dc.place(v, fitting[rng.uniform_int(0, fitting.size() - 1)]);
  }
  f.simulator.run_until(400.0);  // let creations settle into Running

  const int queued = static_cast<int>(rng.uniform_int(1, max_queued));
  for (int i = 0; i < queued; ++i) {
    inst.queue.push_back(f.dc.admit_job(random_job(f.simulator.now())));
  }

  inst.params.use_virt = rng.uniform01() < 0.8;
  inst.params.use_conc = rng.uniform01() < 0.8;
  inst.params.use_pwr = rng.uniform01() < 0.9;
  inst.params.use_sla = rng.uniform01() < 0.5;
  inst.params.use_fault = rng.uniform01() < 0.5;
  inst.migration = rng.uniform01() < 0.7;
  return inst;
}

/// Redraws the penalty weights around the evaluation values, zero and
/// negative ones included, so every min(0, .) and end-of-range choice of
/// the score floor (ScoreModel::score_floor) is taken both ways. Cf stays
/// >= 0: below it the floor is -infinity.
inline void randomize_weights(support::Rng& rng, core::ScoreParams& p) {
  const auto pick = [&rng](double a, double b, double c) {
    const auto i = rng.uniform_int(0, 3);
    return i == 0 ? a : i == 1 ? b : i == 2 ? c : rng.uniform(-50, 150);
  };
  p.c_empty = pick(20, 0, -10);
  p.c_fill = std::abs(pick(40, 0, 80));
  p.c_sla = pick(100, 0, -30);
  p.c_fail = pick(200, 0, -100);
}

/// Back-compat shape-only overload for callers outside a seeded stream
/// loop; the instance identity stays unset (seed 0, index -1).
inline RandomInstance make_random_instance(support::Rng& rng,
                                           int max_hosts = 6,
                                           int max_running = 8,
                                           int max_queued = 6) {
  return make_random_instance(rng, 0, -1, max_hosts, max_running, max_queued);
}

}  // namespace easched::testing
