// Multi-datacenter workload dispatch (extension of section II's outlook:
// Le et al. [20] distribute load across locations by power cost and source;
// the paper: "Our framework can be applied to this model").
//
// A GeoDispatcher owns several complete datacenter sites — each with its
// own Datacenter, scheduling policy, driver and power controller, all
// sharing one simulated clock — and routes every arriving job to a site
// according to a dispatch policy. Energy cost and carbon are integrated
// against each site's time-varying profile.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "datacenter/datacenter.hpp"
#include "geo/energy_profile.hpp"
#include "metrics/report.hpp"
#include "sched/driver.hpp"
#include "sim/simulator.hpp"
#include "workload/job.hpp"

namespace easched::geo {

/// How arriving jobs are routed between sites.
enum class DispatchPolicy {
  kRoundRobin,      ///< spread blindly
  kCheapestEnergy,  ///< to the site with the lowest tariff right now
  kGreenest,        ///< to the site with the lowest carbon intensity now
  kLeastLoaded,     ///< to the site with the lowest working-node fraction
};

const char* to_string(DispatchPolicy policy) noexcept;

/// One site = local scheduling stack + energy profile.
struct SiteConfig {
  std::string name = "site";
  datacenter::DatacenterConfig datacenter;
  sched::DriverConfig driver;
  std::string policy = "SB";  ///< local scheduling policy (see make_policy)
  EnergyProfile energy;
};

struct GeoConfig {
  std::vector<SiteConfig> sites;
  DispatchPolicy dispatch = DispatchPolicy::kCheapestEnergy;
  sim::SimTime horizon_s = 0;  ///< safety cap; 0 = none
};

struct SiteResult {
  std::string name;
  metrics::RunReport report;
  std::size_t jobs_dispatched = 0;
  double energy_cost_eur = 0;
  double carbon_kg = 0;
};

struct GeoResult {
  std::vector<SiteResult> sites;
  double total_energy_kwh = 0;
  double total_cost_eur = 0;
  double total_carbon_kg = 0;
  double mean_satisfaction = 0;  ///< weighted by finished jobs
  sim::SimTime end_time_s = 0;
  bool hit_horizon = false;
};

/// Runs `jobs` across the configured sites and returns per-site and
/// aggregate results.
GeoResult run_geo(const workload::Workload& jobs, const GeoConfig& config);

}  // namespace easched::geo
