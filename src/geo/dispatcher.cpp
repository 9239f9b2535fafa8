#include "geo/dispatcher.hpp"

#include <limits>

#include "experiments/setup.hpp"
#include "support/contracts.hpp"

namespace easched::geo {

const char* to_string(DispatchPolicy policy) noexcept {
  switch (policy) {
    case DispatchPolicy::kRoundRobin:
      return "round-robin";
    case DispatchPolicy::kCheapestEnergy:
      return "cheapest-energy";
    case DispatchPolicy::kGreenest:
      return "greenest";
    case DispatchPolicy::kLeastLoaded:
      return "least-loaded";
  }
  return "?";
}

namespace {

/// Cadence at which watts x price are accumulated (tariffs move hourly,
/// so minutes-scale sampling integrates them accurately).
constexpr sim::SimTime kCostSamplePeriodS = 300;

/// One fully wired site.
struct Site {
  SiteConfig config;
  std::unique_ptr<metrics::Recorder> recorder;
  std::unique_ptr<datacenter::Datacenter> dc;
  std::unique_ptr<sched::Policy> policy;
  std::unique_ptr<sched::SchedulerDriver> driver;
  std::size_t dispatched = 0;
  double cost_eur = 0;
  double carbon_g = 0;
};

std::size_t pick_site(const std::vector<std::unique_ptr<Site>>& sites,
                      DispatchPolicy policy, sim::SimTime now,
                      std::size_t round_robin_cursor) {
  EA_EXPECTS(!sites.empty());
  switch (policy) {
    case DispatchPolicy::kRoundRobin:
      return round_robin_cursor % sites.size();
    case DispatchPolicy::kCheapestEnergy: {
      std::size_t best = 0;
      double best_price = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < sites.size(); ++i) {
        const double p = sites[i]->config.energy.price_eur_kwh(now);
        if (p < best_price) {
          best_price = p;
          best = i;
        }
      }
      return best;
    }
    case DispatchPolicy::kGreenest: {
      std::size_t best = 0;
      double best_carbon = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < sites.size(); ++i) {
        const double c = sites[i]->config.energy.carbon_g_kwh(now);
        if (c < best_carbon) {
          best_carbon = c;
          best = i;
        }
      }
      return best;
    }
    case DispatchPolicy::kLeastLoaded: {
      std::size_t best = 0;
      double best_load = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < sites.size(); ++i) {
        const double load =
            static_cast<double>(sites[i]->dc->working_count()) /
            static_cast<double>(sites[i]->dc->num_hosts());
        if (load < best_load) {
          best_load = load;
          best = i;
        }
      }
      return best;
    }
  }
  return 0;
}

}  // namespace

GeoResult run_geo(const workload::Workload& jobs, const GeoConfig& config) {
  EA_EXPECTS(!jobs.empty());
  EA_EXPECTS(!config.sites.empty());

  sim::Simulator simulator;
  std::vector<std::unique_ptr<Site>> sites;
  std::size_t finished_total = 0;

  for (const auto& site_config : config.sites) {
    auto site = std::make_unique<Site>();
    site->config = site_config;
    site->recorder = std::make_unique<metrics::Recorder>(
        site_config.datacenter.hosts.size());
    site->dc = std::make_unique<datacenter::Datacenter>(
        simulator, site_config.datacenter, *site->recorder);
    site->policy = experiments::make_policy(site_config.policy);
    site->driver = std::make_unique<sched::SchedulerDriver>(
        simulator, *site->dc, *site->policy, site_config.driver);
    site->driver->on_job_finished = [&finished_total, &simulator,
                                     total = jobs.size()](datacenter::VmId) {
      if (++finished_total == total) simulator.stop();
    };
    sites.push_back(std::move(site));
  }

  // Tariff-weighted cost integration (piecewise-constant sampling of the
  // slowly varying price/carbon curves).
  simulator.every(kCostSamplePeriodS, [&] {
    const sim::SimTime now = simulator.now();
    for (auto& site : sites) {
      const double kwh = site->recorder->watts.total_current() *
                         kCostSamplePeriodS / sim::kHour / 1000.0;
      site->cost_eur += kwh * site->config.energy.price_eur_kwh(now);
      site->carbon_g += kwh * site->config.energy.carbon_g_kwh(now);
    }
  });

  // Arrival events: route each job at its submit instant.
  workload::Workload arrivals = jobs;
  std::size_t cursor = 0;
  simulator.stream(workload::sort_by_submit(arrivals), [&](std::size_t i) {
    const std::size_t target =
        pick_site(sites, config.dispatch, simulator.now(), cursor);
    ++cursor;
    sites[target]->driver->submit_job_now(arrivals[i]);
    ++sites[target]->dispatched;
  });

  if (config.horizon_s > 0) {
    simulator.run_until(config.horizon_s);
  } else {
    simulator.run();
  }

  GeoResult result;
  result.end_time_s = simulator.now();
  result.hit_horizon = finished_total < jobs.size();
  double weighted_s = 0;
  std::size_t total_finished = 0;
  for (auto& site : sites) {
    SiteResult sr;
    sr.name = site->config.name;
    sr.report = metrics::make_report(
        *site->recorder, simulator.now(), site->config.policy,
        site->config.driver.power.lambda_min,
        site->config.driver.power.lambda_max);
    sr.jobs_dispatched = site->dispatched;
    sr.energy_cost_eur = site->cost_eur;
    sr.carbon_kg = site->carbon_g / 1000.0;
    result.total_energy_kwh += sr.report.energy_kwh;
    result.total_cost_eur += sr.energy_cost_eur;
    result.total_carbon_kg += sr.carbon_kg;
    weighted_s +=
        sr.report.satisfaction * static_cast<double>(sr.report.jobs_finished);
    total_finished += sr.report.jobs_finished;
    result.sites.push_back(std::move(sr));
  }
  result.mean_satisfaction =
      total_finished > 0 ? weighted_s / static_cast<double>(total_finished)
                         : 0.0;
  return result;
}

}  // namespace easched::geo
