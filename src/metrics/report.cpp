#include "metrics/report.hpp"

#include <cstdio>
#include <sstream>

#include "obs/obs.hpp"
#include "support/stats.hpp"

namespace easched::metrics {

RunReport make_report(const Recorder& recorder, double end_s,
                      std::string policy_name, double lambda_min,
                      double lambda_max) {
  RunReport r;
  static_cast<Counters&>(r) = recorder.counts;
  r.policy = std::move(policy_name);
  r.lambda_min = lambda_min;
  r.lambda_max = lambda_max;
  r.duration_s = end_s;
  r.avg_working = recorder.working.average(end_s);
  r.avg_online = recorder.online.average(end_s);
  r.cpu_hours = recorder.cpu_core_hours(end_s);
  r.energy_kwh = recorder.energy_kwh(end_s);
  r.satisfaction = recorder.jobs.mean_satisfaction();
  r.delay_pct = recorder.jobs.mean_delay_pct();
  r.jobs_finished = recorder.jobs.count();
  r.recoveries = recorder.recovery_s.size();

  obs::MetricsRegistry registry;
  registry.set_sim_time(end_s);
  obs::publish_run_metrics(recorder, registry);
  r.metrics = registry.snapshot();
  const obs::SnapshotRow* max_level =
      r.metrics.find("resilience.max_ladder_level");
  r.max_ladder_level =
      max_level == nullptr ? 0 : static_cast<int>(max_level->value);
  if (!recorder.recovery_s.empty()) {
    r.recovery_p50_s = support::percentile(recorder.recovery_s, 50);
    r.recovery_p95_s = support::percentile(recorder.recovery_s, 95);
    r.recovery_max_s = support::percentile(recorder.recovery_s, 100);
  }
  return r;
}

std::string RunReport::to_string() const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%-8s l=%.0f-%.0f  Work/ON %.1f/%.1f  CPU %.1f h  "
                "Pwr %.1f kWh  S %.1f%%  delay %.1f%%  Mig %llu",
                policy.c_str(), lambda_min * 100, lambda_max * 100,
                avg_working, avg_online, cpu_hours, energy_kwh, satisfaction,
                delay_pct, static_cast<unsigned long long>(migrations));
  return buf;
}

std::string RunReport::robustness_to_string() const {
  if (op_failures == 0 && retries == 0 && quarantines == 0 &&
      boot_failures == 0 && recoveries == 0) {
    return {};
  }
  // The line's counters and their labels, in print order.
  static constexpr std::pair<std::uint64_t Counters::*, const char*>
      kFields[] = {
          {&Counters::op_failures, "op-fail"},
          {&Counters::op_timeouts, "timeouts"},
          {&Counters::retries, "retries"},
          {&Counters::rollbacks, "rollbacks"},
          {&Counters::quarantines, "quarantines"},
          {&Counters::boot_failures, "boot-fail"},
          {&Counters::checkpoint_recoveries, "ckpt-restore"},
          {&Counters::recreates, "recreate"},
      };
  std::ostringstream os;
  os << "faults:";
  for (const auto& [field, label] : kFields) {
    os << "  " << label << ' ' << this->*field;
  }
  char buf[96];
  std::snprintf(buf, sizeof buf,
                "  recover p50/p95/max %.0f/%.0f/%.0f s (n=%zu)",
                recovery_p50_s, recovery_p95_s, recovery_max_s, recoveries);
  os << buf;
  return os.str();
}

std::string RunReport::resilience_to_string() const {
  if (solver_breaches == 0 && ladder_downshifts == 0 && jobs_shed == 0 &&
      jobs_deferred == 0 && breaker_opens == 0 && breaker_deaths == 0) {
    return {};
  }
  char buf[256];
  std::snprintf(
      buf, sizeof buf,
      "resilience:  breaches %llu  ladder down/up %llu/%llu (max rung %d)  "
      "shed %llu  deferred %llu  breaker open/close/dead %llu/%llu/%llu",
      static_cast<unsigned long long>(solver_breaches),
      static_cast<unsigned long long>(ladder_downshifts),
      static_cast<unsigned long long>(ladder_upshifts), max_ladder_level,
      static_cast<unsigned long long>(jobs_shed),
      static_cast<unsigned long long>(jobs_deferred),
      static_cast<unsigned long long>(breaker_opens),
      static_cast<unsigned long long>(breaker_closes),
      static_cast<unsigned long long>(breaker_deaths));
  return buf;
}

}  // namespace easched::metrics
