#include "workload/job.hpp"

#include <algorithm>
#include <cstdio>

namespace easched::workload {

WorkloadStats compute_stats(const Workload& jobs) {
  WorkloadStats s;
  s.jobs = jobs.size();
  if (jobs.empty()) return s;

  sim::SimTime first = jobs.front().submit;
  sim::SimTime last = jobs.front().submit;
  // Sweep-line over (start, +cores) / (end, -cores) events for the peak.
  std::vector<std::pair<sim::SimTime, double>> edges;
  edges.reserve(jobs.size() * 2);
  for (const auto& j : jobs) {
    const double cores = j.cpu_pct / 100.0;
    s.core_hours += cores * j.dedicated_seconds / sim::kHour;
    s.mean_runtime_s += j.dedicated_seconds;
    s.max_runtime_s = std::max(s.max_runtime_s, j.dedicated_seconds);
    s.mean_cpu_pct += j.cpu_pct;
    first = std::min(first, j.submit);
    last = std::max(last, j.submit);
    edges.emplace_back(j.submit, cores);
    edges.emplace_back(j.submit + j.dedicated_seconds, -cores);
  }
  std::sort(edges.begin(), edges.end());
  double level = 0;
  for (const auto& [t, d] : edges) {
    level += d;
    s.peak_concurrent_cores = std::max(s.peak_concurrent_cores, level);
  }
  const double n = static_cast<double>(jobs.size());
  s.mean_runtime_s /= n;
  s.mean_cpu_pct /= n;
  s.span_seconds = last - first;
  return s;
}

std::string describe(const WorkloadStats& s) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%zu jobs, %.0f core-hours, mean runtime %.0f s, mean CPU "
                "%.0f%%, peak %.1f cores, span %.1f h",
                s.jobs, s.core_hours, s.mean_runtime_s, s.mean_cpu_pct,
                s.peak_concurrent_cores, s.span_seconds / sim::kHour);
  return buf;
}

std::vector<sim::SimTime> sort_by_submit(Workload& jobs) {
  std::stable_sort(jobs.begin(), jobs.end(), [](const Job& a, const Job& b) {
    return a.submit < b.submit;
  });
  std::vector<sim::SimTime> times(jobs.size());
  std::transform(jobs.begin(), jobs.end(), times.begin(),
                 [](const Job& j) { return j.submit; });
  return times;
}

}  // namespace easched::workload
