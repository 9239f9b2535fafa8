// The unit of work: an HPC job, encapsulated 1:1 in a VM (section I of the
// paper: "encapsulating jobs on virtual machines").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace easched::workload {

/// Hardware architecture tag used by the Preq (hardware requirement)
/// penalty. The evaluation datacenter is homogeneous in architecture, but
/// the policy supports mixed fleets (tests exercise this).
enum class Arch : std::uint8_t { kX86_64, kPpc64, kArm64 };

/// Software capability flags a host may offer and a job may require
/// (hypervisor flavour etc.), also consumed by Preq.
enum SoftwareFlags : std::uint32_t {
  kSwNone = 0,
  kSwXen = 1u << 0,
  kSwKvm = 1u << 1,
  kSwGpuRuntime = 1u << 2,
  kSwLargePages = 1u << 3,
};

/// One HPC job as read from a trace or synthesised.
struct Job {
  std::uint32_t id = 0;
  sim::SimTime submit = 0;       ///< arrival time [s]
  double dedicated_seconds = 0;  ///< runtime on a dedicated machine [s]
  double cpu_pct = 100;          ///< required CPU [% of one core; 400 = 4 cores]
  double mem_mb = 512;           ///< required memory [MB]
  double deadline_factor = 1.5;  ///< deadline = factor * dedicated_seconds
  Arch arch = Arch::kX86_64;
  std::uint32_t software = kSwXen;  ///< required SoftwareFlags
  double fault_tolerance = 0;    ///< Ftol in [0,1] for the Pfault penalty
  std::uint32_t weight = 256;    ///< Xen credit-scheduler weight

  /// Agreed deadline, relative to submission.
  [[nodiscard]] double deadline_seconds() const {
    return deadline_factor * dedicated_seconds;
  }
};

/// A workload is simply the arrival-ordered job list.
using Workload = std::vector<Job>;

/// Sorts `jobs` stably by submit time and returns the sorted submit times:
/// jobs submitted at the same instant keep their input order, the order in
/// which one arrival event per job, posted in input order, would fire.
std::vector<sim::SimTime> sort_by_submit(Workload& jobs);

/// Aggregate statistics used to sanity-check synthetic traces against the
/// published characteristics of the Grid5000 week.
struct WorkloadStats {
  std::size_t jobs = 0;
  double core_hours = 0;        ///< sum of cpu_pct/100 * dedicated/3600
  double mean_runtime_s = 0;
  double max_runtime_s = 0;
  double mean_cpu_pct = 0;
  double span_seconds = 0;      ///< last submit - first submit
  double peak_concurrent_cores = 0;  ///< max over time of dedicated demand
};

/// Computes the aggregate statistics of a workload. The peak-concurrency
/// figure assumes every job ran exactly its dedicated time from submission
/// (a lower bound on real concurrency, adequate for calibration).
WorkloadStats compute_stats(const Workload& jobs);

/// Human-readable one-line summary of the stats.
std::string describe(const WorkloadStats& stats);

}  // namespace easched::workload
