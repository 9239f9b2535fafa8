// Aggregation of a finished run into the columns the paper's Tables II-V
// report: average Working / ON nodes, CPU hours, power (kWh), client
// satisfaction S (%), delay (%), and number of migrations.
#pragma once

#include <string>

#include "metrics/accumulators.hpp"
#include "obs/metrics_registry.hpp"

namespace easched::metrics {

/// The run's operation counts are the inherited Counters fields, copied
/// from the recorder: migrations, creations, turn_ons and turn_offs are the
/// paper's columns, the rest the fault and resilience layers' counts.
struct RunReport : Counters {
  std::string policy;
  double lambda_min = 0;
  double lambda_max = 0;
  double duration_s = 0;       ///< measurement window (submit of first job
                               ///< to finish of last job)
  double avg_working = 0;      ///< "Work" column
  double avg_online = 0;       ///< "ON" column
  double cpu_hours = 0;        ///< "CPU (h)" column
  double energy_kwh = 0;       ///< "Pwr (kW)" column
  double satisfaction = 0;     ///< "S (%)" column
  double delay_pct = 0;        ///< "delay (%)" column
  std::size_t jobs_finished = 0;

  std::size_t recoveries = 0;     ///< time-to-recover samples
  double recovery_p50_s = 0;
  double recovery_p95_s = 0;
  double recovery_max_s = 0;
  /// Deepest degradation rung the run visited (0 = stayed at full quality).
  int max_ladder_level = 0;

  /// Every run counter as named instruments (see obs::publish_run_metrics)
  /// — the export path: CSV via metrics.to_csv(), JSON via
  /// metrics.to_json().
  obs::MetricsSnapshot metrics;

  /// One line in the style of the paper's tables.
  [[nodiscard]] std::string to_string() const;

  /// One line with the robustness counters and time-to-recover percentiles
  /// (empty when no faults were injected and nothing was recovered).
  [[nodiscard]] std::string robustness_to_string() const;

  /// One line with the resilience control-plane counters (empty when the
  /// controller never acted: no breaches, shed/deferred jobs or breaker
  /// trips).
  [[nodiscard]] std::string resilience_to_string() const;
};

/// Builds the report from a recorder at measurement end time `end_s`.
RunReport make_report(const Recorder& recorder, double end_s,
                      std::string policy_name, double lambda_min,
                      double lambda_max);

}  // namespace easched::metrics
