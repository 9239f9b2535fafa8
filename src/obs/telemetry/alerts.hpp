// Declarative SLO alerting over the live telemetry stream.
//
// Rules are parsed from a compact spec (`--alerts=`, same
// inline-spec-or-file convention as FaultPlan / the resilience spec) and
// evaluated against every TelemetrySnapshot the sampler captures. Three
// rule kinds:
//
//   threshold      power_w>25000 for=300 resolve=24000
//                  Fires when the sampled series breaches the bound
//                  continuously for `for` sim-seconds (>= at the boundary:
//                  with for=300 and a 60 s cadence the rule fires on the
//                  sample exactly 300 s after the first breaching one, not
//                  one sample early). `resolve=` is the hysteresis level:
//                  an active alert only resolves once the series is back
//                  on the good side of it (default: the firing bound).
//
//   rate-of-change queue_depth rate>0.05 window=600
//                  Fires on the trailing-window slope (units per
//                  sim-second) of the series, with the same for/resolve
//                  machinery applied to the derived signal.
//
//   SLO burn rate  sla_satisfaction burn>2x window=1800 slo=100 budget=5
//                  Classic burn-rate alerting: the mean shortfall below
//                  the SLO target over the trailing window, divided by the
//                  allowed shortfall (`budget`), must exceed the
//                  multiplier. burn>2x means "eating error budget at twice
//                  the sustainable rate".
//
// Firing and resolving emit kAlertFire / kAlertResolve trace instants and
// bump the `alerts.*` metric family; run_summary.json and the CLI's
// "alerts:" line read the per-rule firing log off the engine. Every input
// is simulation state, so the firing log is byte-identical across repeats
// and solver/sweep thread counts — the property the telemetry ctest gate
// asserts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace easched::metrics {
struct Recorder;
}

namespace easched::obs {

struct TelemetrySnapshot;
class SnapshotRing;

enum class AlertKind : std::uint8_t {
  kThreshold,  ///< compare the raw series against the bound
  kRate,       ///< compare the trailing-window slope against the bound
  kBurn,       ///< compare the SLO burn rate against the multiplier
};

struct AlertRule {
  std::string name;     ///< label in logs/traces (defaults to the spec text)
  /// The watched series: an index into kSnapshotFields (telemetry.hpp),
  /// whose row carries the series' spec-grammar name.
  std::size_t series = 0;
  AlertKind kind = AlertKind::kThreshold;
  bool above = true;    ///< '>' rule (false = '<')
  double bound = 0;     ///< threshold / slope bound / burn multiplier
  double for_s = 0;     ///< condition must hold this long before firing
  double window_s = 300;  ///< trailing window for rate/burn rules
  /// Hysteresis: an active alert resolves only when the condition signal
  /// is back on the good side of this level. NaN = use `bound`.
  double resolve = 0;
  bool has_resolve = false;
  // Burn-rate parameters.
  double slo = 100;     ///< SLO target the series should hold
  double budget = 5;    ///< sustainable mean shortfall from the target
};

/// One rule's firing episode. `resolved_t` is -1 while still active (and
/// stays -1 in the final log when the run ends mid-firing).
struct AlertFiring {
  std::string rule;
  double fired_t = 0;
  double resolved_t = -1;
};

/// Parses an alert spec: comma-separated rules, each `series[ rate|burn]`
/// + comparator + options (`for=`, `window=`, `resolve=`, `slo=`,
/// `budget=`, `name=`). A spec containing neither '>' nor '<' is treated
/// as a path to a file holding the rules by line or by comma ('#' starts a
/// comment). Throws std::invalid_argument on unknown series/keys or
/// malformed values.
std::vector<AlertRule> parse_alert_rules(const std::string& spec);

class AlertEngine {
 public:
  void configure(std::vector<AlertRule> rules);
  [[nodiscard]] bool enabled() const noexcept { return !rules_.empty(); }
  [[nodiscard]] const std::vector<AlertRule>& rules() const noexcept {
    return rules_;
  }

  /// Evaluates every rule against `snap` (the newest sample, not yet in
  /// `history`). Fire/resolve transitions append to the firing log and —
  /// when `recorder` carries an observability bundle — emit trace instants
  /// and alerts.* metrics. Returns the names of the currently active
  /// rules, in rule order.
  std::vector<std::string> evaluate(const TelemetrySnapshot& snap,
                                    const SnapshotRing& history,
                                    metrics::Recorder* recorder);

  [[nodiscard]] std::size_t active_count() const noexcept;
  [[nodiscard]] bool is_active(std::size_t rule_index) const;
  /// Complete firing history (active episodes carry resolved_t = -1).
  [[nodiscard]] const std::vector<AlertFiring>& log() const noexcept {
    return log_;
  }

  /// Human-readable one-line-per-episode rendering of the firing log
  /// ("high-power fired@3600 resolved@7200"); empty string when nothing
  /// ever fired.
  [[nodiscard]] std::string log_to_string() const;

 private:
  struct RuleState {
    bool active = false;
    bool breaching = false;       ///< condition held at the last sample
    sim::SimTime breach_since = 0;  ///< when the current breach streak began
    std::size_t open_log_index = 0; ///< log_ entry of the active episode
  };

  /// The rule's condition signal at `snap` (raw value, slope, or burn
  /// rate), computed over `history` + `snap`.
  [[nodiscard]] double signal(const AlertRule& rule,
                              const TelemetrySnapshot& snap,
                              const SnapshotRing& history) const;

  std::vector<AlertRule> rules_;
  std::vector<RuleState> states_;
  std::vector<AlertFiring> log_;
};

}  // namespace easched::obs
