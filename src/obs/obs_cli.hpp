// CLI wiring shared by the example binaries: parses the observability
// flags (`--trace=<path>`, `--trace-format=jsonl|chrome`,
// `--metrics-out=<path>`, `--summary-out=<path>`, `--attribution`,
// `--profile`) and the live-telemetry flags (`--telemetry-out=<path>`,
// `--prom-out=<path>`, `--alerts=<spec>`, `--live`,
// `--telemetry-period=<s>`, `--telemetry-ring=<n>`), enables the matching
// components on an Observability bundle, and writes the requested files
// when the run ends. Keeping this in one place means every example
// exposes the same flags with the same semantics.
#pragma once

#include <string>

#include "obs/obs.hpp"

namespace easched::metrics {
struct RunReport;
}
namespace easched::support {
class CliArgs;
}

namespace easched::obs {

struct ObsOptions {
  std::string trace_path;    ///< empty = no trace requested
  std::string trace_format = "jsonl";  ///< "jsonl" or "chrome"
  std::string metrics_path;  ///< empty = no metrics snapshot requested
  std::string summary_path;  ///< empty = no run_summary.json requested
  bool attribution = false;  ///< energy ledger + decision log on
  bool profile = false;      ///< print the phase-profiling rollup table

  // Live telemetry (see obs/telemetry/): any of these switches the
  // sampling periodic on.
  std::string telemetry_path;  ///< --telemetry-out= JSONL time series
  std::string prom_path;       ///< --prom-out= Prometheus exposition file
  std::string alerts_spec;     ///< --alerts= rule spec (inline or file)
  bool live = false;           ///< --live terminal dashboard
  double telemetry_period_s = 60;   ///< --telemetry-period= sim seconds
  std::size_t telemetry_ring = 4096;  ///< --telemetry-ring= snapshots
};

/// Reads the observability flags from parsed CLI args. Throws
/// std::invalid_argument on a bare `--trace` (a path is required), an
/// unknown trace format or another malformed flag (the examples turn it
/// into a usage error with support::run_guarded).
ObsOptions options_from_cli(const support::CliArgs& args);

/// True when any output was requested, i.e. the run needs a bundle.
[[nodiscard]] bool wants_observability(const ObsOptions& opts);

/// Enables the bundle components the options ask for. Throws
/// std::invalid_argument on a malformed --alerts= spec (the examples turn
/// it into a usage error with support::run_guarded).
void configure(Observability& o, const ObsOptions& opts);

/// Writes the requested outputs: the trace file in the chosen format, the
/// metrics snapshot (CSV for paths ending in .csv, JSON otherwise; the
/// experiment runner already published the run counters into the
/// registry), the run summary (needs `report`; skipped with a warning when
/// --summary-out was given without one), and the profiling table to
/// stdout. Prints a one-line note per file written.
void finish(Observability& o, const ObsOptions& opts,
            const metrics::RunReport* report = nullptr);

}  // namespace easched::obs
