#include "obs/obs_cli.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>

#include "obs/attribution/run_summary.hpp"
#include "obs/telemetry/dashboard.hpp"
#include "support/cli.hpp"

namespace easched::obs {

ObsOptions options_from_cli(const support::CliArgs& args) {
  ObsOptions opts;
  opts.trace_path = args.get("trace", "");
  opts.trace_format = args.get("trace-format", "jsonl");
  opts.metrics_path = args.get("metrics-out", "");
  opts.summary_path = args.get("summary-out", "");
  opts.attribution = args.get_bool("attribution", false);
  opts.profile = args.get_bool("profile", false);
  opts.telemetry_path = args.get("telemetry-out", "");
  opts.prom_path = args.get("prom-out", "");
  opts.alerts_spec = args.get("alerts", "");
  opts.live = args.get_bool("live", false);
  opts.telemetry_period_s = args.get_double("telemetry-period", 60);
  opts.telemetry_ring =
      static_cast<std::size_t>(args.get_int("telemetry-ring", 4096));
  for (const char* flag : {"telemetry-out", "prom-out", "alerts"}) {
    if (args.get(flag, "") == "true") {  // bare flag with no value
      throw std::invalid_argument(std::string("--") + flag +
                                  " requires a value");
    }
  }
  if (opts.telemetry_period_s <= 0) {
    throw std::invalid_argument("--telemetry-period must be > 0");
  }
  if (opts.summary_path == "true") {  // bare `--summary-out` with no path
    throw std::invalid_argument(
        "--summary-out requires a path (--summary-out=run.json)");
  }
  if (opts.trace_path == "true") {  // bare `--trace` with no path
    throw std::invalid_argument("--trace requires a path (--trace=out.jsonl)");
  }
  if (!opts.trace_path.empty() && opts.trace_format != "jsonl" &&
      opts.trace_format != "chrome") {
    throw std::invalid_argument("unknown --trace-format '" +
                                opts.trace_format + "' (jsonl|chrome)");
  }
  return opts;
}

namespace {

bool wants_telemetry(const ObsOptions& opts) {
  return !opts.telemetry_path.empty() || !opts.prom_path.empty() ||
         !opts.alerts_spec.empty() || opts.live;
}

}  // namespace

bool wants_observability(const ObsOptions& opts) {
  return !opts.trace_path.empty() || !opts.metrics_path.empty() ||
         !opts.summary_path.empty() || opts.attribution || opts.profile ||
         wants_telemetry(opts);
}

void configure(Observability& o, const ObsOptions& opts) {
  if (!opts.trace_path.empty()) o.tracer.enable();
  if (opts.profile) o.profiler.enable();
  // A summary is only useful with attribution data in it, so asking for
  // the artifact implies the instruments (both null sinks otherwise).
  if (opts.attribution || !opts.summary_path.empty()) {
    o.ledger.enable();
    o.decisions.enable();
  }
  if (wants_telemetry(opts)) {
    TelemetryConfig tc;
    tc.period_s = opts.telemetry_period_s;
    tc.ring_capacity = opts.telemetry_ring;
    o.telemetry.enable(tc);
    if (!opts.telemetry_path.empty()) {
      auto sink = std::make_unique<JsonlSink>(opts.telemetry_path);
      if (!sink->ok()) {
        std::fprintf(stderr, "easched: cannot write '%s'\n",
                     opts.telemetry_path.c_str());
        std::exit(1);
      }
      o.telemetry.add_sink(std::move(sink));
    }
    if (!opts.prom_path.empty()) {
      o.telemetry.add_sink(std::make_unique<PromSink>(opts.prom_path));
    }
    if (opts.live) {
      o.telemetry.add_sink(std::make_unique<DashboardSink>(std::cout));
    }
    if (!opts.alerts_spec.empty()) {
      o.telemetry.set_alert_rules(parse_alert_rules(opts.alerts_spec));
    }
  }
}

namespace {

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::ofstream open_or_die(const std::string& path) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "easched: cannot write '%s'\n", path.c_str());
    std::exit(1);
  }
  return os;
}

}  // namespace

void finish(Observability& o, const ObsOptions& opts,
            const metrics::RunReport* report) {
  if (!opts.trace_path.empty()) {
    std::ofstream os = open_or_die(opts.trace_path);
    if (opts.trace_format == "chrome") {
      o.tracer.write_chrome(os);
    } else {
      o.tracer.write_jsonl(os);
    }
    std::printf("trace: %zu events -> %s (%s)\n", o.tracer.size(),
                opts.trace_path.c_str(), opts.trace_format.c_str());
  }
  if (!opts.metrics_path.empty()) {
    const MetricsSnapshot snap = o.registry.snapshot();
    std::ofstream os = open_or_die(opts.metrics_path);
    os << (ends_with(opts.metrics_path, ".csv") ? snap.to_csv()
                                                : snap.to_json());
    std::printf("metrics: %zu instruments -> %s\n", snap.rows.size(),
                opts.metrics_path.c_str());
  }
  if (!opts.summary_path.empty()) {
    if (report == nullptr) {
      std::fprintf(stderr,
                   "easched: --summary-out needs a run report; no summary "
                   "written\n");
    } else if (write_run_summary_file(opts.summary_path, *report, &o)) {
      std::printf("summary: %s -> %s\n", kRunSummarySchema,
                  opts.summary_path.c_str());
    } else {
      std::exit(1);
    }
  }
  if (!opts.telemetry_path.empty()) {
    std::printf("telemetry: %llu samples -> %s\n",
                static_cast<unsigned long long>(o.telemetry.samples_taken()),
                opts.telemetry_path.c_str());
  }
  if (!opts.prom_path.empty()) {
    std::printf("telemetry: latest exposition -> %s\n",
                opts.prom_path.c_str());
  }
  if (o.telemetry.alerts().enabled()) {
    const std::string log = o.telemetry.alerts().log_to_string();
    std::printf("alerts: %s\n", log.empty() ? "none fired" : log.c_str());
  }
  if (opts.profile) {
    const std::string table = o.profiler.to_string();
    if (!table.empty()) {
      std::printf("\n-- phase profile (wall-clock) --\n%s", table.c_str());
    }
  }
}

}  // namespace easched::obs
