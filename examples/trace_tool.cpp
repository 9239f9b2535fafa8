// Workload and run-trace tooling: synthesise a Grid-like trace and write
// it as SWF, inspect an existing SWF file's aggregate statistics, or work
// with the observability layer's run traces (obs/trace.hpp).
//
// Usage:
//   trace_tool generate --out trace.swf [--days 7] [--jobs-per-hour 11.5]
//                       [--seed N]
//   trace_tool inspect --swf trace.swf
//   trace_tool summarize --trace run.jsonl     # JSONL run trace tallies
//   trace_tool tail run.jsonl [--kind=migrate] # stream-filter JSONL events
//             [--host=17] [--limit=N]          #   by kind prefix / host id
//   trace_tool validate --trace run.json       # Chrome trace_event check
//   trace_tool diff A.json B.json              # regression diff of B against
//             [--threshold=0.01]               #   A: run summaries under one
//                                              #   relative threshold,
//                                              #   baselines under their own
//                                              #   per-metric bands
//
// `diff` exits 0 when every metric matches within its threshold, 1 on any
// delta / missing metric / schema mismatch — the regression verdict the
// ctest gates, refresh_bench.sh and run_validation.sh rely on.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "obs/attribution/summary_diff.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "support/cli.hpp"
#include "workload/swf.hpp"
#include "workload/synthetic.hpp"

namespace {

/// Reads a JSONL run trace one event line at a time, keeping the fields
/// `summarize` and `tail` look at.
struct EventReader {
  std::ifstream in;
  std::string path;
  std::string line;
  std::uint64_t line_no = 0;
  bool bad = false;  ///< stopped at a malformed line (reported on stderr)
  std::string kind;
  std::string label;
  double host = -1;  ///< -1 = not host-scoped

  explicit EventReader(const std::string& p) : in(p), path(p) {}

  /// Advances to the next non-empty line; false at end or on a bad line.
  bool next() {
    using easched::obs::JsonType;
    const auto visit = [this](const easched::obs::JsonNode& n) {
      if (n.depth != 1) return true;
      if (n.key == "kind" && n.type == JsonType::kString) kind = n.text;
      if (n.key == "label" && n.type == JsonType::kString) label = n.text;
      if (n.key == "host" && n.type == JsonType::kNumber) host = n.number;
      return true;
    };
    while (std::getline(in, line)) {
      ++line_no;
      if (line.empty()) continue;
      kind.clear();
      label.clear();
      host = -1;
      std::string error;
      if (easched::obs::read_json(line, visit, &error)) return true;
      std::fprintf(stderr, "%s:%llu: %s\n", path.c_str(),
                   static_cast<unsigned long long>(line_no), error.c_str());
      bad = true;
      return false;
    }
    return false;
  }
};

/// Per-policy decision / migration / power-cycle tallies of one run trace.
struct PolicyTally {
  std::uint64_t placements = 0;
  std::uint64_t migration_decisions = 0;
  std::uint64_t migrations_done = 0;
  std::uint64_t rollbacks = 0;
  std::uint64_t power_ons = 0;
  std::uint64_t power_offs = 0;
  std::uint64_t events = 0;
};

int summarize_trace(const std::string& path) {
  EventReader e(path);
  if (!e.in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 2;
  }
  // Tallies keyed by policy: a JSONL file may concatenate several runs,
  // each opened by a run_begin event labelled with its policy.
  std::map<std::string, PolicyTally> tallies;
  std::string policy = "(no run-begin)";
  std::uint64_t lines = 0;
  using easched::obs::EventKind;
  const auto is = [&e](EventKind kind) {
    return e.kind == easched::obs::to_string(kind);
  };
  while (e.next()) {
    ++lines;
    if (is(EventKind::kRunBegin)) {
      policy = e.label.empty() ? "(unnamed)" : e.label;
    }
    PolicyTally& t = tallies[policy];
    ++t.events;
    if (is(EventKind::kDecision)) {
      if (e.label == "migrate") {
        ++t.migration_decisions;
      } else {
        ++t.placements;
      }
    } else if (is(EventKind::kMigrateDone)) {
      ++t.migrations_done;
    } else if (is(EventKind::kMigrateRollback)) {
      ++t.rollbacks;
    } else if (is(EventKind::kPowerOn)) {
      ++t.power_ons;
    } else if (is(EventKind::kPowerOff)) {
      ++t.power_offs;
    }
  }
  if (e.bad) return 1;
  std::printf("%s: %llu events\n", path.c_str(),
              static_cast<unsigned long long>(lines));
  std::printf("%-12s %10s %10s %10s %10s %10s %10s\n", "policy", "place",
              "mig-dec", "mig-done", "rollback", "pwr-on", "pwr-off");
  for (const auto& [name, t] : tallies) {
    std::printf("%-12s %10llu %10llu %10llu %10llu %10llu %10llu\n",
                name.c_str(), static_cast<unsigned long long>(t.placements),
                static_cast<unsigned long long>(t.migration_decisions),
                static_cast<unsigned long long>(t.migrations_done),
                static_cast<unsigned long long>(t.rollbacks),
                static_cast<unsigned long long>(t.power_ons),
                static_cast<unsigned long long>(t.power_offs));
  }
  return 0;
}

/// `tail` mode: stream a JSONL run trace, printing only the events whose
/// kind starts with `kind_prefix` (empty = all) and whose host id equals
/// `host` (-1 = all). A grep that understands the trace schema — `alert`
/// matches both alert-fire and alert-resolve, `--host=17` isolates one
/// machine's life story.
int tail_trace(const std::string& path, const std::string& kind_prefix,
               long long host, std::uint64_t limit) {
  EventReader e(path);
  if (!e.in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 2;
  }
  std::uint64_t matched = 0;
  while (e.next()) {
    if (!kind_prefix.empty() && e.kind.rfind(kind_prefix, 0) != 0) continue;
    if (host >= 0 && e.host != static_cast<double>(host)) continue;
    std::printf("%s\n", e.line.c_str());
    if (limit > 0 && ++matched >= limit) break;
  }
  return e.bad ? 1 : 0;
}

int validate_trace(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string error;
  if (!easched::obs::validate_chrome_trace(buf.str(), &error)) {
    std::fprintf(stderr, "%s: INVALID: %s\n", path.c_str(), error.c_str());
    return 1;
  }
  std::printf("%s: valid Chrome trace_event JSON\n", path.c_str());
  return 0;
}

bool load_flat_summary(const std::string& path,
                       easched::obs::FlatSummary& out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string error;
  if (!easched::obs::flatten_json(buf.str(), out, &error)) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), error.c_str());
    return false;
  }
  return true;
}

int diff_summaries_cli(const std::string& path_a, const std::string& path_b,
                       const easched::obs::DiffOptions& options) {
  easched::obs::FlatSummary a;
  easched::obs::FlatSummary b;
  if (!load_flat_summary(path_a, a) || !load_flat_summary(path_b, b)) {
    return 2;
  }
  const easched::obs::DiffResult result =
      easched::obs::diff_summaries(a, b, options);
  std::fputs(easched::obs::format_diff(result, path_a, path_b).c_str(),
             stdout);
  return result.regressed() ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace easched;
  support::CliArgs args(argc, argv);
  const std::string mode =
      args.positional().empty() ? "generate" : args.positional().front();

  if (mode == "diff") {
    obs::DiffOptions options;
    options.rel_threshold = args.get_double("threshold", 0.0);
    args.warn_unrecognized();
    if (args.positional().size() != 3) {
      std::fprintf(stderr,
                   "trace_tool diff <A.json> <B.json> [--threshold=REL]\n");
      return 2;
    }
    return diff_summaries_cli(args.positional()[1], args.positional()[2],
                              options);
  }

  if (mode == "tail") {
    // The trace may be a positional arg or --trace=, matching summarize.
    std::string path = args.get("trace", "");
    if (path.empty() && args.positional().size() == 2) {
      path = args.positional()[1];
    }
    const std::string kind = args.get("kind", "");
    const long long host = args.get_int("host", -1);
    const long long limit = args.get_int("limit", 0);
    args.warn_unrecognized();
    if (path.empty() || path == "true" || limit < 0) {
      std::fprintf(stderr,
                   "trace_tool tail <run.jsonl> [--kind=PREFIX] "
                   "[--host=ID] [--limit=N]\n");
      return 2;
    }
    return tail_trace(path, kind, host,
                      static_cast<std::uint64_t>(limit));
  }

  if (mode == "summarize" || mode == "validate") {
    const std::string path = args.get("trace", "");
    args.warn_unrecognized();
    if (path.empty() || path == "true") {
      std::fprintf(stderr, "trace_tool %s --trace <file>\n", mode.c_str());
      return 2;
    }
    return mode == "summarize" ? summarize_trace(path) : validate_trace(path);
  }

  if (mode == "inspect") {
    const std::string path = args.get("swf", "");
    if (path.empty()) {
      std::fprintf(stderr, "trace_tool inspect --swf <file>\n");
      return 2;
    }
    args.warn_unrecognized();
    const auto jobs = workload::read_swf_file(path);
    std::printf("%s\n",
                workload::describe(workload::compute_stats(jobs)).c_str());
    return 0;
  }

  if (mode == "generate") {
    workload::SyntheticConfig wl;
    wl.seed = static_cast<std::uint64_t>(args.get_int("seed", 20071001));
    wl.span_seconds = args.get_double("days", 7) * sim::kDay;
    wl.mean_jobs_per_hour = args.get_double("jobs-per-hour", 11.5);
    const std::string out_path = args.get("out", "");
    args.warn_unrecognized();
    const auto jobs = workload::generate(wl);
    std::printf("%s\n",
                workload::describe(workload::compute_stats(jobs)).c_str());

    const std::string& out = out_path;
    if (!out.empty()) {
      std::ofstream f(out);
      if (!f) {
        std::fprintf(stderr, "cannot open %s\n", out.c_str());
        return 2;
      }
      workload::write_swf(f, jobs);
      std::printf("wrote %zu jobs to %s\n", jobs.size(), out.c_str());
    }
    return 0;
  }

  std::fprintf(
      stderr,
      "unknown mode '%s' (generate|inspect|summarize|tail|validate|diff)\n",
      mode.c_str());
  return 2;
}
