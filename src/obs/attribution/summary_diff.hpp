// The one comparator: diffs fresh numbers against a baseline.
//
// A JSON document is flattened into dotted-path → number entries
// ("energy.hosts.3.total_j" → 12345.6); two flattened maps are then
// compared metric-by-metric. Two document kinds meet here:
//
//   * run_summary.json artifacts (easched.run_summary/1): every number is
//     held to one relative threshold (`trace_tool diff --threshold=`);
//   * committed baselines (easched.baseline/1: BENCH_fleet.json,
//     BENCH_sim.json, tests/data/golden_envelopes.json): each metric
//     carries its own band and direction in the baseline (side A).
//
// Missing keys on either side always count as regressions (a renamed or
// dropped metric must not pass silently), as does a schema-id mismatch.
// `trace_tool diff`, `bench_fidelity_gate` and the attribution ctest gate
// all drive this, so scripts and tests agree on what "regressed" means.
#pragma once

#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace easched::obs {

/// Flat numeric view of a JSON document: dotted object keys, array indices
/// as path segments, numeric leaves only (booleans as 0/1, nulls dropped).
/// String leaves are kept separately so the schema id can be checked.
struct FlatSummary {
  std::map<std::string, double> numbers;
  std::map<std::string, std::string> strings;
};

/// Parses `json` (a full JSON document, read by obs::read_json) into its
/// flat view. Returns false on malformed input, in which case `error` (if
/// non-null) gets a message.
bool flatten_json(const std::string& json, FlatSummary& out,
                  std::string* error = nullptr);

/// Schema id of the committed baselines. Shape:
///
///   {"schema": "easched.baseline/1",
///    "context": {"<field>": "<string>", ...},
///    "metrics": {"<name>": {"value": V, "unit": "<unit>",
///                           "better": "lower"|"higher",   (optional)
///                           "abs_tol": T, "rel_tol": R},  (optional)
///                ...}}
///
/// `context` is descriptive (strings are never compared). In the baseline
/// (side A) `abs_tol` allows |b - a| <= T and `rel_tol` allows
/// |b - a| <= R * |a|; a value must meet every tolerance it carries. With
/// `better`, a move in the better direction always passes. Tolerances are
/// metadata, never compared themselves; a metric without one falls back to
/// DiffOptions::rel_threshold.
inline constexpr const char* kBaselineSchema = "easched.baseline/1";

/// One metric of a baseline document; a negative tolerance is absent.
struct BaselineMetric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string better;  ///< "lower", "higher" or "" (two-sided)
  double abs_tol = -1;
  double rel_tol = -1;
};

/// Writes a baseline document, one metric per line, in the given order.
void write_baseline(
    std::ostream& os,
    const std::vector<std::pair<std::string, std::string>>& context,
    const std::vector<BaselineMetric>& metrics);

struct DiffOptions {
  /// Relative threshold: |a-b| / max(|a|,|b|) above this is a delta.
  /// 0 means exact match required.
  double rel_threshold = 0.0;
};

struct DiffEntry {
  std::string key;
  double a = 0;
  double b = 0;
  double rel = 0;           ///< relative difference (0 when missing)
  double band = -1;         ///< the baseline's band; -1 = rel_threshold
  bool missing_a = false;   ///< key absent from run A
  bool missing_b = false;   ///< key absent from run B
};

struct DiffResult {
  std::vector<DiffEntry> deltas;  ///< entries exceeding their threshold
  bool schema_mismatch = false;
  [[nodiscard]] bool regressed() const noexcept {
    return schema_mismatch || !deltas.empty();
  }
};

/// Compares two flattened documents, A the baseline and B the fresh one.
/// Keys are the union of both sides.
[[nodiscard]] DiffResult diff_summaries(const FlatSummary& a,
                                        const FlatSummary& b,
                                        const DiffOptions& options);

/// Human-readable report of a diff ("<key>: <a> -> <b> (rel ...)" lines,
/// or "no deltas"). `name_a`/`name_b` label the two runs.
[[nodiscard]] std::string format_diff(const DiffResult& result,
                                      const std::string& name_a,
                                      const std::string& name_b);

}  // namespace easched::obs
