#include "obs/attribution/summary_diff.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <set>
#include <sstream>

#include "obs/json.hpp"

namespace easched::obs {
namespace {

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Tolerance leaves of a baseline metric: metadata, never compared.
bool is_tolerance(const std::string& key) {
  return ends_with(key, ".abs_tol") || ends_with(key, ".rel_tol");
}

/// The band A's baseline puts on `key` ("metrics.<name>.value"): the
/// tightest of its tolerances, or -1 when it carries none.
double band_of(const FlatSummary& a, const std::string& key, double value) {
  if (!ends_with(key, ".value")) return -1;
  const std::string stem = key.substr(0, key.size() - 6);
  double band = -1;
  const auto tighten = [&band](double t) {
    if (t >= 0 && (band < 0 || t < band)) band = t;
  };
  const auto abs_tol = a.numbers.find(stem + ".abs_tol");
  if (abs_tol != a.numbers.end()) tighten(abs_tol->second);
  const auto rel_tol = a.numbers.find(stem + ".rel_tol");
  if (rel_tol != a.numbers.end()) tighten(rel_tol->second * std::fabs(value));
  return band;
}

/// True when B moved from A in the direction A's baseline calls better.
bool moved_better(const FlatSummary& a, const std::string& key, double va,
                  double vb) {
  if (!ends_with(key, ".value")) return false;
  const auto it = a.strings.find(key.substr(0, key.size() - 6) + ".better");
  if (it == a.strings.end()) return false;
  return (it->second == "lower" && vb < va) ||
         (it->second == "higher" && vb > va);
}

}  // namespace

bool flatten_json(const std::string& json, FlatSummary& out,
                  std::string* error) {
  out.numbers.clear();
  out.strings.clear();
  return read_json(
      json,
      [&out](const JsonNode& node) {
        if (node.type == JsonType::kNumber || node.type == JsonType::kBool) {
          out.numbers[std::string(node.path)] = node.number;
        } else if (node.type == JsonType::kString) {
          out.strings[std::string(node.path)] = std::string(node.text);
        }
        return true;
      },
      error);
}

void write_baseline(
    std::ostream& os,
    const std::vector<std::pair<std::string, std::string>>& context,
    const std::vector<BaselineMetric>& metrics) {
  os << "{\n  \"schema\": \"" << kBaselineSchema << "\",\n  \"context\": {";
  for (std::size_t i = 0; i < context.size(); ++i) {
    os << (i > 0 ? ", " : "");
    write_json_string(os, context[i].first);
    os << ": ";
    write_json_string(os, context[i].second);
  }
  os << "},\n  \"metrics\": {\n";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const BaselineMetric& m = metrics[i];
    os << "    ";
    write_json_string(os, m.name);
    os << ": {\"value\": ";
    write_json_number(os, m.value);
    os << ", \"unit\": ";
    write_json_string(os, m.unit);
    if (!m.better.empty()) {
      os << ", \"better\": ";
      write_json_string(os, m.better);
    }
    if (m.abs_tol >= 0) {
      os << ", \"abs_tol\": ";
      write_json_number(os, m.abs_tol);
    }
    if (m.rel_tol >= 0) {
      os << ", \"rel_tol\": ";
      write_json_number(os, m.rel_tol);
    }
    os << '}' << (i + 1 < metrics.size() ? "," : "") << '\n';
  }
  os << "  }\n}\n";
}

DiffResult diff_summaries(const FlatSummary& a, const FlatSummary& b,
                          const DiffOptions& options) {
  DiffResult result;

  const auto schema_a = a.strings.find("schema");
  const auto schema_b = b.strings.find("schema");
  if (schema_a == a.strings.end() || schema_b == b.strings.end() ||
      schema_a->second != schema_b->second) {
    result.schema_mismatch = true;
  }
  const bool baseline =
      schema_a != a.strings.end() && schema_a->second == kBaselineSchema;

  std::set<std::string> keys;
  for (const auto& [k, v] : a.numbers) keys.insert(k);
  for (const auto& [k, v] : b.numbers) keys.insert(k);

  for (const std::string& key : keys) {
    if (baseline && is_tolerance(key)) continue;
    const auto ia = a.numbers.find(key);
    const auto ib = b.numbers.find(key);
    DiffEntry entry;
    entry.key = key;
    if (ia == a.numbers.end() || ib == b.numbers.end()) {
      entry.missing_a = ia == a.numbers.end();
      entry.missing_b = ib == b.numbers.end();
      if (!entry.missing_a) entry.a = ia->second;
      if (!entry.missing_b) entry.b = ib->second;
      result.deltas.push_back(std::move(entry));
      continue;
    }
    entry.a = ia->second;
    entry.b = ib->second;
    const double diff = std::fabs(entry.a - entry.b);
    if (diff == 0) continue;
    const double scale = std::max(std::fabs(entry.a), std::fabs(entry.b));
    entry.rel = scale > 0 ? diff / scale : 0.0;
    if (baseline) {
      if (moved_better(a, key, entry.a, entry.b)) continue;
      entry.band = band_of(a, key, entry.a);
    }
    const bool over = entry.band >= 0 ? diff > entry.band
                                      : entry.rel > options.rel_threshold;
    if (over) result.deltas.push_back(std::move(entry));
  }
  return result;
}

std::string format_diff(const DiffResult& result, const std::string& name_a,
                        const std::string& name_b) {
  std::ostringstream os;
  if (result.schema_mismatch) {
    os << "schema mismatch between '" << name_a << "' and '" << name_b
       << "'\n";
  }
  for (const DiffEntry& e : result.deltas) {
    os << e.key << ": ";
    if (e.missing_a) {
      os << "(missing)";
    } else {
      write_json_number(os, e.a);
    }
    os << " -> ";
    if (e.missing_b) {
      os << "(missing)";
    } else {
      write_json_number(os, e.b);
    }
    if (!e.missing_a && !e.missing_b) {
      os << " (rel ";
      write_json_number(os, e.rel);
      if (e.band >= 0) {
        os << ", outside band +/- ";
        write_json_number(os, e.band);
      }
      os << ')';
    }
    os << '\n';
  }
  if (!result.regressed()) {
    os << "no deltas: '" << name_a << "' and '" << name_b
       << "' match within thresholds\n";
  }
  return os.str();
}

}  // namespace easched::obs
