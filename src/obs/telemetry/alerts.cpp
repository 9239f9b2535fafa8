#include "obs/telemetry/alerts.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>

#include "obs/obs.hpp"
#include "obs/telemetry/telemetry.hpp"
#include "support/key_table.hpp"

namespace easched::obs {

namespace {

/// The alert series `field` at `snap`: the row's value, or for a per-host
/// row that value over the fleet size.
double series_at(const TelemetrySnapshot& snap, std::size_t field) {
  const SnapshotField& f = kSnapshotFields[field];
  const double v = f.value(snap);
  if (!f.alert_per_host) return v;
  return snap.hosts.empty() ? 0.0
                            : v / static_cast<double>(snap.hosts.size());
}

double parse_value(const std::string& text, const std::string& rule) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  std::string rest = end;
  // Burn multipliers read naturally as "2x".
  if (rest == "x") rest.clear();
  if (end == text.c_str() || !rest.empty()) {
    throw std::invalid_argument("alert rule '" + rule +
                                "': malformed number '" + text + "'");
  }
  return v;
}

AlertRule parse_one_rule(const std::string& rule) {
  const std::size_t cmp = rule.find_first_of("<>");
  if (cmp == std::string::npos || cmp == 0) {
    throw std::invalid_argument("alert rule '" + rule +
                                "': expected '<series> > <bound>'");
  }

  AlertRule out;
  out.name = rule;
  out.above = rule[cmp] == '>';

  // Left of the comparator: the series name, optionally followed by a rule
  // kind keyword ("queue_depth rate", "sla_satisfaction burn").
  std::istringstream lhs(rule.substr(0, cmp));
  std::string series_tok;
  std::string kind_tok;
  lhs >> series_tok >> kind_tok;
  const auto row = std::find_if(
      std::begin(kSnapshotFields), std::end(kSnapshotFields),
      [&](const SnapshotField& f) {
        return f.alert != nullptr && series_tok == f.alert;
      });
  if (row == std::end(kSnapshotFields)) {
    throw std::invalid_argument("alert rule '" + rule +
                                "': unknown series '" + series_tok + "'");
  }
  out.series = static_cast<std::size_t>(row - std::begin(kSnapshotFields));
  if (kind_tok == "rate") {
    out.kind = AlertKind::kRate;
  } else if (kind_tok == "burn") {
    out.kind = AlertKind::kBurn;
  } else if (!kind_tok.empty()) {
    throw std::invalid_argument("alert rule '" + rule +
                                "': unknown rule kind '" + kind_tok + "'");
  }

  // Right of the comparator: the bound, then key=value options.
  std::istringstream rhs(rule.substr(cmp + 1));
  std::string tok;
  if (!(rhs >> tok)) {
    throw std::invalid_argument("alert rule '" + rule + "': missing bound");
  }
  out.bound = parse_value(tok, rule);
  while (rhs >> tok) {
    const std::size_t eq = tok.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("alert rule '" + rule +
                                  "': expected key=value, got '" + tok + "'");
    }
    const std::string key = tok.substr(0, eq);
    const std::string value = tok.substr(eq + 1);
    if (key == "for") {
      out.for_s = parse_value(value, rule);
    } else if (key == "window") {
      out.window_s = parse_value(value, rule);
    } else if (key == "resolve") {
      out.resolve = parse_value(value, rule);
      out.has_resolve = true;
    } else if (key == "slo") {
      out.slo = parse_value(value, rule);
    } else if (key == "budget") {
      out.budget = parse_value(value, rule);
    } else if (key == "name") {
      out.name = value;
    } else {
      throw std::invalid_argument("alert rule '" + rule +
                                  "': unknown option '" + key + "'");
    }
  }
  return out;
}

}  // namespace

std::vector<AlertRule> parse_alert_rules(const std::string& spec) {
  std::string text = spec;
  if (spec.find_first_of("<>") == std::string::npos) {
    // No comparator anywhere: a file path, rules by line or by comma.
    std::ifstream in(spec);
    if (!in.is_open()) {
      throw std::invalid_argument("alerts: cannot open spec file '" + spec +
                                  "'");
    }
    text.assign(std::istreambuf_iterator<char>(in), {});
  }
  std::vector<AlertRule> rules;
  support::for_each_item(text, [&rules](std::string_view rule) {
    rules.push_back(parse_one_rule(std::string(rule)));
  });
  return rules;
}

// ---- AlertEngine -----------------------------------------------------------

void AlertEngine::configure(std::vector<AlertRule> rules) {
  rules_ = std::move(rules);
  states_.assign(rules_.size(), RuleState{});
  log_.clear();
}

double AlertEngine::signal(const AlertRule& rule,
                           const TelemetrySnapshot& snap,
                           const SnapshotRing& history) const {
  switch (rule.kind) {
    case AlertKind::kThreshold:
      return series_at(snap, rule.series);
    case AlertKind::kRate: {
      // Slope over the trailing window: newest sample vs the oldest
      // retained one inside it. One sample (or an evicted window) → 0.
      const double cutoff = snap.t - rule.window_s;
      for (std::size_t i = 0; i < history.size(); ++i) {
        const TelemetrySnapshot& old = history.at(i);
        if (old.t < cutoff) continue;
        const double dt = snap.t - old.t;
        if (dt <= 0) return 0;
        return (series_at(snap, rule.series) -
                series_at(old, rule.series)) /
               dt;
      }
      return 0;
    }
    case AlertKind::kBurn: {
      // Mean shortfall below the SLO target over the trailing window,
      // normalised by the sustainable shortfall (the error budget).
      if (rule.budget <= 0) return 0;
      const double cutoff = snap.t - rule.window_s;
      double shortfall = 0;
      std::size_t n = 0;
      for (std::size_t i = 0; i < history.size(); ++i) {
        const TelemetrySnapshot& old = history.at(i);
        if (old.t < cutoff) continue;
        shortfall += std::max(0.0, rule.slo - series_at(old, rule.series));
        ++n;
      }
      shortfall += std::max(0.0, rule.slo - series_at(snap, rule.series));
      ++n;
      return shortfall / static_cast<double>(n) / rule.budget;
    }
  }
  return 0;
}

std::vector<std::string> AlertEngine::evaluate(
    const TelemetrySnapshot& snap, const SnapshotRing& history,
    metrics::Recorder* recorder) {
  std::vector<std::string> active;
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    const AlertRule& rule = rules_[i];
    RuleState& st = states_[i];
    const double value = signal(rule, snap, history);
    const bool breaching = rule.above ? value > rule.bound
                                      : value < rule.bound;

    if (!st.active) {
      if (breaching) {
        if (!st.breaching) st.breach_since = snap.t;
        st.breaching = true;
        // >= at the boundary: with for=300 and a 60 s cadence the rule
        // fires on the sample exactly 300 s after the first breaching one.
        if (snap.t - st.breach_since >= rule.for_s) {
          st.active = true;
          st.open_log_index = log_.size();
          log_.push_back(AlertFiring{rule.name, snap.t, -1});
          if (recorder != nullptr) {
            if (auto* e =
                    obs::record(*recorder, snap.t, EventKind::kAlertFire)) {
              e->arg("value", value).arg("bound", rule.bound).label =
                  rule.name;
            }
            if (recorder->obs != nullptr) {
              recorder->obs->registry.counter("alerts.fired").inc();
            }
          }
        }
      } else {
        st.breaching = false;
      }
    } else {
      // Hysteresis: the episode only ends once the signal is back on the
      // good side of the resolve level (default: the firing bound).
      const double level = rule.has_resolve ? rule.resolve : rule.bound;
      const bool resolved = rule.above ? value <= level : value >= level;
      if (resolved) {
        st.active = false;
        st.breaching = false;
        log_[st.open_log_index].resolved_t = snap.t;
        if (recorder != nullptr) {
          if (auto* e =
                  obs::record(*recorder, snap.t, EventKind::kAlertResolve)) {
            e->arg("value", value)
                .arg("fired_t", log_[st.open_log_index].fired_t)
                .label = rule.name;
          }
          if (recorder->obs != nullptr) {
            recorder->obs->registry.counter("alerts.resolved").inc();
          }
        }
      }
    }
    if (st.active) active.push_back(rule.name);
  }
  return active;
}

std::size_t AlertEngine::active_count() const noexcept {
  std::size_t n = 0;
  for (const RuleState& st : states_) {
    if (st.active) ++n;
  }
  return n;
}

bool AlertEngine::is_active(std::size_t rule_index) const {
  return states_.at(rule_index).active;
}

std::string AlertEngine::log_to_string() const {
  std::string out;
  char buf[96];
  for (const AlertFiring& f : log_) {
    if (!out.empty()) out += "; ";
    out += f.rule;
    if (f.resolved_t >= 0) {
      std::snprintf(buf, sizeof(buf), " fired@%.9g resolved@%.9g", f.fired_t,
                    f.resolved_t);
    } else {
      std::snprintf(buf, sizeof(buf), " fired@%.9g (active)", f.fired_t);
    }
    out += buf;
  }
  return out;
}

}  // namespace easched::obs
