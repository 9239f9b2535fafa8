#include "faults/fault_plan.hpp"

#include <fstream>
#include <iterator>
#include <stdexcept>

#include "support/key_table.hpp"

namespace easched::faults {

namespace {

using support::at;

constexpr const char* kSpec = "faults";
constexpr std::string_view kLemon = "lemon";  // <host>:<multiplier>, repeats

const char* kOpNames[kNumFaultOps] = {"create", "migrate", "power_on",
                                      "power_off", "checkpoint"};

/// `<op>.<key>` for every operation.
constexpr support::KeyRow<OpFaultSpec> kOpKeys[] = {
    {"fail", at<&OpFaultSpec::fail_prob>},
    {"hang", at<&OpFaultSpec::hang_prob>},
    {"slow", at<&OpFaultSpec::slow_prob>},
    {"slow_factor", at<&OpFaultSpec::slow_factor>},
};

using Q = QuarantinePolicy;
using B = BreakerPolicy;
constexpr support::KeyRow<FaultPlan> kPlanKeys[] = {
    {"seed", at<&FaultPlan::seed>},
    {"timeout_factor", at<&FaultPlan::op_timeout_factor>},
    {"retry_base", at<&FaultPlan::retry, &RetryPolicy::base_s>},
    {"retry_cap", at<&FaultPlan::retry, &RetryPolicy::cap_s>},
    {"retry_jitter", at<&FaultPlan::retry, &RetryPolicy::jitter>},
    {"quarantine_budget", at<&FaultPlan::quarantine, &Q::failure_budget>},
    {"quarantine_window", at<&FaultPlan::quarantine, &Q::window_s>},
    {"quarantine_cooldown", at<&FaultPlan::quarantine, &Q::cooldown_s>},
    {"breaker_threshold", at<&FaultPlan::breakers, &B::threshold>},
    {"breaker_probe_after", at<&FaultPlan::breakers, &B::probe_after_s>},
    {"breaker_dead_after", at<&FaultPlan::breakers, &B::dead_after>},
};

std::string op_prefix(std::size_t i) { return std::string(kOpNames[i]) + '.'; }

LemonHost parse_lemon(std::string_view value) {
  const auto colon = value.find(':');
  LemonHost lemon;
  if (colon == std::string_view::npos ||
      !support::parse_value(value.substr(0, colon), lemon.host) ||
      !support::parse_value(value.substr(colon + 1), lemon.multiplier) ||
      lemon.multiplier < 0) {
    support::bad_value(kSpec, kLemon, value);
  }
  return lemon;
}

}  // namespace

const char* to_string(FaultOp op) noexcept {
  const auto i = static_cast<std::size_t>(op);
  return i < kNumFaultOps ? kOpNames[i] : "?";
}

double FaultPlan::lemon_multiplier(datacenter::HostId h) const {
  double m = 1.0;
  for (const LemonHost& lemon : lemons) {
    if (lemon.host == h) m *= lemon.multiplier;
  }
  return m;
}

std::string FaultPlan::to_string() const {
  std::string out;
  support::write_keys(out, kPlanKeys, *this, ',');
  for (std::size_t i = 0; i < kNumFaultOps; ++i) {
    support::write_keys(out, kOpKeys, ops[i], ',', op_prefix(i));
  }
  for (const LemonHost& lemon : lemons) {
    support::append_pair(out, kLemon,
                         support::format_value(lemon.host) + ':' +
                             support::format_value(lemon.multiplier),
                         ',');
  }
  return out;
}

FaultPlan parse_fault_plan(const std::string& spec) {
  std::string text = spec;
  if (!spec.empty() && spec.find('=') == std::string::npos) {
    std::ifstream in(spec);
    if (!in.is_open()) {
      throw std::invalid_argument("faults: cannot open plan file '" + spec +
                                  "'");
    }
    text.assign(std::istreambuf_iterator<char>(in), {});
  }
  FaultPlan plan;
  plan.enabled = true;
  support::for_each_pair(text, kSpec, [&plan](std::string_view key,
                                              std::string_view value) {
    if (key == kLemon) {
      plan.lemons.push_back(parse_lemon(value));
      return;
    }
    if (support::read_key(kPlanKeys, plan, key, value, kSpec)) return;
    for (std::size_t i = 0; i < kNumFaultOps; ++i) {
      if (support::read_key(kOpKeys, plan.ops[i], key, value, kSpec,
                            op_prefix(i))) {
        return;
      }
    }
    support::unknown_key(kSpec, key);
  });
  return plan;
}

}  // namespace easched::faults
