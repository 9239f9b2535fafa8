#include "faults/fault_injector.hpp"

#include <utility>

namespace easched::faults {

const char* to_string(FaultOutcome::Kind kind) noexcept {
  switch (kind) {
    case FaultOutcome::Kind::kNone:
      return "none";
    case FaultOutcome::Kind::kFail:
      return "fail";
    case FaultOutcome::Kind::kHang:
      return "hang";
    case FaultOutcome::Kind::kSlow:
      return "slow";
  }
  return "?";
}

FaultInjector::FaultInjector(FaultPlan plan)
    : plan_(std::move(plan)), rng_(plan_.seed) {}

FaultOutcome FaultInjector::decide(FaultOp op, datacenter::HostId h) {
  // Fixed draw count: one categorical draw, one payload draw.
  const double u = rng_.uniform01();
  const double payload = rng_.uniform01();

  const OpFaultSpec& spec = plan_.spec(op);
  const double m = plan_.lemon_multiplier(h);
  // Scale by the lemon multiplier, then renormalise if the sum spills
  // past 1 so the categories keep their relative weights.
  double fail = spec.fail_prob * m;
  double hang = spec.hang_prob * m;
  double slow = spec.slow_prob * m;
  const double sum = fail + hang + slow;
  if (sum > 1.0) {
    fail /= sum;
    hang /= sum;
    slow /= sum;
  }

  FaultOutcome out;
  if (u < fail) {
    out.kind = FaultOutcome::Kind::kFail;
    out.fail_fraction = 0.1 + 0.8 * payload;
  } else if (u < fail + hang) {
    out.kind = FaultOutcome::Kind::kHang;
  } else if (u < fail + hang + slow) {
    out.kind = FaultOutcome::Kind::kSlow;
    // Stretch around the configured mean: factor in [1 + (f-1)/2, 1 + 3(f-1)/2].
    out.slow_factor = 1.0 + (spec.slow_factor - 1.0) * (0.5 + payload);
  }

  if (out.injected()) ++injected_;
  return out;
}

}  // namespace easched::faults
