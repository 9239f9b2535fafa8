// The actuator operations' lifecycle, declared once.
//
// Each faults::FaultOp (VM creation, live migration, host boot, host
// shutdown, checkpoint) is one kOpRows row: where its duration comes
// from, what it traces when it starts and when it completes, which
// circuit-breaker notes it makes and which driver callback hears of it.
// The Datacenter's start, finish and fail paths read every per-operation
// step from the row, so the table is the catalogue of what each operation
// does, gaps included: a boot and a checkpoint report only their failures
// to the breaker, and a shutdown reports nothing.
//
// Included only by the Datacenter's implementation and its tests.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <iterator>
#include <optional>

#include "datacenter/datacenter.hpp"
#include "obs/trace.hpp"
#include "support/contracts.hpp"

namespace easched::datacenter {

/// The EventKind of a step that traces nothing.
inline constexpr obs::EventKind kUntraced = obs::EventKind::kCount;

/// Which outcomes an operation reports to its host's circuit breaker
/// (resilience::ResilienceController::note_op_start/success/failure).
struct BreakerNotes {
  bool start;
  bool success;
  bool failure;
  bool operator==(const BreakerNotes&) const = default;
};
inline constexpr BreakerNotes kEveryOutcome{true, true, true};
inline constexpr BreakerNotes kFailuresOnly{false, false, true};
inline constexpr BreakerNotes kNoOutcome{false, false, false};

/// One actuator operation's lifecycle.
struct OpRow {
  faults::FaultOp op;
  /// The Operation it keeps in its host's `ops` while in flight (a
  /// migration's active in-leg on the destination); none for the power
  /// ops, which are the host's `transition_event`.
  std::optional<Operation::Kind> leg;
  /// Mean duration: a field of the spec of the host that runs the
  /// operation (a migration's destination), or nullptr for the checkpoint
  /// policy's `duration_s`. An injector aborts the operation at
  /// `op_timeout_factor` times this mean.
  double HostSpec::*mean_s;
  /// Whether the duration is drawn from N(mean, mean * duration_sigma_ratio)
  /// truncated at 1 s, or is the mean itself.
  bool drawn;
  /// Traced when the operation starts, and as a span over it when it
  /// completes.
  obs::EventKind start;
  obs::EventKind done;
  /// Traced when it fails or its deadline aborts it. A `kOpFailed` failure
  /// (label = the op) is also reported to the driver's
  /// on_operation_failed.
  obs::EventKind failed;
  BreakerNotes breaker;
  /// Hears the VM (the host, for power ops) when the operation completes.
  std::function<void(std::uint32_t)> Datacenter::*on_done;
  /// Hears the host after a failure, once on_operation_failed (if any) has.
  std::function<void(HostId)> Datacenter::*on_failed;
};

/// Every actuator operation, in FaultOp order.
inline constexpr OpRow kOpRows[] = {
    {.op = faults::FaultOp::kCreate, .leg = Operation::Kind::kCreate,
     .mean_s = &HostSpec::creation_cost_s, .drawn = true,
     .start = obs::EventKind::kCreateStart, .done = obs::EventKind::kVmReady,
     .failed = obs::EventKind::kOpFailed, .breaker = kEveryOutcome,
     .on_done = &Datacenter::on_vm_ready, .on_failed = nullptr},
    {.op = faults::FaultOp::kMigrate, .leg = Operation::Kind::kMigrateIn,
     .mean_s = &HostSpec::migration_cost_s, .drawn = true,
     .start = obs::EventKind::kMigrateStart,
     .done = obs::EventKind::kMigrateDone,
     .failed = obs::EventKind::kOpFailed, .breaker = kEveryOutcome,
     .on_done = &Datacenter::on_migration_done, .on_failed = nullptr},
    {.op = faults::FaultOp::kPowerOn, .leg = std::nullopt,
     .mean_s = &HostSpec::boot_time_s, .drawn = false,
     .start = obs::EventKind::kPowerOn, .done = obs::EventKind::kHostOnline,
     .failed = obs::EventKind::kBootFailed, .breaker = kFailuresOnly,
     .on_done = &Datacenter::on_host_online,
     .on_failed = &Datacenter::on_host_boot_failed},
    {.op = faults::FaultOp::kPowerOff, .leg = std::nullopt,
     .mean_s = &HostSpec::shutdown_time_s, .drawn = false,
     .start = obs::EventKind::kPowerOff, .done = obs::EventKind::kHostOff,
     .failed = obs::EventKind::kOpFailed, .breaker = kNoOutcome,
     .on_done = &Datacenter::on_host_off,
     .on_failed = &Datacenter::on_host_online},
    {.op = faults::FaultOp::kCheckpoint, .leg = Operation::Kind::kCheckpoint,
     .mean_s = nullptr, .drawn = false, .start = kUntraced,
     .done = kUntraced, .failed = obs::EventKind::kOpFailed,
     .breaker = kFailuresOnly, .on_done = nullptr, .on_failed = nullptr},
};
static_assert(std::size(kOpRows) == faults::kNumFaultOps,
              "every FaultOp needs exactly one kOpRows row");
static_assert(
    [] {
      for (std::size_t i = 0; i < std::size(kOpRows); ++i) {
        if (static_cast<std::size_t>(kOpRows[i].op) != i) return false;
      }
      return true;
    }(),
    "kOpRows rows must be in FaultOp order");

/// The row of `op`.
[[nodiscard]] constexpr const OpRow& op_row(faults::FaultOp op) noexcept {
  return kOpRows[static_cast<std::size_t>(op)];
}

/// The row of the operation whose in-flight leg is `leg` (never the
/// passive kMigrateOut, which completes with its in-leg).
[[nodiscard]] inline const OpRow& op_row(Operation::Kind leg) {
  const OpRow* row = std::find_if(
      std::begin(kOpRows), std::end(kOpRows),
      [leg](const OpRow& r) { return r.leg == leg; });
  EA_ASSERT(row != std::end(kOpRows));
  return *row;
}

}  // namespace easched::datacenter
