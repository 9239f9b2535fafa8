// The paper's contribution: the score-based scheduling policy (SB).
//
// Every round with something to decide (a queued VM, or a consolidation
// sweep due) it snapshots the system into a ScoreModel, optimizes the
// (M+1) x N matrix with hill climbing (Algorithm 1) and turns the resulting
// plan into actions: queued VMs whose plan landed on a real host are
// created there; running VMs whose plan moved are migrated (only when the
// migration capability is enabled). The configurations of the evaluation:
//   SB0 = Preq + Pres + Ppwr                  (Table II)
//   SB1 = SB0 + Pvirt                         (Table III)
//   SB2 = SB1 + Pconc                         (Table III)
//   SB  = SB2 + migration                     (Tables IV, V)
//   SB-full = SB + PSLA + Pfault              (extensions, A2/A3 benches)
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/annealing.hpp"
#include "core/fleet.hpp"
#include "core/hill_climb.hpp"
#include "core/score.hpp"
#include "core/score_matrix.hpp"
#include "sched/policy.hpp"

namespace easched::core {

/// Matrix solver used each round. Hill climbing is the paper's Algorithm 1;
/// annealing is the section-II meta-heuristic alternative (slower, can
/// escape local optima; see bench_ablation_solver / bench_ablation_anneal).
enum class MatrixSolver : std::uint8_t { kHillClimb, kAnnealing };

/// Migration budget of one consolidation sweep.
inline constexpr int kMaxMigrationsPerRound = 8;

struct ScoreBasedConfig {
  ScoreParams params;
  bool migration = false;
  MatrixSolver solver = MatrixSolver::kHillClimb;
  AnnealingParams annealing;  ///< used when solver == kAnnealing
  /// Migration moves are only considered in periodic consolidation rounds
  /// (the paper: the policy "periodically calculates whether to move jobs
  /// in order to improve global system utility"); placements of queued VMs
  /// happen in every round.
  sim::SimTime migration_period_s = 1800;
  int max_moves = 256;            ///< Algorithm 1 iteration limit
  /// Minimum matrix improvement a migration must bring; keeps marginal
  /// reshuffles (whose cost the matrix only approximates) from happening.
  double min_migration_gain = 35;
  /// Ignored: the solver is serial. Kept only so that callers that still
  /// set it (perfbench/) compile; nothing in the library reads it.
  int solver_threads = 0;
  /// Cross-round incremental scheduling core (core/fleet.hpp): keep a
  /// persistent fleet snapshot between rounds, re-read only the hosts the
  /// Datacenter's dirty journal names, and let the hill climber prune
  /// provably infeasible candidates through the snapshot's per-block
  /// summaries (FleetState::blocks()).
  /// Every score model the policy builds — rounds under either solver and
  /// power-off ranking — uses it. Neither mode stores scores across
  /// rounds. Disable to run the reference core: each model reads every
  /// host afresh and prunes nothing. Decisions are bit-identical either
  /// way (the fleet differential and end-to-end tests hold this).
  bool incremental = true;
  std::string label = "SB";

  static ScoreBasedConfig sb0();
  static ScoreBasedConfig sb1();
  static ScoreBasedConfig sb2();
  static ScoreBasedConfig sb();       ///< full evaluated policy
  static ScoreBasedConfig sb_full();  ///< + PSLA + Pfault extensions
};

class ScoreBasedPolicy final : public sched::Policy {
 public:
  explicit ScoreBasedPolicy(ScoreBasedConfig config)
      : config_(std::move(config)) {}

  [[nodiscard]] std::string name() const override { return config_.label; }
  [[nodiscard]] bool uses_migration() const override {
    return config_.migration;
  }

  /// One round. A round with an empty queue and no consolidation sweep due
  /// is idle: it returns no action and builds no model, so it refreshes
  /// no fleet snapshot and runs no solver.
  std::vector<sched::Action> schedule(const sched::SchedContext& ctx) override;

  /// Section III-C: idle nodes are switched off by their aggregated matrix
  /// row score (higher aggregate — more infinities, higher penalties —
  /// goes first; ties to the earlier list entry). Only placeable
  /// candidates whose score exceeds -1 are ranked; when none is left, the
  /// pick is idle_hosts.front(). Expects every candidate to be idle and on
  /// (Host::is_idle_on()), as the power controller's list is.
  ///
  /// Reference mode scans every candidate on a fresh model per call.
  /// Incremental mode ranks once per controller pass: a call that does
  /// not continue the pass (see PowerOffRanking) builds the ranking on
  /// one model, and every call serves the next pick from it in O(1).
  /// Both modes pick alike.
  datacenter::HostId choose_power_off(
      const sched::SchedContext& ctx,
      const std::vector<datacenter::HostId>& idle_hosts) override;

  /// Work of incremental mode's power-off ranking, cumulative over the
  /// policy's life; zero in reference mode. It depends on the core mode,
  /// so it stays out of metrics::Counters.
  struct PowerOffStats {
    std::uint64_t rankings = 0;    ///< rankings built
    std::uint64_t aggregates = 0;  ///< row_aggregate() calls
  };
  [[nodiscard]] const PowerOffStats& power_off_stats() const noexcept {
    return power_off_stats_;
  }

  [[nodiscard]] const ScoreBasedConfig& config() const noexcept {
    return config_;
  }
  /// The hill climber's stats of the last round that ran it; zero after
  /// an idle round or an annealing round. The first-fit and frozen rungs
  /// leave them as they were.
  [[nodiscard]] const HillClimbStats& last_stats() const noexcept {
    return last_stats_;
  }

 private:
  /// Builds a score model of `ctx` into `model`: over fleet_, refreshed
  /// here, in incremental mode; over a private full read otherwise.
  void emplace_model(const sched::SchedContext& ctx, bool migration,
                     std::optional<ScoreModel>& model);

  /// LadderLevel::kFirstFit round: greedy first-fit placements of queued
  /// VMs (ascending host id), no score model, no migrations. O(queue x
  /// hosts) with no allocation beyond the action vector — the cheap rung
  /// the watchdog can always afford.
  std::vector<sched::Action> first_fit(const sched::SchedContext& ctx) const;

  /// Incremental mode's power-off ranking of one controller pass. The
  /// controller sheds hosts one call at a time at one instant, with only
  /// dc.power_off(pick) in between, which changes no column and no other
  /// row. A call continues the pass when all of these hold:
  ///   - the sim time, Simulator::dispatched() and ctx.queue are the
  ///     build's, so the columns and every row but the picks' are;
  ///   - the fleet journal holds exactly `served` hosts, no model was
  ///     built since (emplace_model() drops the ranking), and the idle
  ///     list is `served` shorter: each pick was journalled, and nothing
  ///     else was;
  ///   - the last pick is no longer idle-on (the caller shed it).
  /// Any other call builds a new ranking.
  struct PowerOffRanking {
    bool valid = false;
    sim::SimTime now = 0;
    std::uint64_t dispatched = 0;
    std::vector<datacenter::VmId> queue;
    std::size_t idle_count = 0;  ///< length of the build's idle list
    /// Placeable candidates scoring above -1, best first.
    std::vector<datacenter::HostId> order;
    std::size_t served = 0;  ///< picks served, from `order` or front()
    datacenter::HostId last = 0;
  };

  /// Whether a choose_power_off call continues the ranked pass.
  bool continues_pass(const sched::SchedContext& ctx,
                      const std::vector<datacenter::HostId>& idle_hosts) const;
  /// Builds power_off_ranking_ over `idle_hosts` on one fresh model.
  void rank_power_off(const sched::SchedContext& ctx,
                      const std::vector<datacenter::HostId>& idle_hosts);

  ScoreBasedConfig config_;
  HillClimbStats last_stats_;
  FleetState fleet_;  ///< cross-round state of the incremental core
  PowerOffRanking power_off_ranking_;
  PowerOffStats power_off_stats_;
  sim::SimTime last_consolidation_ = -1e18;  ///< time of last migration round
};

}  // namespace easched::core
