// Simulated-annealing solver for the allocation matrix.
//
// Section II of the paper: "Meta-heuristic algorithms such as Tabu search
// and Simulated Annealing have been also proposed [12], [14], [15]" as
// alternatives to greedy mapping heuristics. This solver makes that
// comparison concrete: a Metropolis walk over plans (random column to a
// random feasible row, accepted when improving or with probability
// exp(-delta/T) otherwise) under a geometric cooling schedule. It can
// escape the local optima that trap Algorithm 1, at the price of many more
// score evaluations — exactly the trade-off the paper invokes to justify
// the greedy choice for an *online* scheduler.
#pragma once

#include <cmath>
#include <vector>

#include "core/score.hpp"
#include "support/rng.hpp"

namespace easched::core {

struct AnnealingParams {
  double initial_temperature = 50.0;  ///< in score units (seconds-like)
  double cooling = 0.97;              ///< geometric factor per step
  double min_temperature = 0.5;       ///< stop when T falls below
  int steps_per_temperature = 16;
  std::uint64_t seed = 1;
};

struct AnnealingStats {
  int proposals = 0;
  int accepted = 0;
  int uphill_accepted = 0;
  double best_cost = 0;
};

/// Anneals `model` (same concept as hill_climb, plus bool placeable(r) for
/// real rows; move() must support moving queued columns back to the
/// virtual row). The model is left in the best plan encountered.
template <typename Model>
AnnealingStats anneal(Model& model, const AnnealingParams& params) {
  AnnealingStats stats;
  const int cols = model.cols();
  // The walk proposes only placeable rows and the virtual row: a move onto
  // a non-placeable (all-kInf) row could never be accepted.
  std::vector<int> targets;
  for (int r = 0; r < model.virtual_row(); ++r) {
    if (model.placeable(r)) targets.push_back(r);
  }
  targets.push_back(model.virtual_row());

  const auto total_cost = [&] {
    double sum = 0;
    for (int c = 0; c < cols; ++c) sum += model.cell(model.plan_row(c), c);
    return sum;
  };

  std::vector<int> best(static_cast<std::size_t>(cols));
  const auto snapshot = [&] {
    for (int c = 0; c < cols; ++c) best[static_cast<std::size_t>(c)] = model.plan_row(c);
  };
  double cost = total_cost();
  stats.best_cost = cost;
  snapshot();
  if (cols == 0 || targets.size() <= 1) return stats;

  support::Rng rng{params.seed};
  std::vector<int> movable;
  for (int c = 0; c < cols; ++c) {
    if (model.movable(c)) movable.push_back(c);
  }
  if (movable.empty()) return stats;

  for (double t = params.initial_temperature; t >= params.min_temperature;
       t *= params.cooling) {
    for (int step = 0; step < params.steps_per_temperature; ++step) {
      const int c = movable[rng.uniform_int(0, movable.size() - 1)];
      const int from = model.plan_row(c);
      // Candidate row: any real host, or back to the queue for columns
      // that entered from it.
      int to;
      do {
        to = targets[rng.uniform_int(0, targets.size() - 1)];
      } while (to == from ||
               (to == model.virtual_row() &&
                model.original_row(c) != model.virtual_row()));

      ++stats.proposals;
      model.move(to, c);
      const double new_cost = total_cost();
      const double delta = new_cost - cost;
      const bool accept =
          delta <= 0 || rng.uniform01() < std::exp(-delta / t);
      if (accept) {
        cost = new_cost;
        ++stats.accepted;
        if (delta > 0) ++stats.uphill_accepted;
        if (cost < stats.best_cost) {
          stats.best_cost = cost;
          snapshot();
        }
      } else {
        model.move(from, c);
      }
    }
  }

  // Leave the model in the best plan seen.
  for (int c = 0; c < cols; ++c) {
    const int r = best[static_cast<std::size_t>(c)];
    if (model.plan_row(c) != r) model.move(r, c);
  }
  return stats;
}

}  // namespace easched::core
