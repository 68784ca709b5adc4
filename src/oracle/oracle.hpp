// Differential oracles: independent reference implementations that the
// tests and benches check the product solvers against. Only tests/ and
// bench/ link this library; the registry, the CLI and the service never
// reach it, so none of these is a run-time choice.
//
//  * solve_lp_dense      — the two-phase dense tableau; checks the sparse
//                          revised simplex behind solve_lp (lp/simplex.hpp).
//  * solve_exact_ise_bnb — depth-first branch-and-bound over integer
//                          calibration start times; checks the state-space
//                          search behind solve_exact_ise
//                          (baselines/exact_ise.hpp).
//  * BranchBoundMM       — machine minimization by depth-first
//                          branch_bound_feasibility over m = lower bound..n;
//                          checks ExactMM (mm/mm.hpp).
//
// An oracle is useful because it shares no search logic with the code it
// checks: none of these calls into the state-space engine or the revised
// simplex.
#pragma once

#include <cstdint>
#include <string>

#include "baselines/exact_ise.hpp"
#include "lp/simplex.hpp"
#include "mm/mm.hpp"

namespace calisched::oracle {

/// Solves min c'x s.t. model rows, x >= 0 with the dense two-phase tableau.
/// Same statuses, tolerances (kLp*Tol), Bland fallback, pivot limit and
/// RunLimits polling as solve_lp; it honours every SimplexOptions field.
/// Phase spans and the `pivots.*` / `tableau.*` counters go to
/// `options.trace`.
[[nodiscard]] LpSolution solve_lp_dense(const LpModel& model,
                                        const SimplexOptions& options = {});

/// Exact minimum-calibration search by branch-and-bound: for each
/// calibration count K from the combinatorial lower bound upward, enumerate
/// nondecreasing K-tuples of start times whose overlap fits the machine
/// count, color them greedily onto machines, and pack jobs depth-first with
/// an exact single-machine feasibility check per calibration. Honors every
/// ExactIseOptions field but `trace`; `limits.node_budget` overrides
/// `node_budget` when nonzero, as in solve_exact_ise.
[[nodiscard]] ExactIseResult solve_exact_ise_bnb(
    const Instance& instance, const ExactIseOptions& options = {});

/// Exact MM by depth-first branch-and-bound, trying m = mm_lower_bound(I),
/// ..., n; an exhausted node budget falls back to the greedy schedule, as
/// ExactMM does. The effective budget is `limits.node_budget` when set,
/// else the constructor's.
class BranchBoundMM final : public MachineMinimizer {
 public:
  explicit BranchBoundMM(std::int64_t node_budget = 4'000'000)
      : node_budget_(node_budget) {}
  using MachineMinimizer::minimize;
  [[nodiscard]] MMResult minimize(const Instance& instance,
                                  const RunLimits& limits) const override;
  [[nodiscard]] std::string name() const override { return "exact-bnb"; }

 private:
  std::int64_t node_budget_;
};

}  // namespace calisched::oracle
