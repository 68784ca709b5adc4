// LP solver front end: solve_lp runs the sparse revised simplex with
// presolve, an eta-file basis (product form of the inverse, periodic
// refactorization) and partial pricing; see lp/revised_simplex.hpp. There
// is one engine, no engine switch and one configuration: tolerances and
// the engine's tuning are constants, and the options carry only budgets,
// the Bland test seam and the trace. The dense two-phase tableau that
// tests and benches check it against lives in src/oracle/
// (oracle::solve_lp_dense) and honours every option and tolerance too.
// Each solve is cold: nothing carries a basis from one solve to the next.
//
// Semantics:
//  * Phase 1 minimizes the sum of artificial variables to find a basic
//    feasible point; > tolerance at optimum means infeasible.
//  * Pricing is Dantzig over partial-pricing sections; after a
//    configurable number of non-improving pivots the solver switches to
//    Bland's rule, which guarantees termination in the presence of
//    degeneracy.
#pragma once

#include <cstdint>
#include <vector>

#include "lp/model.hpp"
#include "runtime/limits.hpp"

namespace calisched {

class TraceContext;

enum class LpStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
  kDeadlineExceeded,  ///< RunLimits deadline expired mid-solve
  kCancelled,         ///< RunLimits cancel token fired mid-solve
};

/// Maps an LP outcome onto the shared solve-status taxonomy (kUnbounded
/// becomes kNumericalFailure: the models this codebase builds are bounded,
/// so an unbounded verdict signals a construction bug or roundoff).
[[nodiscard]] SolveStatus lp_status_to_solve(LpStatus status) noexcept;

/// Tolerances shared by solve_lp and the dense oracle, so differential
/// runs compare like with like.
inline constexpr double kLpFeasibilityTol = 1e-7;   ///< constraint / phase-1 feasibility
inline constexpr double kLpPivotTol = 1e-9;         ///< smallest acceptable pivot magnitude
inline constexpr double kLpReducedCostTol = 1e-9;   ///< optimality threshold

struct SimplexOptions {
  std::int64_t max_pivots = 2'000'000;
  /// Non-improving pivots before Bland's rule takes over; tests lower it
  /// to reach the anti-cycling path on small programs.
  int stall_before_bland = 256;

  /// Optional telemetry sink: phase spans, pivot counters, model shape,
  /// presolve reductions, and refactorization stats land here. Not owned.
  TraceContext* trace = nullptr;

  /// Wall-clock deadline + cancellation, polled once per pivot. A stopped
  /// solve returns kDeadlineExceeded / kCancelled.
  RunLimits limits;
};

struct LpSolution {
  LpStatus status = LpStatus::kIterationLimit;
  double objective = 0.0;
  std::vector<double> values;  ///< one per model variable (phase variables excluded)
  std::int64_t phase1_pivots = 0;
  std::int64_t phase2_pivots = 0;
  /// Pivots spent expelling zero-valued artificial basics after phase 1;
  /// not part of either phase count.
  std::int64_t expel_pivots = 0;
};

/// Solves min c'x s.t. model rows, x >= 0, with the sparse revised simplex.
/// The engine's buffers live in one arena per thread, so a sequence of
/// solves on a thread stops re-allocating them; results are bit-identical
/// to a solve in a fresh arena (trace keys `workspace.reused` /
/// `workspace.grown` report the reuse).
[[nodiscard]] LpSolution solve_lp(const LpModel& model,
                                  const SimplexOptions& options = {});

}  // namespace calisched
