// LP solver front end: solve_lp runs the sparse revised simplex with
// presolve, an eta-file basis (product form of the inverse, periodic
// refactorization) and partial pricing; see lp/revised_simplex.hpp. There
// is one engine and no engine switch. The dense two-phase tableau that
// tests and benches check it against lives in src/oracle/
// (oracle::solve_lp_dense) and takes the same options.
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
struct WarmStart;        // starting basis (revised_simplex.hpp)
class SimplexWorkspace;  // scratch arena (revised_simplex.hpp)

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

struct SimplexOptions {
  double feasibility_tol = 1e-7;   ///< constraint / phase-1 feasibility
  double pivot_tol = 1e-9;         ///< smallest acceptable pivot magnitude
  double reduced_cost_tol = 1e-9;  ///< optimality threshold
  std::int64_t max_pivots = 2'000'000;
  int stall_before_bland = 256;    ///< non-improving pivots before Bland

  bool presolve = true;            ///< run the presolve reductions
  /// Pivots since the last basis refactorization that trigger the next
  /// one. The two-sided triangular peel makes a rebuild near-linear in the
  /// basis nonzeros, but each rebuild still FTRANs every basis column, so
  /// the sweet spot sits well above the eta-growth break-even; 64 won a
  /// 4x4x4 parameter sweep on the TISE family.
  int refactor_interval = 64;
  /// Partial pricing: cap on the candidate list carried between pivots
  /// (each pivot re-prices the survivors; a full sweep still precedes any
  /// "optimal"). Small is fine — the list only seeds the next pivot.
  int pricing_candidates = 8;
  /// Partial pricing: columns examined per scan section. Tuned over the
  /// E12 TISE family (n = 6..32, independent seeds): 192 beat 128/160/
  /// 224/256 on total wall clock, mostly through luckier entering-column
  /// choices (fewer pivots on the larger instances); the scan cost itself
  /// is nearly flat across that range.
  int pricing_section = 192;

  /// Optional in/out starting basis (the dense oracle ignores it, so
  /// differential runs stay cold-start comparable). On entry a valid basis
  /// whose shape matches the presolved model is installed and Phase 1 is
  /// skipped when it refactorizes cleanly and is primal feasible;
  /// otherwise the solve silently falls back to a cold start. On an
  /// optimal exit the final basis is written back. Not owned; a WarmStart
  /// must not be shared by concurrent solves.
  WarmStart* warm_start = nullptr;
  /// Optional scratch arena. When null (the default) the solve reuses a
  /// per-thread workspace, so sequences of solves on one thread — batch
  /// workers, service workers, the pipelines' per-interval LPs — stop
  /// re-allocating the matrix, eta file, and work vectors with no
  /// call-site opt-in. Set it to direct reuse explicitly
  /// (or to a fresh workspace for a deliberately cold solve). Not owned; a
  /// workspace must not be shared by concurrent solves. Results are
  /// bit-identical whichever workspace a solve runs in.
  SimplexWorkspace* workspace = nullptr;

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
  /// True when a caller-provided WarmStart basis was accepted and Phase 1
  /// was skipped.
  bool warm_started = false;
};

/// Solves min c'x s.t. model rows, x >= 0, with the sparse revised simplex.
[[nodiscard]] LpSolution solve_lp(const LpModel& model,
                                  const SimplexOptions& options = {});

}  // namespace calisched
