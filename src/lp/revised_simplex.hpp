// Sparse revised simplex with presolve and partial pricing.
//
// A dense tableau (oracle::solve_lp_dense, src/oracle/) re-eliminates the
// whole rows x cols tableau on every pivot; for the TISE relaxation —
// whose constraint matrix has a handful of nonzeros per column — almost
// all of that work touches zeros. This engine keeps the constraint matrix in a CSC column
// store and represents the basis inverse as an eta file (product form of
// the inverse), so one pivot costs an FTRAN + BTRAN over stored nonzeros
// instead of a dense elimination:
//
//  * presolve     — drops empty and duplicate rows, fixes variables pinned
//                   by singleton equality rows, eliminates empty columns,
//                   and normalizes every rhs to be nonnegative before the
//                   engine sees the model;
//  * pricing      — partial pricing: sections of the column range are
//                   scanned cyclically into a small candidate list that is
//                   re-priced each iteration, instead of a full Dantzig
//                   scan; Bland's least-index rule takes over after the
//                   same stall detection the dense engine uses;
//  * basis        — eta-file FTRAN/BTRAN with periodic refactorization
//                   (Gauss-Jordan over the basis columns, sparsest column
//                   first, partial pivoting), which bounds the eta length
//                   and resets accumulated roundoff.
//
// Semantics (statuses, tolerances, Bland fallback, iteration limits) match
// the dense tableau, which tests and benches keep as the differential
// oracle. solve_lp (simplex.hpp) runs this engine.
#pragma once

#include <memory>
#include <vector>

#include "lp/simplex.hpp"

namespace calisched {

/// A starting basis carried between structurally-similar solves (in/out
/// via SimplexOptions::warm_start). The basis is expressed over the
/// *presolved* model's engine columns; `rows`/`cols` form the shape
/// signature a candidate model must match before installation is even
/// attempted. Exported bases never contain artificial columns (a redundant
/// row's harmlessly-basic artificial under one rhs could go positive under
/// another), so a solve whose optimal basis kept one leaves the previous
/// contents untouched. A rejected or mismatched warm start costs one basis
/// refactorization at most; correctness never depends on acceptance.
struct WarmStart {
  bool valid = false;
  int rows = 0;            ///< presolved row count at export time
  int cols = 0;            ///< engine columns: structural + slack + artificial
  std::vector<int> basis;  ///< basic engine column per presolved row
};

/// Opaque scratch arena for the revised engine: constraint matrix, eta
/// files, and every per-solve work vector live here, so a caller looping
/// over a family of similar LPs (the per-interval start-time LPs, repeated
/// TISE relaxations) can hand the same workspace to each solve and stop
/// paying the allocations once the buffers reach the family's working
/// size. Exclusively owned by one solve at a time — never share a
/// workspace between concurrent solves. Solves are bit-identical with or
/// without a workspace.
class SimplexWorkspace {
 public:
  SimplexWorkspace();
  ~SimplexWorkspace();
  SimplexWorkspace(const SimplexWorkspace&) = delete;
  SimplexWorkspace& operator=(const SimplexWorkspace&) = delete;

  struct Impl;
  [[nodiscard]] Impl& impl() noexcept { return *impl_; }

 private:
  std::unique_ptr<Impl> impl_;
};

/// What presolve did to a model; exposed for tests and trace reporting.
struct PresolveSummary {
  int rows_dropped = 0;      ///< empty, forcing, or duplicate rows removed
  int cols_fixed = 0;        ///< variables pinned by presolve
  int rows_normalized = 0;   ///< rows flipped to make rhs >= 0
  bool infeasible = false;   ///< presolve proved the model infeasible
  /// A cost-reducing column with no constraints was fixed at 0; the model
  /// is unbounded iff the remaining LP is feasible.
  bool unbounded_if_feasible = false;
  double objective_offset = 0.0;  ///< cost contribution of fixed variables
};

/// A presolved model plus the mapping needed to undo the reductions.
struct PresolvedLp {
  /// Reduced model, every rhs >= 0. Empty when `identity` is set.
  LpModel model;
  std::vector<int> column_map;      ///< original column -> reduced (-1 fixed)
  std::vector<double> fixed_values; ///< per original column; valid when fixed
  PresolveSummary summary;
  /// Presolve found nothing to do (no drops, fixes, or rhs flips): the
  /// original model is its own presolved form and `model` was never built.
  /// The hot path depends on this: TISE relaxations arrive pre-normalized,
  /// and rebuilding a many-hundred-row model (one entry vector and name
  /// string per row and column) cost more per solve than several pivots.
  bool identity = false;
};

/// Runs the presolve reductions (gated by options.presolve; rhs
/// normalization always happens) and returns the reduced model. When
/// summary.infeasible is set the model must not be solved.
[[nodiscard]] PresolvedLp presolve_lp(const LpModel& model,
                                      const SimplexOptions& options);

}  // namespace calisched
