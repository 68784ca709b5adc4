// The TISE linear-programming relaxation (Section 3 of the paper).
//
// Variables:
//   C_t   — (fractional) number of calibrations started at canonical point t
//   X_jt  — fraction of job j assigned to the calibrations at t, present
//           only for TISE-feasible pairs (r_j <= t <= d_j - T), which makes
//           constraint (5) structural.
// Constraints (numbering follows the paper):
//   (1) for each point t: sum of C_{t'} over t' in [t, t+T) <= m'
//       (the window anchored at each canonical point dominates every real
//        window, because the first point inside any window is an anchor)
//   (2) X_jt <= C_t for every feasible pair
//   (3) for each t: sum_j p_j X_jt <= T C_t
//   (4) for each j: sum_t X_jt = 1
// Objective: minimize sum_t C_t.
#pragma once

#include <utility>
#include <vector>

#include "core/calibration_points.hpp"
#include "lp/simplex.hpp"

namespace calisched {

/// The built model plus the variable layout needed to read a solution back.
struct TiseLpModel {
  LpModel model;
  std::vector<Time> points;              ///< canonical TISE-feasible points
  std::vector<int> calibration_column;   ///< per point: column of C_t
  /// per job (instance order): list of (point index, column of X_jt)
  std::vector<std::vector<std::pair<int, int>>> assignment_columns;
};

/// Builds the LP for `instance` (all jobs must be long) with m' machines.
[[nodiscard]] TiseLpModel build_tise_lp(const Instance& instance, int m_prime);

/// A solved relaxation in scheduling terms.
struct TiseFractional {
  LpStatus status = LpStatus::kInfeasible;
  double objective = 0.0;                ///< sum of C_t = fractional calibrations
  std::vector<Time> points;
  std::vector<double> calibration_mass;  ///< C_t per point
  /// per job (instance order): (point index, fraction) with fraction > 0
  std::vector<std::vector<std::pair<int, double>>> assignment;
  /// Summed over the time-disjoint blocks the LP was solved in.
  std::int64_t pivots = 0;
  int lp_rows = 0;
  int lp_columns = 0;
  int components = 0;              ///< time-disjoint blocks (0 when empty)
  int largest_component_jobs = 0;  ///< jobs in the largest block
};

/// Builds and solves the relaxation. status != kOptimal means there is no
/// feasible fractional TISE schedule on m' machines (kInfeasible), a
/// RunLimits stop (kDeadlineExceeded / kCancelled), or the pivot cap
/// (kIterationLimit).
///
/// The LP is block-diagonal over time-disjoint components of the jobs
/// (sorted by release, a component ends where a release is >= the running
/// maximum deadline, so windows that only touch, d_A == r_B, split): every
/// TISE point of job j lies in [r_j, d_j - T], so a constraint-(1) window
/// anchored in one component ends before the next one starts. With more
/// than one component each block is built on its own canonical points and
/// solved separately; the blocks are stitched back in time order (`points`
/// stays strictly ascending, `assignment` keeps instance order, and
/// objective/pivots/rows/columns are sums). Lemma 3 holds per component and
/// OPT is additive over time-disjoint components, so the stitched objective
/// still lower-bounds C*_TISE. Whole-solve budgets: `max_pivots` is shared
/// by the blocks (each gets what the earlier ones left) and `limits` holds
/// for the whole solve. Each block's simplex trace lands in a scratch
/// context absorbed into `options.trace` in block order, so simplex
/// counters are sums over blocks (including the `*.peak` ones). On a
/// non-optimal block the solve stops and returns that status with no
/// solution. A single component takes exactly the unsplit path.
[[nodiscard]] TiseFractional solve_tise_lp(const Instance& instance, int m_prime,
                                           const SimplexOptions& options = {});

}  // namespace calisched
