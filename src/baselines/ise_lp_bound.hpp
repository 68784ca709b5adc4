// Certified LP lower bound on the number of calibrations for ISE.
//
// The TISE LP of Section 3 with two changes makes it a valid relaxation of
// the *untrimmed* ISE problem on the instance's own m machines:
//   * assignment variables X_{j,t} exist whenever job j merely *fits* in a
//     calibration at t (max(t, r_j) + p_j <= min(t+T, d_j)), instead of
//     requiring the calibration to nest in the window;
//   * the sliding-window capacity uses m, not m' = 3m.
// Grid choice matters for certification: Lemma 3's grid {r_j + kT} is
// proven only for the *trimmed* problem (a calibration pinned by a
// mid-calibration release can be forced off that grid in plain ISE), so
// this LP runs over the full integer grid [min_r - T + 1, max_d), the
// same completeness argument as baselines/exact_ise.hpp. Any feasible ISE
// schedule then maps onto a feasible LP point, so the optimum
// lower-bounds the true minimum calibration count. Stronger than the
// combinatorial bounds on instances where window interaction, not raw
// work, is binding.
#pragma once

#include <optional>

#include "core/instance.hpp"
#include "lp/simplex.hpp"

namespace calisched {

/// LP value (fractional calibrations) or nullopt when the solver fails
/// (does not happen at library scales). Integer bound: ceil(value).
/// `options` carries the simplex pivot cap and limits.
[[nodiscard]] std::optional<double> ise_lp_bound(
    const Instance& instance, const SimplexOptions& options = {});

/// max(combinatorial calibration_lower_bound, ceil(ise_lp_bound)); skips
/// the LP when the integer grid exceeds `max_points` points.
[[nodiscard]] std::int64_t ise_certified_bound(
    const Instance& instance, std::size_t max_points = 400,
    const SimplexOptions& options = {});

}  // namespace calisched
