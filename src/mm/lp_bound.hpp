// LP lower bound for machine minimization.
//
// Time-indexed preemptive relaxation: x_{j,t} is the amount of job j
// processed in unit slot [t, t+1) (only slots inside j's window exist),
// M is the machine count.
//   minimize M
//   s.t.  sum_t x_{j,t} = p_j            for each job j
//         x_{j,t} <= 1                   (a job runs on one machine)
//         sum_j x_{j,t} <= M             for each slot t
// Any feasible nonpreemptive schedule induces a feasible point (integral
// instances admit integer-start schedules), so ceil(LP) lower-bounds the
// true MM optimum. Strictly stronger than the combinatorial interval-load
// bound on instances where fractional packing is the binding constraint.
#pragma once

#include <optional>

#include "core/instance.hpp"
#include "lp/simplex.hpp"

namespace calisched {

/// Returns the LP value (machines, fractional), or nullopt if the LP
/// could not be solved (never happens for well-formed instances at sane
/// horizons; guarded anyway). The integer lower bound is ceil(value).
/// `options` carries the simplex tolerances and limits.
[[nodiscard]] std::optional<double> mm_lp_bound(
    const Instance& instance, const SimplexOptions& options = {});

/// max(mm_lower_bound, ceil(mm_lp_bound)); falls back to the combinatorial
/// bound when the LP is skipped (horizon too large: > max_slots slots).
[[nodiscard]] int mm_certified_bound(const Instance& instance,
                                     Time max_slots = 2000,
                                     const SimplexOptions& options = {});

}  // namespace calisched
