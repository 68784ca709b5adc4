// Machine-independent lower bounds on the number of calibrations.
//
// Used to measure realized approximation ratios in the experiments (the
// denominators of the "ours / lower-bound" columns).
#pragma once

#include "core/instance.hpp"

namespace calisched {

/// Work bound: every calibration hosts at most T units of work, so
/// C >= ceil(total work / T).
[[nodiscard]] std::int64_t calibration_work_bound(const Instance& instance);

/// Windowed-work bound with separation. For a window [a, b) (a a release,
/// b a deadline), jobs nested in it force ceil(nested work / T)
/// calibrations that intersect [a, b). Windows separated by at least T
/// cannot share a calibration, so any family of such windows with pairwise
/// gaps >= T gives an *additive* bound. This computes the best family by
/// weighted-interval-scheduling DP over the O(n^2) canonical windows.
/// Always >= calibration_work_bound (the full span is one candidate).
///
/// Cost, with R distinct releases, D distinct deadlines and W <= R*D
/// windows of nonzero work: O(n log n + R*D) time for the window weights
/// (one sweep over the releases, a running sum over the deadlines), then
/// O(W log W) for the sort and the DP, and O(W) memory for the window list
/// at 24 B per window.
[[nodiscard]] std::int64_t calibration_windowed_bound(const Instance& instance);

/// max(1, windowed bound) for non-empty instances; 0 when empty.
[[nodiscard]] std::int64_t calibration_lower_bound(const Instance& instance);

}  // namespace calisched
