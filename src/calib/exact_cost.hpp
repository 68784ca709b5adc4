// Exact minimum-cost calibration search under a calibration-type table
// (Angel, Bampis, Chau, Zissimopoulos 2015).
//
// The oracle the cost-model experiments measure against. It generalizes
// the exact-ISE branch-and-bound (oracle::solve_exact_ise_bnb,
// src/oracle/exact_ise_bnb.cpp): candidate calibrations are now
// (start, type) pairs, exclusivity is checked on machine *occupancy*
// (activation delay included), jobs fit only inside a type's availability
// window, and the objective is the sum of type costs instead of the count.
//
// Completeness mirrors baselines/exact_ise.hpp: left-shifting any feasible schedule
// to its integer fixpoint keeps every calibration's type, so searching all
// integer start times per type suffices. The search enumerates calibration
// counts k upward; within each k it branch-and-bounds on cost (a partial
// selection is cut once partial + remaining * min_cost can no longer beat
// the best complete solution), and the k loop stops when even k copies of
// the cheapest type cost at least the best found. Exponential by design; a
// node budget keeps it honest.
#pragma once

#include <cstdint>

#include "core/schedule.hpp"
#include "runtime/limits.hpp"
#include "runtime/status.hpp"

namespace calisched {

struct CalibCostOptions {
  std::int64_t node_budget = 5'000'000;
  /// Hard cap on the calibration count the search will try.
  int max_calibrations = 16;
  /// Deadline + cancellation, polled inside the search loops.
  RunLimits limits;
};

struct CalibCostResult {
  /// True when the search ran to completion (budget not exhausted).
  bool solved = false;
  /// True when a feasible schedule with <= max_calibrations exists.
  bool feasible = false;
  /// kOk (optimum found), kInfeasible (exhausted the calibration cap),
  /// kLimitExceeded (node budget), kDeadlineExceeded / kCancelled.
  SolveStatus status = SolveStatus::kOk;
  std::int64_t total_cost = 0;  ///< minimum total cost when feasible
  Schedule schedule;            ///< a cost-optimal schedule when feasible
  std::int64_t nodes = 0;
};

[[nodiscard]] CalibCostResult solve_exact_calib_cost(
    const Instance& instance, const CalibCostOptions& options = {});

}  // namespace calisched
