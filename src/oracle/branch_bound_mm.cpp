// Exact machine minimization by depth-first branch-and-bound: the
// reference oracle for ExactMM. It keeps its own machine-count ladder so
// that it shares no search logic with the state-space engine it checks.
#include <utility>

#include "mm/lower_bounds.hpp"
#include "oracle/oracle.hpp"

namespace calisched::oracle {

MMResult BranchBoundMM::minimize(const Instance& instance,
                                 const RunLimits& limits) const {
  MMResult result;
  result.algorithm = name();
  if (instance.empty()) {
    result.feasible = true;
    result.schedule.machines = 0;
    return result;
  }
  const std::int64_t budget =
      limits.node_budget > 0 ? limits.node_budget : node_budget_;
  const int n = static_cast<int>(instance.size());
  for (int m = mm_lower_bound(instance); m <= n; ++m) {
    MMFeasibility search =
        branch_bound_feasibility(instance, m, budget, limits);
    result.search_nodes += search.nodes;
    if (search.status == SolveStatus::kLimitExceeded) {
      MMResult fallback = GreedyEdfMM().minimize(instance, limits);
      fallback.algorithm = name() + "(budget-exceeded)->greedy-edf";
      fallback.search_nodes = result.search_nodes;
      return fallback;
    }
    if (search.status != SolveStatus::kOk) {
      result.status = search.status;
      return result;
    }
    if (search.feasible) {
      result.feasible = true;
      result.schedule = std::move(search.schedule);
      return result;
    }
  }
  result.status = SolveStatus::kInfeasible;
  return result;  // unreachable: m = n is always feasible
}

}  // namespace calisched::oracle
