// Exact machine minimization on the layered state-space engine
// (src/exact/state_space.cpp), plus the depth-first branch-and-bound
// feasibility probe that the calibration-cost searches use to pack one
// calibration.
//
// Completeness argument: any feasible schedule can be left-shifted so that
// every job starts either at its release time or at the completion of the
// previous job on its machine. Such a schedule is determined by an ordered
// partition of jobs onto machines, with start times computed greedily, so
// searching over "which unscheduled job goes next on which machine-frontier"
// covers all left-shifted schedules. Identical machines make frontiers with
// equal free times interchangeable, so we branch on *distinct* free times.
#include <algorithm>
#include <limits>
#include <vector>

#include "exact/state_space.hpp"
#include "mm/lower_bounds.hpp"
#include "mm/mm.hpp"

namespace calisched {
namespace {

class FeasibilitySearch {
 public:
  FeasibilitySearch(const Instance& instance, int machines,
                    std::int64_t node_budget,
                    const RunLimits& limits)
      : instance_(instance),
        machines_(machines),
        node_budget_(node_budget),
        poller_(limits, /*stride=*/1024) {
    free_at_.assign(static_cast<std::size_t>(machines_),
                    std::numeric_limits<Time>::min());
    done_.assign(instance_.size(), false);
    // Deadline order makes the DFS try urgent jobs first.
    order_.resize(instance_.size());
    for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
    std::sort(order_.begin(), order_.end(), [&](std::size_t a, std::size_t b) {
      return instance_.jobs[a].deadline < instance_.jobs[b].deadline;
    });
  }

  [[nodiscard]] bool run() { return dfs(instance_.size()); }
  [[nodiscard]] std::int64_t nodes() const noexcept { return nodes_; }
  /// How the search ended: kOk means run()'s verdict is definitive;
  /// kLimitExceeded means the node budget ran out; otherwise the RunLimits
  /// stop reason. Budget exhaustion is never folded into "infeasible".
  [[nodiscard]] SolveStatus status() const noexcept {
    if (poller_.status() != SolveStatus::kOk) return poller_.status();
    return budget_hit_ ? SolveStatus::kLimitExceeded : SolveStatus::kOk;
  }
  [[nodiscard]] MMSchedule schedule() const {
    MMSchedule result;
    result.machines = machines_;
    result.jobs = placed_;
    return result;
  }

 private:
  bool dfs(std::size_t remaining) {
    if (remaining == 0) return true;
    if (++nodes_ > node_budget_ || poller_.poll() != SolveStatus::kOk) {
      budget_hit_ = true;  // either way: abandon the whole search
      return false;
    }
    // Candidate start frontiers: one machine per distinct free time.
    std::vector<int> frontiers;
    frontiers.reserve(static_cast<std::size_t>(machines_));
    {
      std::vector<Time> seen;
      for (int machine = 0; machine < machines_; ++machine) {
        const Time f = free_at_[static_cast<std::size_t>(machine)];
        if (std::find(seen.begin(), seen.end(), f) == seen.end()) {
          seen.push_back(f);
          frontiers.push_back(machine);
        }
      }
    }
    for (const std::size_t job_index : order_) {
      if (done_[job_index]) continue;
      const Job& job = instance_.jobs[job_index];
      // Deduplicate resulting start times across frontiers: frontiers with
      // free <= r_j all give start = r_j; keep only the one with the largest
      // free time (leaves the most room elsewhere).
      int best_at_release = -1;
      Time best_free = std::numeric_limits<Time>::min();
      std::vector<std::pair<Time, int>> starts;  // (start, machine)
      for (const int machine : frontiers) {
        const Time f = free_at_[static_cast<std::size_t>(machine)];
        if (f <= job.release) {
          if (best_at_release < 0 || f > best_free) {
            best_at_release = machine;
            best_free = f;
          }
        } else if (f + job.proc <= job.deadline) {
          starts.emplace_back(f, machine);
        }
      }
      if (best_at_release >= 0) {
        starts.emplace_back(job.release, best_at_release);
      }
      std::sort(starts.begin(), starts.end());
      for (const auto& [start, machine] : starts) {
        if (start + job.proc > job.deadline) continue;
        const Time saved = free_at_[static_cast<std::size_t>(machine)];
        free_at_[static_cast<std::size_t>(machine)] = start + job.proc;
        done_[job_index] = true;
        placed_.push_back({job.id, machine, start});
        if (dfs(remaining - 1)) return true;
        placed_.pop_back();
        done_[job_index] = false;
        free_at_[static_cast<std::size_t>(machine)] = saved;
        if (budget_hit_) return false;
      }
    }
    return false;
  }

  const Instance& instance_;
  int machines_;
  std::int64_t node_budget_;
  LimitPoller poller_;
  std::vector<Time> free_at_;
  std::vector<bool> done_;
  std::vector<std::size_t> order_;
  std::vector<ScheduledJob> placed_;
  std::int64_t nodes_ = 0;
  bool budget_hit_ = false;
};

}  // namespace

MMFeasibility exact_mm_feasibility(const Instance& instance, int machines,
                                   std::int64_t node_budget,
                                   const RunLimits& limits,
                                   TraceContext* trace) {
  MMFeasibility result;
  if (instance.empty()) {
    result.feasible = true;
    result.schedule.machines = machines;
    return result;
  }
  StateSpaceMmResult found =
      state_space_mm_feasible(instance, machines, node_budget, limits, trace);
  result.status = found.status;
  result.feasible = found.feasible;
  result.schedule = std::move(found.schedule);
  result.nodes = found.states;
  return result;
}

MMFeasibility branch_bound_feasibility(const Instance& instance, int machines,
                                       std::int64_t node_budget,
                                       const RunLimits& limits) {
  MMFeasibility result;
  FeasibilitySearch search(instance, machines, node_budget, limits);
  const bool feasible = search.run();
  result.status = search.status();
  result.nodes = search.nodes();
  if (result.status == SolveStatus::kOk && feasible) {
    result.feasible = true;
    result.schedule = search.schedule();
  }
  return result;
}

MMResult ExactMM::minimize(const Instance& instance,
                           const RunLimits& limits) const {
  return minimize_traced(instance, limits, nullptr);
}

MMResult ExactMM::minimize_traced(const Instance& instance,
                                  const RunLimits& limits,
                                  TraceContext* trace) const {
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
        exact_mm_feasibility(instance, m, budget, limits, trace);
    result.search_nodes += search.nodes;
    if (search.status == SolveStatus::kLimitExceeded) {
      // Node/state budget: give up on exactness; report the greedy
      // schedule instead (the algorithm string records the downgrade).
      MMResult fallback = GreedyEdfMM().minimize(instance, limits);
      fallback.algorithm = name() + "(budget-exceeded)->greedy-edf";
      fallback.search_nodes = result.search_nodes;
      return fallback;
    }
    if (search.status != SolveStatus::kOk) {
      // Deadline / cancellation: stop immediately, no fallback work.
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

}  // namespace calisched
