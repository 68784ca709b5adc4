#include "calib/exact_cost.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <vector>

#include "mm/mm.hpp"

namespace calisched {
namespace {

/// One candidate calibration: an integer start paired with a type index.
struct Candidate {
  Time start = 0;
  int type = 0;
};

/// One tentative calibration during the search.
struct SearchCalibration {
  Candidate where;
  Time load = 0;  ///< total processing assigned
  std::vector<const Job*> assigned;
};

class CostSearch {
 public:
  CostSearch(const Instance& instance, const CalibCostOptions& options)
      : instance_(instance),
        options_(options),
        model_(instance.effective_model()),
        poller_(options.limits, /*stride=*/1024) {
    // Candidate (start, type) pairs: a calibration is useful only if at
    // least one job can run inside its availability window. Starts are
    // integers by the usual left-shift-to-fixpoint argument (shifting
    // preserves each calibration's type).
    const Time hi = instance.max_deadline();  // exclusive
    for (int k = 0; k < static_cast<int>(model_.size()); ++k) {
      const Time lo = instance.min_release() - model_.types[idx(k)].span() + 1;
      for (Time t = lo; t < hi; ++t) {
        const Candidate candidate{t, k};
        if (std::any_of(
                instance.jobs.begin(), instance.jobs.end(),
                [&](const Job& job) { return job_fits(job, candidate); })) {
          grid_.push_back(candidate);
        }
      }
    }
    std::sort(grid_.begin(), grid_.end(),
              [](const Candidate& a, const Candidate& b) {
                return a.start != b.start ? a.start < b.start : a.type < b.type;
              });
    jobs_by_deadline_.reserve(instance.size());
    for (const Job& job : instance.jobs) jobs_by_deadline_.push_back(&job);
    std::sort(jobs_by_deadline_.begin(), jobs_by_deadline_.end(),
              [](const Job* a, const Job* b) {
                return a->deadline != b->deadline ? a->deadline < b->deadline
                                                  : a->id < b->id;
              });
  }

  CalibCostResult run() {
    CalibCostResult result;
    if (instance_.empty()) {
      result.solved = true;
      result.feasible = true;
      result.schedule = Schedule::empty_like(instance_, instance_.machines);
      return result;
    }
    const std::int64_t min_cost = model_.min_cost();
    for (int k = 1; k <= options_.max_calibrations; ++k) {
      // Even k copies of the cheapest type cannot beat the best found.
      if (static_cast<std::int64_t>(k) * min_cost >= best_cost_) break;
      calibrations_.clear();
      choose_times(k, 0, 0);
      if (budget_hit_) break;
    }
    result.nodes = nodes_;
    if (budget_hit_) {
      if (poller_.status() != SolveStatus::kOk) {
        result.status = poller_.status();
      } else if (sub_status_ != SolveStatus::kOk) {
        result.status = sub_status_;  // a packing sub-search was stopped
      } else {
        result.status = SolveStatus::kLimitExceeded;
      }
      // A best-so-far is still reported (feasible but unproven optimal).
      if (best_cost_ < std::numeric_limits<std::int64_t>::max()) {
        result.feasible = true;
        result.total_cost = best_cost_;
        result.schedule = best_schedule_;
      }
      return result;  // solved = false
    }
    result.solved = true;
    if (best_cost_ < std::numeric_limits<std::int64_t>::max()) {
      result.feasible = true;
      result.total_cost = best_cost_;
      result.schedule = best_schedule_;
    } else {
      result.status = SolveStatus::kInfeasible;
    }
    return result;
  }

 private:
  static std::size_t idx(int k) { return static_cast<std::size_t>(k); }

  [[nodiscard]] const CalibrationType& type_of(const Candidate& c) const {
    return model_.types[idx(c.type)];
  }

  /// ISE fit: the job runs somewhere inside the availability window and its
  /// own [release, deadline) window.
  [[nodiscard]] bool job_fits(const Job& job, const Candidate& c) const {
    const CalibrationType& type = type_of(c);
    const Time avail_start = c.start + type.activation_delay;
    const Time avail_end = c.start + type.span();
    const Time earliest = std::max(avail_start, job.release);
    const Time latest = std::min(avail_end, job.deadline);
    return earliest + job.proc <= latest;
  }

  /// Picks `remaining` more candidates, nondecreasing in grid order,
  /// keeping the occupancy overlap within the machine count and the cost
  /// bound below the best complete solution found so far.
  void choose_times(int remaining, std::size_t from, std::int64_t cost) {
    if (++nodes_ > options_.node_budget ||
        poller_.poll() != SolveStatus::kOk) {
      budget_hit_ = true;  // either way: abandon the whole search
      return;
    }
    if (cost + static_cast<std::int64_t>(remaining) * model_.min_cost() >=
        best_cost_) {
      return;  // cannot beat the incumbent
    }
    if (remaining == 0) {
      if (pack_jobs(0)) {
        best_cost_ = cost;
        best_schedule_ = build_schedule();
      }
      // A successful pack leaves its assignments in place — reset before
      // the enclosing loop reuses these calibration slots.
      for (SearchCalibration& c : calibrations_) {
        c.assigned.clear();
        c.load = 0;
      }
      // Keep searching: a different same-size selection may be cheaper.
      return;
    }
    for (std::size_t g = from; g < grid_.size(); ++g) {
      const Candidate& candidate = grid_[g];
      // Occupancy overlap at the new interval's left endpoint (interval
      // max-overlap is attained at a left endpoint, so checking each
      // insertion point bounds the whole selection).
      int overlap = 1;
      for (const SearchCalibration& c : calibrations_) {
        if (c.where.start + type_of(c.where).span() > candidate.start) {
          ++overlap;
        }
      }
      if (overlap > instance_.machines) continue;
      calibrations_.push_back({candidate, 0, {}});
      choose_times(remaining - 1, g, cost + type_of(candidate).cost);
      calibrations_.pop_back();
      if (budget_hit_) return;
    }
  }

  /// Assigns jobs_by_deadline_[index..] to the chosen calibrations.
  bool pack_jobs(std::size_t index) {
    if (++nodes_ > options_.node_budget ||
        poller_.poll() != SolveStatus::kOk) {
      budget_hit_ = true;  // either way: abandon the whole search
      return false;
    }
    if (index == jobs_by_deadline_.size()) return true;
    const Job& job = *jobs_by_deadline_[index];
    const Candidate* last_tried = nullptr;
    for (SearchCalibration& c : calibrations_) {
      // Symmetry break: identical empty twins behave identically.
      if (last_tried != nullptr && c.assigned.empty() &&
          c.where.start == last_tried->start &&
          c.where.type == last_tried->type) {
        continue;
      }
      if (!job_fits(job, c.where)) continue;
      if (c.load + job.proc > type_of(c.where).length) continue;
      c.assigned.push_back(&job);
      c.load += job.proc;
      if (calibration_packable(c) && pack_jobs(index + 1)) return true;
      c.assigned.pop_back();
      c.load -= job.proc;
      if (budget_hit_) return false;
      if (c.assigned.empty()) last_tried = &c.where;
    }
    return false;
  }

  /// Exact single-machine feasibility of one calibration's job set with
  /// windows clipped to the availability window.
  [[nodiscard]] Instance clip_to(const SearchCalibration& c) const {
    const CalibrationType& type = type_of(c.where);
    const Time avail_start = c.where.start + type.activation_delay;
    const Time avail_end = c.where.start + type.span();
    Instance clipped;
    clipped.machines = 1;
    clipped.T = std::max<Time>(2, type.length);
    for (const Job* job : c.assigned) {
      Job clip = *job;
      clip.release = std::max(job->release, avail_start);
      clip.deadline = std::min(job->deadline, avail_end);
      clipped.jobs.push_back(clip);
    }
    return clipped;
  }

  /// A *stopped* packing sub-search must abandon the whole search with the
  /// stop reason — "not packable" would turn a budget artifact into a
  /// pruned (possibly optimal) branch.
  [[nodiscard]] bool calibration_packable(const SearchCalibration& c) {
    const MMFeasibility packed = branch_bound_feasibility(
        clip_to(c), 1, /*node_budget=*/100'000, options_.limits);
    if (packed.status != SolveStatus::kOk) {
      budget_hit_ = true;
      sub_status_ = packed.status;
      return false;
    }
    return packed.feasible;
  }

  /// Rebuilds the full schedule from the final packing: greedy interval
  /// coloring on occupancy spans, then the per-calibration 1-machine
  /// schedule.
  [[nodiscard]] Schedule build_schedule() const {
    Schedule schedule = Schedule::empty_like(instance_, instance_.machines);
    std::vector<const SearchCalibration*> order;
    for (const SearchCalibration& c : calibrations_) order.push_back(&c);
    std::sort(order.begin(), order.end(),
              [](const SearchCalibration* a, const SearchCalibration* b) {
                return a->where.start < b->where.start;
              });
    std::vector<Time> machine_free(static_cast<std::size_t>(instance_.machines),
                                   std::numeric_limits<Time>::min());
    for (const SearchCalibration* c : order) {
      int machine = -1;
      for (std::size_t i = 0; i < machine_free.size(); ++i) {
        if (machine_free[i] <= c->where.start) {
          machine = static_cast<int>(i);
          break;
        }
      }
      assert(machine >= 0 && "coloring fits: overlap checked in choose_times");
      machine_free[static_cast<std::size_t>(machine)] =
          c->where.start + type_of(c->where).span();
      schedule.calibrations.push_back({machine, c->where.start, c->where.type});

      const MMFeasibility packed =
          branch_bound_feasibility(clip_to(*c), 1, /*node_budget=*/100'000);
      assert(packed.feasible && "re-pack of a packable calibration");
      for (const ScheduledJob& sj : packed.schedule.jobs) {
        schedule.jobs.push_back({sj.job, machine, sj.start});
      }
    }
    schedule.normalize();
    return schedule;
  }

  const Instance& instance_;
  CalibCostOptions options_;
  CalibrationModel model_;
  LimitPoller poller_;
  std::vector<Candidate> grid_;
  std::vector<const Job*> jobs_by_deadline_;
  std::vector<SearchCalibration> calibrations_;
  Schedule best_schedule_;
  std::int64_t best_cost_ = std::numeric_limits<std::int64_t>::max();
  std::int64_t nodes_ = 0;
  bool budget_hit_ = false;
  SolveStatus sub_status_ = SolveStatus::kOk;
};

}  // namespace

CalibCostResult solve_exact_calib_cost(const Instance& instance,
                                       const CalibCostOptions& options) {
  CostSearch search(instance, options);
  return search.run();
}

}  // namespace calisched
