// Exact minimum-calibration search by branch-and-bound: the reference
// oracle for the state-space search behind solve_exact_ise.
//
// Completeness rests on the integer-start argument in
// baselines/exact_ise.hpp. For each candidate calibration count K (from
// the combinatorial lower bound upward) the search enumerates
// nondecreasing K-tuples of start times whose maximum overlap fits the
// machine count, colors them greedily onto machines, and packs jobs by
// depth-first search with an exact single-machine feasibility check per
// calibration.
#include <algorithm>
#include <cassert>
#include <limits>
#include <vector>

#include "baselines/calibration_bounds.hpp"
#include "oracle/oracle.hpp"

namespace calisched::oracle {
namespace {

/// One tentative calibration during the search.
struct SearchCalibration {
  Time start = 0;
  Time load = 0;                        ///< total processing assigned
  std::vector<const Job*> assigned;
};

class ExactSearch {
 public:
  ExactSearch(const Instance& instance, const ExactIseOptions& options)
      : instance_(instance),
        options_(options),
        poller_(options.limits, /*stride=*/1024) {
    // Candidate integer start times: a calibration is useful only if at
    // least one job can run inside it.
    const Time lo = instance.min_release() - instance.T + 1;
    const Time hi = instance.max_deadline();  // exclusive
    for (Time t = lo; t < hi; ++t) {
      if (std::any_of(instance.jobs.begin(), instance.jobs.end(),
                      [&](const Job& job) { return job_fits(job, t); })) {
        grid_.push_back(t);
      }
    }
    jobs_by_deadline_.reserve(instance.size());
    for (const Job& job : instance.jobs) jobs_by_deadline_.push_back(&job);
    std::sort(jobs_by_deadline_.begin(), jobs_by_deadline_.end(),
              [](const Job* a, const Job* b) {
                return a->deadline != b->deadline ? a->deadline < b->deadline
                                                  : a->id < b->id;
              });
  }

  ExactIseResult run() {
    ExactIseResult result;
    if (instance_.empty()) {
      result.solved = true;
      result.feasible = true;
      result.schedule = Schedule::empty_like(instance_, instance_.machines);
      return result;
    }
    const auto lower =
        static_cast<int>(calibration_lower_bound(instance_));
    for (int k = std::max(1, lower); k <= options_.max_calibrations; ++k) {
      calibrations_.clear();
      if (choose_times(k, 0)) {
        result.solved = true;
        result.feasible = true;
        result.optimal_calibrations = static_cast<std::size_t>(k);
        result.schedule = build_schedule();
        result.nodes = nodes_;
        return result;
      }
      if (budget_hit_) {
        result.nodes = nodes_;
        if (poller_.status() != SolveStatus::kOk) {
          result.status = poller_.status();
        } else if (sub_status_ != SolveStatus::kOk) {
          result.status = sub_status_;  // a packing sub-search was stopped
        } else {
          result.status = SolveStatus::kLimitExceeded;
        }
        return result;  // solved = false
      }
    }
    result.solved = true;
    result.status = SolveStatus::kInfeasible;
    result.nodes = nodes_;
    return result;  // feasible = false within the calibration cap
  }

 private:
  [[nodiscard]] bool job_fits(const Job& job, Time cal_start) const {
    if (options_.require_tise) {
      return job.release <= cal_start &&
             cal_start + instance_.T <= job.deadline;
    }
    const Time earliest = std::max(cal_start, job.release);
    const Time latest = std::min(cal_start + instance_.T, job.deadline);
    return earliest + job.proc <= latest;
  }

  /// Picks `remaining` more calibration start times, nondecreasing, from
  /// grid_[from..], keeping the sliding overlap within the machine count.
  bool choose_times(int remaining, std::size_t from) {
    if (++nodes_ > options_.node_budget ||
        poller_.poll() != SolveStatus::kOk) {
      budget_hit_ = true;  // either way: abandon the whole search
      return false;
    }
    if (remaining == 0) return pack_jobs(0);
    for (std::size_t g = from; g < grid_.size(); ++g) {
      const Time t = grid_[g];
      // Overlap check: calibrations already chosen with start > t - T all
      // intersect [t, t+T)'s left edge region together with the new one.
      int overlap = 1;
      for (const SearchCalibration& cal : calibrations_) {
        if (cal.start > t - instance_.T) ++overlap;
      }
      if (overlap > instance_.machines) continue;
      calibrations_.push_back({t, 0, {}});
      if (choose_times(remaining - 1, g)) return true;
      calibrations_.pop_back();
      if (budget_hit_) return false;
    }
    return false;
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
    Time last_tried_start = std::numeric_limits<Time>::min();
    for (SearchCalibration& cal : calibrations_) {
      // Symmetry break: identical empty twins behave identically.
      if (cal.start == last_tried_start && cal.assigned.empty()) continue;
      if (!job_fits(job, cal.start)) continue;
      if (cal.load + job.proc > instance_.T) continue;
      cal.assigned.push_back(&job);
      cal.load += job.proc;
      if (calibration_packable(cal) && pack_jobs(index + 1)) return true;
      cal.assigned.pop_back();
      cal.load -= job.proc;
      if (budget_hit_) return false;
      if (cal.assigned.empty()) last_tried_start = cal.start;
    }
    return false;
  }

  /// Exact single-machine feasibility of one calibration's job set with
  /// windows clipped to the calibration interval. A *stopped* sub-search
  /// (its node budget or the shared RunLimits) must abandon the whole
  /// search with the stop reason — treating it as "not packable" would
  /// report a budget artifact as an infeasibility verdict.
  [[nodiscard]] bool calibration_packable(const SearchCalibration& cal) {
    Instance clipped;
    clipped.machines = 1;
    clipped.T = instance_.T;
    for (const Job* job : cal.assigned) {
      Job clip = *job;
      clip.release = std::max(job->release, cal.start);
      clip.deadline = std::min(job->deadline, cal.start + instance_.T);
      clipped.jobs.push_back(clip);
    }
    const MMFeasibility packed = branch_bound_feasibility(
        clipped, 1, /*node_budget=*/100'000, options_.limits);
    if (packed.status != SolveStatus::kOk) {
      budget_hit_ = true;
      sub_status_ = packed.status;
      return false;
    }
    return packed.feasible;
  }

  /// Rebuilds the full schedule from the final packing: greedy interval
  /// coloring for machines, then the per-calibration 1-machine schedule.
  [[nodiscard]] Schedule build_schedule() const {
    Schedule schedule = Schedule::empty_like(instance_, instance_.machines);
    std::vector<const SearchCalibration*> order;
    for (const SearchCalibration& cal : calibrations_) order.push_back(&cal);
    std::sort(order.begin(), order.end(),
              [](const SearchCalibration* a, const SearchCalibration* b) {
                return a->start < b->start;
              });
    std::vector<Time> machine_free(static_cast<std::size_t>(instance_.machines),
                                   std::numeric_limits<Time>::min());
    for (const SearchCalibration* cal : order) {
      int machine = -1;
      for (std::size_t i = 0; i < machine_free.size(); ++i) {
        if (machine_free[i] <= cal->start) {
          machine = static_cast<int>(i);
          break;
        }
      }
      assert(machine >= 0 && "coloring fits: overlap checked in choose_times");
      machine_free[static_cast<std::size_t>(machine)] = cal->start + instance_.T;
      schedule.calibrations.push_back({machine, cal->start});

      Instance clipped;
      clipped.machines = 1;
      clipped.T = instance_.T;
      for (const Job* job : cal->assigned) {
        Job clip = *job;
        clip.release = std::max(job->release, cal->start);
        clip.deadline = std::min(job->deadline, cal->start + instance_.T);
        clipped.jobs.push_back(clip);
      }
      const MMFeasibility packed =
          branch_bound_feasibility(clipped, 1, /*node_budget=*/100'000);
      assert(packed.feasible && "re-pack of a packable calibration");
      for (const ScheduledJob& sj : packed.schedule.jobs) {
        schedule.jobs.push_back({sj.job, machine, sj.start});
      }
    }
    schedule.normalize();
    return schedule;
  }

  const Instance& instance_;
  ExactIseOptions options_;
  LimitPoller poller_;
  std::vector<Time> grid_;
  std::vector<const Job*> jobs_by_deadline_;
  std::vector<SearchCalibration> calibrations_;
  std::int64_t nodes_ = 0;
  bool budget_hit_ = false;
  SolveStatus sub_status_ = SolveStatus::kOk;
};

}  // namespace

ExactIseResult solve_exact_ise_bnb(const Instance& instance,
                                   const ExactIseOptions& options) {
  ExactIseOptions effective = options;
  if (options.limits.node_budget > 0) {
    effective.node_budget = options.limits.node_budget;
  }
  ExactSearch search(instance, effective);
  return search.run();
}

}  // namespace calisched::oracle
