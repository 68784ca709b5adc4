#include "longwin/edf_assign.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <queue>
#include <tuple>

namespace calisched {

EdfAssignResult edf_assign_jobs(const Instance& instance, const Schedule& calendar,
                                bool mirror) {
  assert(calendar.time_denominator == 1 && calendar.speed == 1);
  EdfAssignResult result;
  Schedule& schedule = result.schedule;
  schedule = Schedule::empty_like(instance,
                                  mirror ? calendar.machines * 2 : calendar.machines);

  // Mirror the calendar (Lemma 9): calibration (i, t) also exists at
  // (i + M, t).
  schedule.calibrations.reserve(calendar.calibrations.size() * (mirror ? 2 : 1));
  for (const Calibration& cal : calendar.calibrations) {
    schedule.calibrations.push_back(cal);
    if (mirror) {
      schedule.calibrations.push_back(
          {cal.machine + calendar.machines, cal.start});
    }
  }

  // Scan order: nondecreasing start time, then original machine, with each
  // original calibration directly before its mirror. Lemma 9 puts a split
  // job on the mirror of its first piece's calibration, so Lemma 10's
  // prefix dominance needs that mirror scanned right after its original,
  // not after every original that starts at the same time.
  const int originals = calendar.machines;
  const auto scan_key = [originals](const Calibration& cal) {
    const bool mirrored = cal.machine >= originals;
    const int original = mirrored ? cal.machine - originals : cal.machine;
    return std::tuple(cal.start, original, mirrored);
  };
  std::vector<Calibration> scan = schedule.calibrations;
  std::sort(scan.begin(), scan.end(),
            [&](const Calibration& a, const Calibration& b) {
              return scan_key(a) < scan_key(b);
            });

  // The scan's t never decreases, so a job joins the ready heap once, when
  // t reaches its release, and a job past its TISE start limit (t > d - T)
  // stays past it: drop it lazily when it reaches the top. The top is then
  // the earliest-deadline unscheduled job obeying the TISE constraint, ties
  // broken by job id (the paper: "ties broken arbitrarily"), then by index.
  const auto& jobs = instance.jobs;
  std::vector<std::size_t> by_release(jobs.size());
  std::iota(by_release.begin(), by_release.end(), std::size_t{0});
  std::sort(by_release.begin(), by_release.end(),
            [&](std::size_t x, std::size_t y) {
              return jobs[x].release < jobs[y].release;
            });
  const auto later = [&](std::size_t x, std::size_t y) {
    return std::tuple(jobs[x].deadline, jobs[x].id, x) >
           std::tuple(jobs[y].deadline, jobs[y].id, y);
  };
  std::priority_queue<std::size_t, std::vector<std::size_t>, decltype(later)>
      ready(later);
  std::size_t released = 0;

  std::vector<bool> done(jobs.size(), false);
  std::size_t remaining = jobs.size();
  for (const Calibration& cal : scan) {
    if (remaining == 0) break;
    const Time t = cal.start;
    for (; released < by_release.size() &&
           jobs[by_release[released]].release <= t;
         ++released) {
      ready.push(by_release[released]);
    }
    Time used = 0;
    while (!ready.empty()) {
      const std::size_t chosen = ready.top();
      const Job& job = jobs[chosen];
      if (t > job.deadline - instance.T) {  // expired for good
        ready.pop();
        continue;
      }
      if (job.proc + used > instance.T) break;  // calibration is full
      schedule.jobs.push_back({job.id, cal.machine, t + used});
      used += job.proc;
      done[chosen] = true;
      --remaining;
      ready.pop();
    }
  }

  for (std::size_t j = 0; j < instance.size(); ++j) {
    if (!done[j]) result.unassigned.push_back(instance.jobs[j].id);
  }
  return result;
}

}  // namespace calisched
