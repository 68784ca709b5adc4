#include "longwin/edf_assign.hpp"

#include <algorithm>
#include <cassert>
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

  std::vector<bool> done(instance.size(), false);
  std::size_t remaining = instance.size();
  for (const Calibration& cal : scan) {
    if (remaining == 0) break;
    const Time t = cal.start;
    Time used = 0;
    while (true) {
      // Earliest-deadline unscheduled job obeying the TISE constraint,
      // ties broken by job id (the paper: "ties broken arbitrarily").
      std::size_t chosen = instance.size();
      for (std::size_t j = 0; j < instance.size(); ++j) {
        if (done[j]) continue;
        const Job& job = instance.jobs[j];
        if (job.release > t || t > job.deadline - instance.T) continue;
        if (chosen == instance.size() ||
            job.deadline < instance.jobs[chosen].deadline ||
            (job.deadline == instance.jobs[chosen].deadline &&
             job.id < instance.jobs[chosen].id)) {
          chosen = j;
        }
      }
      if (chosen == instance.size()) break;  // j == NULL
      const Job& job = instance.jobs[chosen];
      if (job.proc + used > instance.T) break;  // calibration is full
      schedule.jobs.push_back({job.id, cal.machine, t + used});
      used += job.proc;
      done[chosen] = true;
      --remaining;
    }
  }

  for (std::size_t j = 0; j < instance.size(); ++j) {
    if (!done[j]) result.unassigned.push_back(instance.jobs[j].id);
  }
  return result;
}

}  // namespace calisched
