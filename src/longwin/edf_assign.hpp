// Algorithm 2: nonpreemptive earliest-deadline-first assignment of long
// jobs to a rounded calibration schedule.
//
// The calibration schedule is first mirrored onto a second, disjoint set of
// machines (Lemma 9's doubling), then calibrations are scanned by start
// time, then original machine, each original directly before its mirror
// (the order Lemma 10's dominance argument needs). Each is filled greedily
// with the earliest-deadline unscheduled job that obeys the TISE
// constraint, until the next such job no longer fits (the paper's
// while-loop stops at the first earliest-deadline job that exceeds the
// remaining room). The scan time never decreases, so eligible jobs wait in
// a heap keyed on (deadline, id): O((n + C) log n) for n jobs and C
// calibrations after the O(C log C) scan-order sort.
#pragma once

#include <vector>

#include "core/schedule.hpp"

namespace calisched {

struct EdfAssignResult {
  Schedule schedule;               ///< calibrations (mirrored) + job placements
  std::vector<JobId> unassigned;   ///< empty when the pipeline guarantees hold
};

/// `calendar` holds rounded calibrations on `calendar.machines` machines
/// (jobs, if any, are ignored). With `mirror` (the paper's Algorithm 2)
/// the result uses 2 * calendar.machines machines: [0, M) the original
/// calendar, [M, 2M) the mirror. Without it, EDF runs on the bare
/// calendar — Lemma 8/9 no longer guarantee completeness, so callers must
/// check `unassigned` (the adaptive-mirror optimization falls back to the
/// mirrored run when it is non-empty).
[[nodiscard]] EdfAssignResult edf_assign_jobs(const Instance& instance,
                                              const Schedule& calendar,
                                              bool mirror = true);

}  // namespace calisched
