#include "baselines/calibration_bounds.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "util/arith.hpp"

namespace calisched {

std::int64_t calibration_work_bound(const Instance& instance) {
  if (instance.empty()) return 0;
  return ceil_div(instance.total_work(), instance.T);
}

std::int64_t calibration_windowed_bound(const Instance& instance) {
  if (instance.empty()) return 0;
  struct Window {
    Time a, b;
    std::int64_t value;
  };
  std::vector<Time> releases, deadlines;
  for (const Job& job : instance.jobs) {
    releases.push_back(job.release);
    deadlines.push_back(job.deadline);
  }
  std::sort(releases.begin(), releases.end());
  releases.erase(std::unique(releases.begin(), releases.end()), releases.end());
  std::sort(deadlines.begin(), deadlines.end());
  deadlines.erase(std::unique(deadlines.begin(), deadlines.end()),
                  deadlines.end());

  // W(a, b) = sum{p_j : a <= r_j, d_j <= b} in one sweep: visit releases in
  // descending order, add each job's work once (when a reaches r_j) at its
  // deadline's index, and read W(a, b) for every b as a running sum.
  std::vector<std::size_t> by_release(instance.jobs.size());
  std::iota(by_release.begin(), by_release.end(), std::size_t{0});
  std::sort(by_release.begin(), by_release.end(),
            [&](std::size_t x, std::size_t y) {
              return instance.jobs[x].release > instance.jobs[y].release;
            });
  std::vector<Time> work_due_at(deadlines.size(), 0);
  std::size_t added = 0;

  std::vector<Window> windows;
  for (auto a_it = releases.rbegin(); a_it != releases.rend(); ++a_it) {
    const Time a = *a_it;
    for (; added < by_release.size() &&
           instance.jobs[by_release[added]].release == a;
         ++added) {
      const Job& job = instance.jobs[by_release[added]];
      const auto at =
          std::lower_bound(deadlines.begin(), deadlines.end(), job.deadline);
      work_due_at[static_cast<std::size_t>(at - deadlines.begin())] += job.proc;
    }
    Time work = 0;
    for (std::size_t k = 0; k < deadlines.size(); ++k) {
      work += work_due_at[k];
      const Time b = deadlines[k];
      if (b <= a) continue;
      if (work > 0) windows.push_back({a, b, ceil_div(work, instance.T)});
    }
  }
  if (windows.empty()) return 0;

  // Weighted interval scheduling where windows must be separated by >= T.
  std::sort(windows.begin(), windows.end(),
            [](const Window& x, const Window& y) { return x.b < y.b; });
  const std::size_t count = windows.size();
  std::vector<std::int64_t> best(count + 1, 0);
  for (std::size_t i = 0; i < count; ++i) {
    // Last window ending at or before windows[i].a - T.
    const Time cutoff = windows[i].a - instance.T;
    std::size_t lo = 0, hi = i;  // windows[0..i) sorted by b
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (windows[mid].b <= cutoff) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    best[i + 1] = std::max(best[i], best[lo] + windows[i].value);
  }
  return best[count];
}

std::int64_t calibration_lower_bound(const Instance& instance) {
  if (instance.empty()) return 0;
  return std::max<std::int64_t>(
      1, std::max(calibration_work_bound(instance),
                  calibration_windowed_bound(instance)));
}

}  // namespace calisched
