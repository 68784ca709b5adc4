// Tests for the baseline ISE algorithms and the calibration lower bounds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <vector>

#include "baselines/baseline.hpp"
#include "baselines/calibration_bounds.hpp"
#include "baselines/exact_ise.hpp"
#include "baselines/gap_min.hpp"
#include "baselines/ise_lp_bound.hpp"
#include "gen/generators.hpp"
#include "util/arith.hpp"
#include "verify/verify.hpp"

namespace calisched {
namespace {

TEST(CalibrationBounds, WorkBound) {
  Instance instance;
  instance.machines = 1;
  instance.T = 10;
  instance.jobs = {{0, 0, 30, 7}, {1, 0, 30, 7}, {2, 0, 30, 7}};
  EXPECT_EQ(calibration_work_bound(instance), 3);  // ceil(21/10)
}

TEST(CalibrationBounds, WindowedBeatsGlobalWhenClustered) {
  // Two tight clusters far apart: global work bound is ceil(12/10) = 2,
  // but each cluster independently needs ceil(6/10) = 1, and they are
  // separated by >> T, so the windowed bound is 2 as well; make clusters
  // heavier to separate the bounds: 2 clusters of work 14 -> windowed 4,
  // global ceil(28/10) = 3.
  Instance instance;
  instance.machines = 2;
  instance.T = 10;
  instance.jobs = {
      {0, 0, 10, 7},    {1, 0, 10, 7},      // cluster A, work 14
      {2, 500, 510, 7}, {3, 500, 510, 7},   // cluster B, work 14
  };
  EXPECT_EQ(calibration_work_bound(instance), 3);
  EXPECT_EQ(calibration_windowed_bound(instance), 4);
  EXPECT_EQ(calibration_lower_bound(instance), 4);
}

TEST(CalibrationBounds, EmptyInstance) {
  Instance instance;
  instance.machines = 1;
  instance.T = 5;
  EXPECT_EQ(calibration_lower_bound(instance), 0);
}

TEST(CalibrationBounds, PinnedValuesAcrossGeneratorFamilies) {
  // Byte-identity gate for any rewrite of the two bounds: the integers were
  // captured from the window-enumeration implementation, over every
  // generate_family family x 4 seeds (n = 30..120, 1..3 machines, sparse
  // and dense horizons). The benchmark's `calibrations_ratio` divides by
  // the CLI's "(lower bound N)", so a faster bound must reproduce them all.
  struct Pinned {
    const char* family;
    int seed;
    std::int64_t windowed;
    std::int64_t lower;
  };
  constexpr Pinned kPinned[] = {
      {"mixed", 1, 19, 19},
      {"mixed", 2, 35, 35},
      {"mixed", 3, 51, 51},
      {"mixed", 4, 61, 61},
      {"long", 1, 20, 20},
      {"long", 2, 33, 33},
      {"long", 3, 47, 47},
      {"long", 4, 62, 62},
      {"short", 1, 22, 22},
      {"short", 2, 33, 33},
      {"short", 3, 52, 52},
      {"short", 4, 62, 62},
      {"unit", 1, 11, 11},
      {"unit", 2, 9, 9},
      {"unit", 3, 33, 33},
      {"unit", 4, 19, 19},
      {"clustered", 1, 19, 19},
      {"clustered", 2, 35, 35},
      {"clustered", 3, 50, 50},
      {"clustered", 4, 62, 62},
      {"calib-cheap-short", 1, 22, 22},
      {"calib-cheap-short", 2, 33, 33},
      {"calib-cheap-short", 3, 52, 52},
      {"calib-cheap-short", 4, 62, 62},
      {"calib-expensive-long", 1, 22, 22},
      {"calib-expensive-long", 2, 33, 33},
      {"calib-expensive-long", 3, 52, 52},
      {"calib-expensive-long", 4, 62, 62},
      {"calib-delayed", 1, 22, 22},
      {"calib-delayed", 2, 33, 33},
      {"calib-delayed", 3, 52, 52},
      {"calib-delayed", 4, 62, 62},
      {"online-poisson", 1, 20, 20},
      {"online-poisson", 2, 33, 33},
      {"online-poisson", 3, 58, 58},
      {"online-poisson", 4, 67, 67},
      {"online-burst", 1, 18, 18},
      {"online-burst", 2, 36, 36},
      {"online-burst", 3, 51, 51},
      {"online-burst", 4, 62, 62},
      {"online-drip", 1, 17, 17},
      {"online-drip", 2, 34, 34},
      {"online-drip", 3, 51, 51},
      {"online-drip", 4, 62, 62},
  };
  for (const Pinned& row : kPinned) {
    GenParams params;
    params.seed = static_cast<std::uint64_t>(row.seed);
    params.n = 30 * row.seed;
    params.T = 10;
    params.machines = 1 + row.seed % 3;
    params.horizon = (row.seed % 2 == 1 ? 10 : 3) * params.n;
    params.max_proc = params.T;
    const Instance instance = generate_family(row.family, params);
    EXPECT_EQ(calibration_windowed_bound(instance), row.windowed)
        << row.family << " seed " << row.seed;
    EXPECT_EQ(calibration_lower_bound(instance), row.lower)
        << row.family << " seed " << row.seed;
  }
}

// The window-enumeration bound as first written: one scan of all n jobs
// per (release, deadline) pair, O(R*D*n). Kept as the differential oracle
// for the sweep in calibration_windowed_bound.
std::int64_t reference_windowed_bound(const Instance& instance) {
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

  std::vector<Window> windows;
  for (const Time a : releases) {
    for (const Time b : deadlines) {
      if (b <= a) continue;
      Time work = 0;
      for (const Job& job : instance.jobs) {
        if (a <= job.release && job.deadline <= b) work += job.proc;
      }
      if (work > 0) windows.push_back({a, b, ceil_div(work, instance.T)});
    }
  }
  if (windows.empty()) return 0;

  std::sort(windows.begin(), windows.end(),
            [](const Window& x, const Window& y) { return x.b < y.b; });
  const std::size_t count = windows.size();
  std::vector<std::int64_t> best(count + 1, 0);
  for (std::size_t i = 0; i < count; ++i) {
    const Time cutoff = windows[i].a - instance.T;
    std::size_t lo = 0, hi = i;
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

TEST(CalibrationBounds, SweepMatchesReferenceAcrossGeneratorFamilies) {
  constexpr const char* kFamilies[] = {
      "mixed", "long", "short", "unit", "clustered", "calib-cheap-short",
      "calib-expensive-long", "calib-delayed", "online-poisson",
      "online-burst", "online-drip"};
  for (const char* family : kFamilies) {
    for (int seed = 1; seed <= 4; ++seed) {
      GenParams params;
      params.seed = static_cast<std::uint64_t>(seed);
      params.n = 200;
      params.T = 10;
      params.machines = 1 + seed % 3;
      params.horizon = (seed % 2 == 1 ? 10 : 3) * params.n;
      params.max_proc = params.T;
      const Instance instance = generate_family(family, params);
      EXPECT_EQ(calibration_windowed_bound(instance),
                reference_windowed_bound(instance))
          << family << " seed " << seed;
    }
  }
}

TEST(CalibrationBounds, SweepMatchesReferenceOnBenchmarkShapes) {
  // One seed of each benchmark workload's instance shape, with the CLI's
  // generator defaults (T = 10, 2 machines).
  struct Shape {
    const char* family;
    int n;
    Time horizon;
  };
  for (const Shape& shape : {Shape{"short", 800, 8000},
                             Shape{"mixed", 400, 4000}}) {
    GenParams params;
    params.seed = 1001;
    params.n = shape.n;
    params.horizon = shape.horizon;
    const Instance instance = generate_family(shape.family, params);
    EXPECT_EQ(calibration_windowed_bound(instance),
              reference_windowed_bound(instance))
        << shape.family << " n " << shape.n;
  }
}

TEST(CalibrationBounds, SweepMatchesReferenceOnHandCases) {
  const auto make = [](Time T, std::vector<Job> jobs) {
    Instance instance;
    instance.machines = 1;
    instance.T = T;
    instance.jobs = std::move(jobs);
    return instance;
  };
  const Instance cases[] = {
      // Repeated releases and repeated deadlines.
      make(10, {{0, 0, 20, 9}, {1, 0, 20, 8}, {2, 0, 35, 7}, {3, 15, 35, 9},
                {4, 15, 50, 6}, {5, 40, 50, 10}}),
      // A release equal to another job's deadline.
      make(10, {{0, 0, 12, 10}, {1, 12, 24, 10}, {2, 24, 36, 10},
                {3, 12, 40, 5}}),
      // Every job in one window.
      make(10, {{0, 5, 30, 4}, {1, 5, 30, 9}, {2, 5, 30, 10}, {3, 5, 30, 2}}),
      // T larger than every window: no two windows are separated by T.
      make(1000, {{0, 0, 3, 2}, {1, 10, 14, 3}, {2, 50, 60, 7},
                  {3, 200, 205, 1}}),
  };
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    EXPECT_EQ(calibration_windowed_bound(cases[i]),
              reference_windowed_bound(cases[i]))
        << "case " << i;
  }
  EXPECT_EQ(calibration_windowed_bound(cases[2]), 3);  // ceil(25/10)
  EXPECT_EQ(calibration_windowed_bound(cases[3]), 1);
}

TEST(IseLpBound, SingleJobCostsOneCalibration) {
  Instance instance;
  instance.machines = 1;
  instance.T = 10;
  instance.jobs = {{0, 3, 25, 6}};
  const auto bound = ise_lp_bound(instance);
  ASSERT_TRUE(bound.has_value());
  EXPECT_NEAR(*bound, 1.0, 1e-6);
}

TEST(IseLpBound, NeverExceedsExactOptimum) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    GenParams params;
    params.seed = seed;
    params.n = 5;
    params.T = 6;
    params.machines = 2;
    params.horizon = 30;
    params.max_proc = 5;
    const Instance instance = generate_mixed(params, 0.5);
    const ExactIseResult exact = solve_exact_ise(instance);
    if (!exact.solved || !exact.feasible) continue;
    const auto lp = ise_lp_bound(instance);
    ASSERT_TRUE(lp.has_value()) << "seed " << seed;
    EXPECT_LE(std::ceil(*lp - 1e-6),
              static_cast<double>(exact.optimal_calibrations))
        << "seed " << seed;
    EXPECT_GE(ise_certified_bound(instance), calibration_lower_bound(instance))
        << "seed " << seed;
    EXPECT_LE(ise_certified_bound(instance),
              static_cast<std::int64_t>(exact.optimal_calibrations))
        << "seed " << seed;
  }
}

TEST(IseLpBound, SeparatedClustersAddUp) {
  // Two clusters far apart: the LP must pay at least one calibration each.
  Instance instance;
  instance.machines = 2;
  instance.T = 10;
  instance.jobs = {{0, 0, 12, 4}, {1, 500, 512, 4}};
  const auto bound = ise_lp_bound(instance);
  ASSERT_TRUE(bound.has_value());
  EXPECT_GE(*bound, 2.0 - 1e-6);
}

TEST(IseLpBound, FallsBackOnHugeHorizons) {
  Instance instance;
  instance.machines = 1;
  instance.T = 10;
  instance.jobs = {{0, 0, 1'000'000, 5}};
  // Grid too large: certified bound falls back to the combinatorial bound.
  EXPECT_EQ(ise_certified_bound(instance), calibration_lower_bound(instance));
}

TEST(PerJobCalibration, AlwaysFeasibleWithNCals) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    GenParams params;
    params.seed = seed;
    params.n = 15;
    params.T = 10;
    params.horizon = 80;
    params.max_proc = 10;
    const Instance instance = generate_mixed(params, 0.5);
    const BaselineResult result = PerJobCalibration().solve(instance);
    ASSERT_TRUE(result.feasible) << "seed " << seed;
    EXPECT_EQ(result.schedule.num_calibrations(), instance.size());
    // Machines in the baseline schedule may exceed instance.machines; it
    // reports what it needs. Verify against a widened instance.
    const VerifyResult check = verify_ise(instance, result.schedule);
    EXPECT_TRUE(check.ok()) << "seed " << seed << "\n" << check.to_string();
  }
}

TEST(SaturateCalibration, FeasibleOnLooseInstances) {
  GenParams params;
  params.seed = 3;
  params.n = 8;
  params.T = 10;
  params.machines = 3;
  params.horizon = 60;
  params.max_proc = 5;
  const Instance instance = generate_long_window(params, 3, 6);
  const BaselineResult result = SaturateCalibration().solve(instance);
  ASSERT_TRUE(result.feasible) << result.error;
  const VerifyResult check = verify_ise(instance, result.schedule);
  EXPECT_TRUE(check.ok()) << check.to_string();
  // Cost is m * ceil(span / T).
  const Time span = instance.max_deadline() - instance.min_release();
  EXPECT_EQ(result.schedule.num_calibrations(),
            static_cast<std::size_t>(instance.machines) *
                static_cast<std::size_t>((span + instance.T - 1) / instance.T));
}

TEST(SaturateCalibration, ReportsFailureHonestly) {
  // Grid-aligned EDF cannot split a T-length job across cells, and three
  // same-window full-length jobs cannot fit two grid cells on 1 machine.
  Instance instance;
  instance.machines = 1;
  instance.T = 10;
  instance.jobs = {{0, 0, 20, 10}, {1, 0, 20, 10}, {2, 0, 20, 10}};
  const BaselineResult result = SaturateCalibration().solve(instance);
  EXPECT_FALSE(result.feasible);
  EXPECT_FALSE(result.error.empty());
}

TEST(BenderLazy, RequiresUnitJobs) {
  Instance instance;
  instance.machines = 1;
  instance.T = 10;
  instance.jobs = {{0, 0, 20, 2}};
  const BaselineResult result = BenderUnitLazyBinning().solve(instance);
  EXPECT_FALSE(result.feasible);
}

TEST(BenderLazy, SingleCalibrationWhenJobsShareWindow) {
  // T unit jobs in one window of length T: one lazy calibration suffices.
  Instance instance;
  instance.machines = 1;
  instance.T = 5;
  for (JobId j = 0; j < 5; ++j) instance.jobs.push_back({j, 0, 5, 1});
  const BaselineResult result = BenderUnitLazyBinning().solve(instance);
  ASSERT_TRUE(result.feasible) << result.error;
  EXPECT_EQ(result.schedule.num_calibrations(), 1u);
  EXPECT_TRUE(verify_ise(instance, result.schedule).ok());
}

TEST(BenderLazy, LazyStartMaximizesFutureCoverage) {
  // One urgent job (d=3) then stragglers at 8..10: the calibration opened
  // at d-1 = 2 spans [2, 12) and catches all of them -> 1 calibration.
  Instance instance;
  instance.machines = 1;
  instance.T = 10;
  instance.jobs = {{0, 0, 3, 1}, {1, 8, 12, 1}, {2, 9, 12, 1}};
  const BaselineResult result = BenderUnitLazyBinning().solve(instance);
  ASSERT_TRUE(result.feasible) << result.error;
  EXPECT_EQ(result.schedule.num_calibrations(), 1u);
  EXPECT_TRUE(verify_ise(instance, result.schedule).ok());
}

TEST(GapMin, SingleBurstIsOneBlock) {
  Instance instance;
  instance.machines = 1;
  instance.T = 2;
  for (JobId j = 0; j < 5; ++j) instance.jobs.push_back({j, 0, 7, 1});
  const GapMinResult result = solve_min_gaps_unit(instance);
  ASSERT_TRUE(result.solved && result.feasible);
  EXPECT_EQ(result.busy_blocks, 1u);
  ASSERT_EQ(result.slots.size(), 5u);
  // The slots form one contiguous run.
  std::vector<Time> times;
  for (const ScheduledJob& sj : result.slots) times.push_back(sj.start);
  std::sort(times.begin(), times.end());
  for (std::size_t i = 1; i < times.size(); ++i) {
    EXPECT_EQ(times[i], times[i - 1] + 1);
  }
}

TEST(GapMin, ForcedSeparationNeedsTwoBlocks) {
  Instance instance;
  instance.machines = 1;
  instance.T = 2;
  instance.jobs = {{0, 0, 1, 1}, {1, 5, 6, 1}};  // pinned 4 apart
  const GapMinResult result = solve_min_gaps_unit(instance);
  ASSERT_TRUE(result.solved && result.feasible);
  EXPECT_EQ(result.busy_blocks, 2u);
}

TEST(GapMin, InfeasibleInstanceReported) {
  Instance instance;
  instance.machines = 1;
  instance.T = 2;
  instance.jobs = {{0, 0, 1, 1}, {1, 0, 1, 1}};  // two jobs, one slot
  const GapMinResult result = solve_min_gaps_unit(instance);
  EXPECT_TRUE(result.solved);
  EXPECT_FALSE(result.feasible);
}

TEST(GapMin, SlotsRespectWindows) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    GenParams params;
    params.seed = seed;
    params.n = 6;
    params.T = 4;
    params.machines = 1;
    params.horizon = 14;
    const Instance instance = generate_unit(params, 8);
    const GapMinResult result = solve_min_gaps_unit(instance);
    if (!result.solved || !result.feasible) continue;
    MMSchedule as_mm;
    as_mm.machines = 1;
    as_mm.jobs = result.slots;
    EXPECT_TRUE(verify_mm(instance, as_mm).ok()) << "seed " << seed;
  }
}

TEST(GreedyLazyIse, FeasibleAndVerifiedAcrossFamilies) {
  int solved = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    GenParams params;
    params.seed = seed;
    params.n = 14;
    params.T = 10;
    params.machines = 3;
    params.horizon = 90;
    params.max_proc = 8;
    const Instance instance = generate_mixed(params, 0.5);
    const BaselineResult result = GreedyLazyIse().solve(instance);
    if (!result.feasible) continue;  // greedy may fail; must never lie
    ++solved;
    const VerifyResult check = verify_ise(instance, result.schedule);
    EXPECT_TRUE(check.ok()) << "seed " << seed << "\n" << check.to_string();
    EXPECT_GE(static_cast<std::int64_t>(result.schedule.num_calibrations()),
              calibration_lower_bound(instance));
  }
  EXPECT_GE(solved, 8) << "greedy-lazy should handle most mixed instances";
}

TEST(GreedyLazyIse, SharesCalibrationAcrossNonUnitJobs) {
  // Three jobs fit one calibration; lazy binning must open exactly one.
  Instance instance;
  instance.machines = 1;
  instance.T = 10;
  instance.jobs = {{0, 0, 20, 4}, {1, 0, 20, 3}, {2, 0, 20, 3}};
  const BaselineResult result = GreedyLazyIse().solve(instance);
  ASSERT_TRUE(result.feasible) << result.error;
  EXPECT_EQ(result.schedule.num_calibrations(), 1u);
  EXPECT_TRUE(verify_ise(instance, result.schedule).ok());
}

TEST(GreedyLazyIse, MatchesExactOnTinyInstances) {
  int compared = 0;
  double worst_ratio = 0.0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    GenParams params;
    params.seed = seed;
    params.n = 5;
    params.T = 6;
    params.machines = 2;
    params.horizon = 30;
    params.max_proc = 5;
    const Instance instance = generate_mixed(params, 0.5);
    const ExactIseResult exact = solve_exact_ise(instance);
    if (!exact.solved || !exact.feasible) continue;
    const BaselineResult greedy = GreedyLazyIse().solve(instance);
    if (!greedy.feasible) continue;
    ++compared;
    EXPECT_GE(greedy.schedule.num_calibrations(), exact.optimal_calibrations)
        << "seed " << seed;
    worst_ratio = std::max(
        worst_ratio, static_cast<double>(greedy.schedule.num_calibrations()) /
                         static_cast<double>(exact.optimal_calibrations));
  }
  EXPECT_GE(compared, 5);
  // No guarantee exists, but on tiny instances the greedy should stay
  // within a small constant of optimal; catches gross regressions.
  EXPECT_LE(worst_ratio, 3.0);
}

TEST(BenderLazy, FeasibleAcrossRandomUnitInstances) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    GenParams params;
    params.seed = seed;
    params.n = 20;
    params.T = 6;
    params.machines = 3;
    params.horizon = 50;
    const Instance instance = generate_unit(params, 10);
    const BaselineResult result = BenderUnitLazyBinning().solve(instance);
    ASSERT_TRUE(result.feasible) << "seed " << seed << ": " << result.error;
    const VerifyResult check = verify_ise(instance, result.schedule);
    EXPECT_TRUE(check.ok()) << "seed " << seed << "\n" << check.to_string();
    EXPECT_GE(static_cast<std::int64_t>(result.schedule.num_calibrations()),
              calibration_lower_bound(instance));
  }
}

}  // namespace
}  // namespace calisched
