// End-to-end tests of the Theorem 1 combined solver.
#include <gtest/gtest.h>

#include "baselines/calibration_bounds.hpp"
#include "gen/generators.hpp"
#include "mm/lower_bounds.hpp"
#include "mm/lp_rounding_mm.hpp"
#include "solver/ise_solver.hpp"
#include "solver/mm_via_ise.hpp"
#include "verify/verify.hpp"

namespace calisched {
namespace {

GenParams mixed_params(std::uint64_t seed, int n = 14) {
  GenParams params;
  params.seed = seed;
  params.n = n;
  params.T = 10;
  params.machines = 2;
  params.horizon = 100;
  params.max_proc = 9;
  return params;
}

TEST(IseSolver, MixedInstancesFeasibleAndClean) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Instance instance = generate_mixed(mixed_params(seed), 0.5);
    const IseSolveResult result = solve_ise(instance);
    ASSERT_TRUE(result.feasible) << "seed " << seed << ": " << result.error;
    EXPECT_EQ(result.long_job_count + result.short_job_count, instance.size());
    const VerifyResult check = verify_ise(instance, result.schedule);
    EXPECT_TRUE(check.ok()) << "seed " << seed << "\n" << check.to_string();
    EXPECT_GE(static_cast<std::int64_t>(result.total_calibrations),
              calibration_lower_bound(instance))
        << "seed " << seed;
  }
}

TEST(IseSolver, PureLongInstanceSkipsShortPool) {
  const Instance instance = generate_long_window(mixed_params(2));
  const IseSolveResult result = solve_ise(instance);
  ASSERT_TRUE(result.feasible) << result.error;
  EXPECT_EQ(result.short_job_count, 0u);
  EXPECT_EQ(result.short_telemetry.total_calibrations, 0u);
  EXPECT_TRUE(verify_ise(instance, result.schedule).ok());
}

TEST(IseSolver, PureShortInstanceSkipsLongPool) {
  const Instance instance = generate_short_window(mixed_params(3));
  const IseSolveResult result = solve_ise(instance);
  ASSERT_TRUE(result.feasible) << result.error;
  EXPECT_EQ(result.long_job_count, 0u);
  EXPECT_EQ(result.long_telemetry.total_calibrations, 0u);
  EXPECT_TRUE(verify_ise(instance, result.schedule).ok());
}

TEST(IseSolver, CustomMmBlackBox) {
  IseSolverOptions options;
  options.mm = std::make_shared<ExactMM>();
  const Instance instance = generate_short_window(mixed_params(5, 10));
  const IseSolveResult result = solve_ise(instance, options);
  ASSERT_TRUE(result.feasible) << result.error;
  EXPECT_TRUE(verify_ise(instance, result.schedule).ok());
  ASSERT_FALSE(result.short_telemetry.mm_algorithms.empty());
  EXPECT_EQ(result.short_telemetry.mm_algorithms[0], "exact-state");
}

TEST(IseSolver, EmptyInstance) {
  Instance instance;
  instance.machines = 2;
  instance.T = 10;
  const IseSolveResult result = solve_ise(instance);
  EXPECT_TRUE(result.feasible);
  EXPECT_EQ(result.total_calibrations, 0u);
}

TEST(IseSolver, SingleJob) {
  Instance instance;
  instance.machines = 1;
  instance.T = 10;
  instance.jobs = {{0, 3, 40, 6}};
  const IseSolveResult result = solve_ise(instance);
  ASSERT_TRUE(result.feasible) << result.error;
  EXPECT_TRUE(verify_ise(instance, result.schedule).ok());
}

TEST(IseSolver, ClusteredArrivalsBothRegimes) {
  for (const bool long_windows : {false, true}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      GenParams params = mixed_params(seed, 16);
      const Instance instance =
          generate_clustered(params, /*bursts=*/3, /*burst_span=*/8, long_windows);
      const IseSolveResult result = solve_ise(instance);
      ASSERT_TRUE(result.feasible)
          << "seed " << seed << " long=" << long_windows << ": " << result.error;
      const VerifyResult check = verify_ise(instance, result.schedule);
      EXPECT_TRUE(check.ok())
          << "seed " << seed << " long=" << long_windows << "\n"
          << check.to_string();
    }
  }
}

TEST(IseSolver, SpeedAugmentedMmBoxEndToEnd) {
  // Theorem 1 with an s-speed MM black box: the whole result runs on
  // s-speed machines (the long pipeline's schedule is lifted unchanged).
  // Every box the solver takes as a parameter, the LP-rounding one too.
  const std::vector<std::shared_ptr<const MachineMinimizer>> boxes = {
      std::make_shared<GreedyEdfMM>(), std::make_shared<LpRoundingMM>()};
  for (const auto& box : boxes) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      const Instance instance = generate_mixed(mixed_params(seed), 0.5);
      IseSolverOptions options;
      options.mm = std::make_shared<SpeedupMM>(box, 2);
      const IseSolveResult result = solve_ise(instance, options);
      ASSERT_TRUE(result.feasible)
          << box->name() << " seed " << seed << ": " << result.error;
      if (result.short_job_count > 0) {
        EXPECT_EQ(result.schedule.speed, 2) << box->name() << " seed " << seed;
      }
      const VerifyResult check = verify_ise(instance, result.schedule);
      EXPECT_TRUE(check.ok())
          << box->name() << " seed " << seed << "\n" << check.to_string();
    }
  }
}

TEST(IseSolver, MachinePoolsAreDisjoint) {
  const Instance instance = generate_mixed(mixed_params(7), 0.5);
  const IseSolveResult result = solve_ise(instance);
  ASSERT_TRUE(result.feasible) << result.error;
  // Long-pool machines all strictly below the short pool offset.
  const int long_pool = 18 * instance.machines;
  const WindowSplit split = split_by_window(instance);
  for (const ScheduledJob& sj : result.schedule.jobs) {
    const bool is_long = split.long_jobs.jobs.end() !=
                         std::find_if(split.long_jobs.jobs.begin(),
                                      split.long_jobs.jobs.end(),
                                      [&](const Job& job) { return job.id == sj.job; });
    if (is_long) {
      EXPECT_LT(sj.machine, long_pool) << "job " << sj.job;
    } else {
      EXPECT_GE(sj.machine, long_pool) << "job " << sj.job;
    }
  }
}

TEST(IseSolver, ReportsInfeasibilityHonestly) {
  // Seven full-length jobs share window [0, 2T) on one machine: the TISE
  // relaxation on 3m = 3 machines caps the feasible calibration mass at 6
  // (3 at each of the two nested points), so 7T work cannot fit.
  Instance instance;
  instance.machines = 1;
  instance.T = 10;
  for (JobId j = 0; j < 7; ++j) instance.jobs.push_back({j, 0, 20, 10});
  const IseSolveResult result = solve_ise(instance);
  EXPECT_FALSE(result.feasible);
  EXPECT_NE(result.error.find("infeasible"), std::string::npos) << result.error;
}

TEST(MmViaIse, ReductionYieldsValidMmSchedules) {
  // Section 1's reduction: an ISE solve with T = span gives an MM schedule
  // with one machine per calibration.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    GenParams params;
    params.seed = seed;
    params.n = 10;
    params.T = 10;  // ignored by the reduction
    params.horizon = 50;
    params.max_proc = 8;
    const Instance instance = generate_short_window(params);
    const MmViaIseResult result = mm_via_ise(instance);
    ASSERT_TRUE(result.feasible) << "seed " << seed << ": " << result.error;
    EXPECT_EQ(static_cast<std::size_t>(result.schedule.machines),
              result.calibrations)
        << "seed " << seed;
    const VerifyResult check = verify_mm(instance, result.schedule);
    EXPECT_TRUE(check.ok()) << "seed " << seed << "\n" << check.to_string();
    EXPECT_GE(result.schedule.machines, mm_lower_bound(instance))
        << "seed " << seed;
  }
}

TEST(MmViaIse, EmptyInstance) {
  Instance instance;
  instance.machines = 1;
  instance.T = 4;
  const MmViaIseResult result = mm_via_ise(instance);
  EXPECT_TRUE(result.feasible);
  EXPECT_EQ(result.calibrations, 0u);
}

TEST(MmViaIse, SequentialJobsShareOneMachine) {
  Instance instance;
  instance.machines = 1;
  instance.T = 2;  // ignored
  instance.jobs = {{0, 0, 4, 4}, {1, 4, 8, 4}, {2, 8, 12, 4}};
  const MmViaIseResult result = mm_via_ise(instance);
  ASSERT_TRUE(result.feasible) << result.error;
  EXPECT_TRUE(verify_mm(instance, result.schedule).ok());
}

}  // namespace
}  // namespace calisched
