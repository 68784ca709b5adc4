// Boundary-value and robustness tests cutting across modules:
// minimum T, p_j = T, window exactly 2T, zero slack, negative times,
// determinism, serialization round trips, and wide-horizon behavior.
#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "baselines/exact_ise.hpp"
#include "core/schedule_io.hpp"
#include "gen/generators.hpp"
#include "longwin/long_pipeline.hpp"
#include "mm/mm.hpp"
#include "shortwin/short_pipeline.hpp"
#include "solver/ise_solver.hpp"
#include "verify/verify.hpp"

namespace calisched {
namespace {

TEST(EdgeCases, MinimumCalibrationLengthT2) {
  Instance instance;
  instance.machines = 1;
  instance.T = 2;
  instance.jobs = {
      {0, 0, 4, 2},   // long (window 4 = 2T), full-length
      {1, 1, 4, 1},   // short
      {2, 5, 12, 2},  // long
  };
  ASSERT_FALSE(instance.validate().has_value());
  const IseSolveResult result = solve_ise(instance);
  ASSERT_TRUE(result.feasible) << result.error;
  EXPECT_TRUE(verify_ise(instance, result.schedule).ok());
}

TEST(EdgeCases, FullLengthJobsExactlyFillCalibrations) {
  // p_j = T everywhere: every calibration holds exactly one job.
  Instance instance;
  instance.machines = 2;
  instance.T = 10;
  for (JobId j = 0; j < 4; ++j) {
    instance.jobs.push_back({j, j * 3, j * 3 + 25, 10});
  }
  const IseSolveResult result = solve_ise(instance);
  ASSERT_TRUE(result.feasible) << result.error;
  EXPECT_TRUE(verify_ise(instance, result.schedule).ok());
}

TEST(EdgeCases, WindowExactlyTwoTIsLong) {
  Instance instance;
  instance.machines = 1;
  instance.T = 10;
  instance.jobs = {{0, 0, 20, 10}};
  const WindowSplit split = split_by_window(instance);
  EXPECT_EQ(split.long_jobs.size(), 1u);
  const LongWindowResult result = solve_long_window(split.long_jobs);
  ASSERT_TRUE(result.feasible) << result.error;
  EXPECT_TRUE(verify_tise(instance, result.schedule).ok());
}

TEST(EdgeCases, ZeroSlackShortJobs) {
  // Jobs that must run the moment they are released.
  Instance instance;
  instance.machines = 3;
  instance.T = 10;
  instance.jobs = {
      {0, 0, 6, 6}, {1, 2, 8, 6}, {2, 4, 10, 6},
  };
  const GreedyEdfMM mm;
  const ShortWindowResult result = solve_short_window(instance, mm);
  ASSERT_TRUE(result.feasible) << result.error;
  EXPECT_TRUE(verify_ise(instance, result.schedule).ok());
}

TEST(EdgeCases, NegativeReleaseTimes) {
  // The model is translation-invariant; negative times must work (the
  // Figure-1 fixture already relies on it, this isolates the pipelines).
  Instance instance;
  instance.machines = 1;
  instance.T = 10;
  instance.jobs = {{0, -30, -5, 5}, {1, -8, 30, 7}};
  ASSERT_FALSE(instance.validate().has_value());
  const IseSolveResult result = solve_ise(instance);
  ASSERT_TRUE(result.feasible) << result.error;
  EXPECT_TRUE(verify_ise(instance, result.schedule).ok());
}

TEST(EdgeCases, LargeTimeValuesDoNotOverflow) {
  const Time base = Time{1} << 40;
  Instance instance;
  instance.machines = 1;
  instance.T = 1000;
  instance.jobs = {
      {0, base, base + 5000, 400},
      {1, base + 100, base + 1900, 700},
  };
  const IseSolveResult result = solve_ise(instance);
  ASSERT_TRUE(result.feasible) << result.error;
  EXPECT_TRUE(verify_ise(instance, result.schedule).ok());
}

TEST(EdgeCases, HugeCalibrationLengthEndsInAStructuredError) {
  // T = 2^62 and d = INT64_MAX: Definition 1 makes the job short, and the
  // short pipeline's 2*gamma*T interval width does not fit in a Time. The
  // solve must say so instead of dividing by a wrapped width.
  Instance instance;
  instance.machines = 1;
  instance.T = Time{1} << 62;
  instance.jobs = {{0, 0, std::numeric_limits<Time>::max(), 5}};
  const IseSolveResult result = solve_ise(instance);
  EXPECT_FALSE(result.feasible);
  EXPECT_EQ(result.status, SolveStatus::kLimitExceeded) << result.error;
  EXPECT_EQ(result.short_job_count, 1u);
}

TEST(EdgeCases, ManyIdenticalJobs) {
  Instance instance;
  instance.machines = 2;
  instance.T = 10;
  for (JobId j = 0; j < 12; ++j) instance.jobs.push_back({j, 0, 60, 5});
  const IseSolveResult result = solve_ise(instance);
  ASSERT_TRUE(result.feasible) << result.error;
  EXPECT_TRUE(verify_ise(instance, result.schedule).ok());
}

TEST(EdgeCases, SingleMachineEverywhere) {
  GenParams params;
  params.seed = 77;
  params.n = 10;
  params.T = 8;
  params.machines = 1;
  params.horizon = 80;
  params.max_proc = 7;
  const Instance instance = generate_mixed(params, 0.5);
  const IseSolveResult result = solve_ise(instance);
  ASSERT_TRUE(result.feasible) << result.error;
  EXPECT_TRUE(verify_ise(instance, result.schedule).ok());
}

TEST(Determinism, SameSeedSameSchedule) {
  GenParams params;
  params.seed = 123;
  params.n = 14;
  params.T = 10;
  params.machines = 2;
  params.horizon = 90;
  params.max_proc = 9;
  const Instance a = generate_mixed(params, 0.5);
  const Instance b = generate_mixed(params, 0.5);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) EXPECT_EQ(a.jobs[i], b.jobs[i]);

  const IseSolveResult ra = solve_ise(a);
  const IseSolveResult rb = solve_ise(b);
  ASSERT_TRUE(ra.feasible && rb.feasible);
  std::ostringstream sa, sb;
  write_schedule(sa, ra.schedule);
  write_schedule(sb, rb.schedule);
  EXPECT_EQ(sa.str(), sb.str());
}

TEST(Determinism, DifferentSeedsDifferentInstances) {
  GenParams params;
  params.seed = 1;
  params.n = 10;
  params.T = 10;
  params.horizon = 80;
  const Instance a = generate_long_window(params);
  params.seed = 2;
  const Instance b = generate_long_window(params);
  bool any_difference = false;
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    if (!(a.jobs[i] == b.jobs[i])) any_difference = true;
  }
  EXPECT_TRUE(any_difference);
}

TEST(ScheduleIo, RoundTripWithTicksAndSpeed) {
  Schedule schedule;
  schedule.machines = 3;
  schedule.T = 10;
  schedule.time_denominator = 36;
  schedule.speed = 36;
  schedule.calibrations = {{0, -360}, {2, 720}};
  schedule.jobs = {{5, 0, -350}, {7, 2, 725}};
  std::stringstream buffer;
  write_schedule(buffer, schedule);
  const Schedule parsed = read_schedule(buffer);
  EXPECT_EQ(parsed.machines, schedule.machines);
  EXPECT_EQ(parsed.T, schedule.T);
  EXPECT_EQ(parsed.time_denominator, schedule.time_denominator);
  EXPECT_EQ(parsed.speed, schedule.speed);
  ASSERT_EQ(parsed.calibrations.size(), 2u);
  EXPECT_EQ(parsed.calibrations[1], (Calibration{2, 720}));
  ASSERT_EQ(parsed.jobs.size(), 2u);
  EXPECT_EQ(parsed.jobs[0], (ScheduledJob{5, 0, -350}));
}

TEST(ScheduleIo, RejectsMalformed) {
  std::stringstream bad1("calibration 0\n");
  EXPECT_THROW(read_schedule(bad1), std::runtime_error);
  std::stringstream bad2("frobnicate 1 2 3\n");
  EXPECT_THROW(read_schedule(bad2), std::runtime_error);
  std::stringstream bad3("machines 1\nT 4\nspeed 0\n");
  EXPECT_THROW(read_schedule(bad3), std::runtime_error);
}

TEST(ScheduleIo, SolverOutputRoundTripsVerifiably) {
  GenParams params;
  params.seed = 31;
  params.n = 12;
  params.T = 10;
  params.machines = 2;
  params.horizon = 80;
  params.max_proc = 9;
  const Instance instance = generate_mixed(params, 0.5);
  const IseSolveResult result = solve_ise(instance);
  ASSERT_TRUE(result.feasible);
  std::stringstream buffer;
  write_schedule(buffer, result.schedule);
  const Schedule parsed = read_schedule(buffer);
  EXPECT_TRUE(verify_ise(instance, parsed).ok());
}

TEST(EdgeCases, ExactSolverOnSingleFullLengthJob) {
  Instance instance;
  instance.machines = 1;
  instance.T = 6;
  instance.jobs = {{0, 4, 10, 6}};  // zero slack, p = T
  const ExactIseResult result = solve_exact_ise(instance);
  ASSERT_TRUE(result.solved && result.feasible);
  EXPECT_EQ(result.optimal_calibrations, 1u);
  ASSERT_EQ(result.schedule.calibrations.size(), 1u);
  EXPECT_EQ(result.schedule.calibrations[0].start, 4);
}

TEST(EdgeCases, InstanceWhereOnlyDelayedCalibrationWorks) {
  // Mirror of the paper's Section 5 observation: delaying is optimal.
  // Calibrating eagerly at r_0 = 0 would strand job 1.
  Instance instance;
  instance.machines = 1;
  instance.T = 10;
  instance.jobs = {{0, 0, 14, 3}, {1, 9, 19, 6}};
  const ExactIseResult result = solve_exact_ise(instance);
  ASSERT_TRUE(result.solved && result.feasible);
  EXPECT_EQ(result.optimal_calibrations, 1u);
  EXPECT_GE(result.schedule.calibrations[0].start, 5);
}

}  // namespace
}  // namespace calisched
