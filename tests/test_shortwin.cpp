// Tests for the Section-4 short-window machinery: Algorithm 5 interval
// scheduling (crossing jobs included), Algorithm 4 partitioning, and the
// Theorem 20 bounds against MM telemetry.
#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>

#include "core/schedule_io.hpp"
#include "gen/generators.hpp"
#include "mm/mm.hpp"
#include "shortwin/short_pipeline.hpp"
#include "trace/trace.hpp"
#include "verify/verify.hpp"

namespace calisched {
namespace {

GenParams short_params(std::uint64_t seed, int n = 12) {
  GenParams params;
  params.seed = seed;
  params.n = n;
  params.T = 10;
  params.machines = 2;
  params.horizon = 100;
  params.max_proc = 9;
  return params;
}

TEST(IntervalSchedule, EmptyIntervalIsTrivial) {
  Instance instance;
  instance.machines = 1;
  instance.T = 10;
  const GreedyEdfMM mm;
  const IntervalScheduleResult result = schedule_interval(instance, 0, mm);
  EXPECT_TRUE(result.feasible);
  EXPECT_EQ(result.mm_machines, 0);
  EXPECT_EQ(result.schedule.num_calibrations(), 0u);
}

TEST(IntervalSchedule, NoncrossingJobsStayOnCalendarMachines) {
  Instance instance;
  instance.machines = 1;
  instance.T = 10;
  // Two sequential jobs inside the first calendar slot [0, 10).
  instance.jobs = {{0, 0, 10, 5}, {1, 0, 12, 5}};
  const GreedyEdfMM mm;
  const IntervalScheduleResult result = schedule_interval(instance, 0, mm);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.mm_machines, 1);
  // Full calendar: 2 * gamma = 4 calibrations, no crossing calibrations.
  EXPECT_EQ(result.schedule.num_calibrations(), 4u);
  const VerifyResult check = verify_ise(instance, result.schedule);
  EXPECT_TRUE(check.ok()) << check.to_string();
}

TEST(IntervalSchedule, CrossingJobGetsDedicatedCalibration) {
  Instance instance;
  instance.machines = 1;
  instance.T = 10;
  // The MM schedule will run this job across the t=10 boundary: window
  // forces start in [6, 8], so [start, start+8) crosses 10.
  instance.jobs = {{0, 6, 16, 8}};
  const GreedyEdfMM mm;
  const IntervalScheduleResult result = schedule_interval(instance, 0, mm);
  ASSERT_TRUE(result.feasible);
  // 4 calendar calibrations + 1 dedicated crossing calibration.
  EXPECT_EQ(result.schedule.num_calibrations(), 5u);
  const VerifyResult check = verify_ise(instance, result.schedule);
  EXPECT_TRUE(check.ok()) << check.to_string();
  // The job must sit on a crossing machine (index >= w = 1).
  ASSERT_EQ(result.schedule.jobs.size(), 1u);
  EXPECT_GE(result.schedule.jobs[0].machine, 1);
}

TEST(IntervalSchedule, TrimUnusedCalibrationsOption) {
  Instance instance;
  instance.machines = 1;
  instance.T = 10;
  instance.jobs = {{0, 0, 10, 5}};
  const GreedyEdfMM mm;
  IntervalOptions options;
  options.trim_unused_calibrations = true;
  const IntervalScheduleResult result = schedule_interval(instance, 0, mm, options);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.schedule.num_calibrations(), 1u);
  EXPECT_TRUE(verify_ise(instance, result.schedule).ok());
}

TEST(ShortPipeline, IntervalWidthOverflowIsAStructuredError) {
  // Definition 1 calls this job short (window 2^63 - 1 < 2T), but the
  // 2*gamma*T interval width does not fit in a Time.
  Instance instance;
  instance.machines = 1;
  instance.T = Time{1} << 62;
  instance.jobs = {{0, 0, std::numeric_limits<Time>::max(), 5}};
  ASSERT_FALSE(instance.validate().has_value());
  ASSERT_FALSE(instance.jobs[0].is_long(instance.T));
  const GreedyEdfMM mm;
  const ShortWindowResult result = solve_short_window(instance, mm);
  EXPECT_FALSE(result.feasible);
  EXPECT_EQ(result.status, SolveStatus::kLimitExceeded);
  EXPECT_NE(result.error.find("overflows"), std::string::npos) << result.error;
}

TEST(ShortPipeline, FeasibleAndCleanAcrossSeeds) {
  const GreedyEdfMM mm;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const Instance instance = generate_short_window(short_params(seed));
    const ShortWindowResult result = solve_short_window(instance, mm);
    ASSERT_TRUE(result.feasible) << "seed " << seed << ": " << result.error;
    const VerifyResult check = verify_ise(instance, result.schedule);
    EXPECT_TRUE(check.ok()) << "seed " << seed << "\n" << check.to_string();
  }
}

TEST(ShortPipeline, Lemma19CalibrationBudget) {
  const GreedyEdfMM mm;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const Instance instance = generate_short_window(short_params(seed, 16));
    const ShortWindowResult result = solve_short_window(instance, mm);
    ASSERT_TRUE(result.feasible) << "seed " << seed;
    // Lemma 19 per interval: <= 4*gamma*w calibrations; summed over
    // intervals and passes: <= 4 * gamma * sum_i w_i.
    const Time gamma = 2;
    EXPECT_LE(result.telemetry.total_calibrations,
              static_cast<std::size_t>(4 * gamma *
                                       result.telemetry.sum_mm_machines))
        << "seed " << seed;
    // Machine pools: 3 * max_w per pass, two passes.
    EXPECT_LE(result.telemetry.machines_allotted,
              6 * result.telemetry.max_mm_machines)
        << "seed " << seed;
  }
}

TEST(ShortPipeline, OffsetPassCatchesBoundaryStraddlers) {
  Instance instance;
  instance.machines = 1;
  instance.T = 10;
  // Interval width is 4T = 40. This job straddles t = 40 (release 35,
  // deadline 45), so only the offset pass (intervals [20, 60)) nests it.
  instance.jobs = {{0, 35, 45, 5}};
  const GreedyEdfMM mm;
  const ShortWindowResult result = solve_short_window(instance, mm);
  ASSERT_TRUE(result.feasible) << result.error;
  EXPECT_EQ(result.telemetry.intervals_pass1, 0);
  EXPECT_EQ(result.telemetry.intervals_pass2, 1);
  EXPECT_TRUE(verify_ise(instance, result.schedule).ok());
}

TEST(ShortPipeline, BothPassesShareNothing) {
  Instance instance;
  instance.machines = 1;
  instance.T = 10;
  instance.jobs = {
      {0, 0, 10, 5},    // pass 1, interval [0, 40)
      {1, 35, 45, 5},   // pass 2, interval [20, 60)
      {2, 50, 65, 8},   // pass 1, interval [40, 80)
  };
  const GreedyEdfMM mm;
  const ShortWindowResult result = solve_short_window(instance, mm);
  ASSERT_TRUE(result.feasible) << result.error;
  EXPECT_EQ(result.telemetry.intervals_pass1, 2);
  EXPECT_EQ(result.telemetry.intervals_pass2, 1);
  const VerifyResult check = verify_ise(instance, result.schedule);
  EXPECT_TRUE(check.ok()) << check.to_string();
}

TEST(ShortPipeline, PartitionAdversarialInstances) {
  const ExactMM mm;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Instance instance = generate_partition_adversarial(seed, 3, 5);
    const ShortWindowResult result = solve_short_window(instance, mm);
    ASSERT_TRUE(result.feasible) << "seed " << seed << ": " << result.error;
    EXPECT_TRUE(verify_ise(instance, result.schedule).ok()) << "seed " << seed;
    // Exact MM finds the planted 2-machine partition.
    EXPECT_EQ(result.telemetry.max_mm_machines, 2) << "seed " << seed;
  }
}

TEST(ShortPipeline, RelaxedCalibrationsUseFewerMachines) {
  const GreedyEdfMM mm;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Instance instance = generate_short_window(short_params(seed, 16));
    const ShortWindowResult strict = solve_short_window(instance, mm);
    IntervalOptions relaxed_options;
    relaxed_options.relaxed_calibrations = true;
    const ShortWindowResult relaxed =
        solve_short_window(instance, mm, relaxed_options);
    ASSERT_TRUE(strict.feasible && relaxed.feasible) << "seed " << seed;
    // Footnote 3: same calibrations, no extra crossing machines.
    EXPECT_EQ(relaxed.telemetry.total_calibrations,
              strict.telemetry.total_calibrations)
        << "seed " << seed;
    EXPECT_LE(relaxed.telemetry.machines_allotted,
              strict.telemetry.machines_allotted)
        << "seed " << seed;
    EXPECT_LE(relaxed.telemetry.machines_allotted,
              2 * relaxed.telemetry.max_mm_machines)
        << "seed " << seed;
    const VerifyResult check =
        verify_ise(instance, relaxed.schedule, /*require_tise=*/false,
                   CalibrationPolicy::kOverlapAllowed);
    EXPECT_TRUE(check.ok()) << "seed " << seed << "\n" << check.to_string();
  }
}

TEST(ShortPipeline, RelaxedCrossingJobStaysOnItsMachine) {
  Instance instance;
  instance.machines = 1;
  instance.T = 10;
  instance.jobs = {{0, 6, 16, 8}};  // forced to cross the t=10 boundary
  const GreedyEdfMM mm;
  IntervalOptions options;
  options.relaxed_calibrations = true;
  const ShortWindowResult result = solve_short_window(instance, mm, options);
  ASSERT_TRUE(result.feasible) << result.error;
  ASSERT_EQ(result.schedule.jobs.size(), 1u);
  EXPECT_EQ(result.schedule.jobs[0].machine, 0);  // no crossing machine
  EXPECT_TRUE(verify_ise(instance, result.schedule, false,
                         CalibrationPolicy::kOverlapAllowed)
                  .ok());
  // The strict model would reject the overlapping dedicated calibration.
  EXPECT_FALSE(verify_ise(instance, result.schedule).ok());
}

TEST(ShortPipeline, SpeedAugmentedBoxYieldsSpeedSchedule) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Instance instance = generate_short_window(short_params(seed, 14));
    const SpeedupMM fast(std::make_shared<GreedyEdfMM>(), 2);
    const ShortWindowResult result = solve_short_window(instance, fast);
    ASSERT_TRUE(result.feasible) << "seed " << seed << ": " << result.error;
    EXPECT_EQ(result.schedule.speed, 2) << "seed " << seed;
    EXPECT_EQ(result.schedule.time_denominator, 2) << "seed " << seed;
    const VerifyResult check = verify_ise(instance, result.schedule);
    EXPECT_TRUE(check.ok()) << "seed " << seed << "\n" << check.to_string();
  }
}

TEST(ShortPipeline, SpeedAugmentationReducesMachines) {
  // The Partition instance needs 2 machines at speed 1, 1 at speed 2.
  const Instance instance = generate_partition_adversarial(3, 3, 5);
  const auto exact = std::make_shared<ExactMM>();
  const ShortWindowResult slow = solve_short_window(instance, *exact);
  const SpeedupMM fast_box(exact, 2);
  const ShortWindowResult fast = solve_short_window(instance, fast_box);
  ASSERT_TRUE(slow.feasible && fast.feasible);
  EXPECT_EQ(slow.telemetry.max_mm_machines, 2);
  EXPECT_EQ(fast.telemetry.max_mm_machines, 1);
  EXPECT_TRUE(verify_ise(instance, fast.schedule).ok());
}

TEST(ShortPipeline, EmptyInstance) {
  Instance instance;
  instance.machines = 3;
  instance.T = 10;
  const GreedyEdfMM mm;
  const ShortWindowResult result = solve_short_window(instance, mm);
  EXPECT_TRUE(result.feasible);
  EXPECT_EQ(result.schedule.num_calibrations(), 0u);
}

TEST(ShortPipeline, UnitJobsWithUnitBox) {
  const UnitEdfMM mm;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    GenParams params = short_params(seed, 20);
    const Instance instance = generate_unit(params, /*max_window=*/12);
    const ShortWindowResult result = solve_short_window(instance, mm);
    ASSERT_TRUE(result.feasible) << "seed " << seed << ": " << result.error;
    EXPECT_TRUE(verify_ise(instance, result.schedule).ok()) << "seed " << seed;
  }
}

TEST(ShortPipeline, ParallelFanOutMatchesSequentialByteForByte) {
  // The IntervalOptions::threads contract: any thread count yields the same
  // schedule bytes and the same telemetry, because interval results and
  // scratch traces are merged in interval order, never completion order.
  const GreedyEdfMM mm;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    GenParams params = short_params(seed, 32);
    params.horizon = 400;  // ~10 disjoint intervals per pass
    const Instance instance = generate_short_window(params);

    const auto run = [&](int threads) {
      IntervalOptions options;
      options.threads = threads;
      TraceContext trace("shortwin");
      options.trace = &trace;
      const ShortWindowResult result = solve_short_window(instance, mm, options);
      EXPECT_TRUE(result.feasible)
          << "seed " << seed << " threads " << threads << ": " << result.error;
      std::ostringstream bytes;
      write_schedule(bytes, result.schedule);
      // Span durations are wall-clock and legitimately vary; counters and
      // notes must not.
      return std::make_tuple(bytes.str(), result.telemetry,
                             trace.counter("mm.invocations"),
                             trace.notes("mm.algorithm"));
    };

    const auto [seq_bytes, seq_tele, seq_mm, seq_algos] = run(1);
    for (int threads : {4, 8, 0}) {
      const auto [bytes, tele, mm_calls, algos] = run(threads);
      EXPECT_EQ(bytes, seq_bytes) << "seed " << seed << " threads " << threads;
      EXPECT_EQ(mm_calls, seq_mm) << "seed " << seed << " threads " << threads;
      EXPECT_EQ(algos, seq_algos) << "seed " << seed << " threads " << threads;
      EXPECT_EQ(tele.intervals_pass1, seq_tele.intervals_pass1);
      EXPECT_EQ(tele.intervals_pass2, seq_tele.intervals_pass2);
      EXPECT_EQ(tele.sum_mm_machines, seq_tele.sum_mm_machines);
      EXPECT_EQ(tele.max_mm_machines, seq_tele.max_mm_machines);
      EXPECT_EQ(tele.machines_allotted, seq_tele.machines_allotted);
      EXPECT_EQ(tele.total_calibrations, seq_tele.total_calibrations);
    }
  }
}

}  // namespace
}  // namespace calisched
