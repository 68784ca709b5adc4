// Tests for the exact minimum-calibration reference solver, including the
// Lemma 2 trim-gap relation (exact TISE vs exact ISE) and the differential
// sweep that pins the state-space engine to the branch-and-bound oracle.
#include <gtest/gtest.h>

#include <vector>

#include "baselines/baseline.hpp"
#include "baselines/calibration_bounds.hpp"
#include "baselines/exact_ise.hpp"
#include "gen/generators.hpp"
#include "mm/mm.hpp"
#include "oracle/oracle.hpp"
#include "runtime/registry.hpp"
#include "trace/trace.hpp"
#include "verify/verify.hpp"

namespace calisched {
namespace {

TEST(ExactIse, TwoShareableJobsNeedOneCalibration) {
  Instance instance;
  instance.machines = 1;
  instance.T = 10;
  instance.jobs = {{0, 0, 20, 4}, {1, 0, 20, 5}};
  const ExactIseResult result = solve_exact_ise(instance);
  ASSERT_TRUE(result.solved);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.optimal_calibrations, 1u);
  EXPECT_TRUE(verify_ise(instance, result.schedule).ok());
}

TEST(ExactIse, FarApartJobsNeedTwoCalibrations) {
  Instance instance;
  instance.machines = 1;
  instance.T = 10;
  instance.jobs = {{0, 0, 12, 4}, {1, 100, 112, 4}};
  const ExactIseResult result = solve_exact_ise(instance);
  ASSERT_TRUE(result.solved);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.optimal_calibrations, 2u);
}

TEST(ExactIse, WorkForcesExtraCalibrations) {
  // Work 18 in T=10 calibrations: at least 2, and 2 suffice back-to-back.
  Instance instance;
  instance.machines = 1;
  instance.T = 10;
  instance.jobs = {{0, 0, 30, 9}, {1, 0, 30, 9}};
  const ExactIseResult result = solve_exact_ise(instance);
  ASSERT_TRUE(result.solved);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.optimal_calibrations, 2u);
  EXPECT_TRUE(verify_ise(instance, result.schedule).ok());
}

TEST(ExactIse, MachineLimitCanForceInfeasibility) {
  // Three zero-slack same-time jobs on 2 machines: infeasible regardless
  // of calibrations.
  Instance instance;
  instance.machines = 2;
  instance.T = 10;
  instance.jobs = {{0, 0, 5, 5}, {1, 0, 5, 5}, {2, 0, 5, 5}};
  const ExactIseResult result = solve_exact_ise(instance);
  ASSERT_TRUE(result.solved);
  EXPECT_FALSE(result.feasible);
}

TEST(ExactIse, DelayingCalibrationIsSometimesOptimal) {
  // The paper's key structural point: it can be optimal to *delay*.
  // Job 0 runnable in [0, 12); job 1 only in [11, 23). A calibration at
  // time 0 cannot host job 1 ([0,10) ends before 11... and a second would
  // be needed), but one calibration at 11 hosts neither... The right
  // single-calibration choice is t = 8: covers [8, 18) - job 0 can run
  // [8, 12)? p=4: [8, 12) ok; job 1 runs [12, 16) ⊆ [11, 23). One
  // calibration total, but only if the solver delays past job 0's release.
  Instance instance;
  instance.machines = 1;
  instance.T = 10;
  instance.jobs = {{0, 0, 12, 4}, {1, 11, 23, 4}};
  const ExactIseResult result = solve_exact_ise(instance);
  ASSERT_TRUE(result.solved);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.optimal_calibrations, 1u);
  ASSERT_EQ(result.schedule.calibrations.size(), 1u);
  EXPECT_GT(result.schedule.calibrations[0].start, 0);
}

TEST(ExactIse, RespectsLowerBound) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    GenParams params;
    params.seed = seed;
    params.n = 5;
    params.T = 6;
    params.machines = 2;
    params.horizon = 30;
    params.max_proc = 5;
    const Instance instance = generate_mixed(params, 0.5);
    const ExactIseResult result = solve_exact_ise(instance);
    if (!result.solved || !result.feasible) continue;
    EXPECT_GE(static_cast<std::int64_t>(result.optimal_calibrations),
              calibration_lower_bound(instance))
        << "seed " << seed;
    EXPECT_TRUE(verify_ise(instance, result.schedule).ok()) << "seed " << seed;
  }
}

TEST(ExactIse, NeverBeatenByPerJobBaseline) {
  for (std::uint64_t seed = 20; seed <= 26; ++seed) {
    GenParams params;
    params.seed = seed;
    params.n = 4;
    params.T = 6;
    params.machines = 4;  // enough machines that per-job is feasible
    params.horizon = 25;
    params.max_proc = 4;
    const Instance instance = generate_mixed(params, 0.5);
    const ExactIseResult exact = solve_exact_ise(instance);
    ASSERT_TRUE(exact.solved) << "seed " << seed;
    if (!exact.feasible) continue;  // per-job may need more machines
    EXPECT_LE(exact.optimal_calibrations, instance.size()) << "seed " << seed;
  }
}

TEST(ExactIse, TiseOptimumAtLeastIseOptimum) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    GenParams params;
    params.seed = seed;
    params.n = 4;
    params.T = 5;
    params.machines = 2;
    params.horizon = 30;
    params.max_proc = 4;
    const Instance instance = generate_long_window(params, 2, 4);
    const ExactIseResult ise = solve_exact_ise(instance);
    ExactIseOptions tise_options;
    tise_options.require_tise = true;
    const ExactIseResult tise = solve_exact_ise(instance, tise_options);
    ASSERT_TRUE(ise.solved && tise.solved) << "seed " << seed;
    ASSERT_TRUE(ise.feasible) << "seed " << seed;
    if (!tise.feasible) continue;
    EXPECT_GE(tise.optimal_calibrations, ise.optimal_calibrations)
        << "seed " << seed;
    EXPECT_TRUE(verify_tise(instance, tise.schedule).ok()) << "seed " << seed;
  }
}

TEST(ExactIse, Lemma2TrimGapWithinThreeX) {
  // Lemma 2: TISE on 3m machines needs <= 3x the ISE-optimal calibrations.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    GenParams params;
    params.seed = seed;
    params.n = 4;
    params.T = 5;
    params.machines = 1;
    params.horizon = 25;
    params.max_proc = 4;
    const Instance instance = generate_long_window(params, 2, 4);
    const ExactIseResult ise = solve_exact_ise(instance);
    ASSERT_TRUE(ise.solved && ise.feasible) << "seed " << seed;

    Instance tripled = instance;
    tripled.machines = 3 * instance.machines;
    ExactIseOptions tise_options;
    tise_options.require_tise = true;
    const ExactIseResult tise = solve_exact_ise(tripled, tise_options);
    ASSERT_TRUE(tise.solved) << "seed " << seed;
    ASSERT_TRUE(tise.feasible) << "seed " << seed;
    EXPECT_LE(tise.optimal_calibrations, 3 * ise.optimal_calibrations)
        << "seed " << seed;
  }
}

TEST(ExactIse, BudgetExhaustionIsReported) {
  Instance instance;
  instance.machines = 2;
  instance.T = 10;
  for (JobId j = 0; j < 8; ++j) {
    instance.jobs.push_back({j, j * 3, j * 3 + 25, 6});
  }
  ExactIseOptions options;
  options.node_budget = 50;
  const ExactIseResult result = solve_exact_ise(instance, options);
  EXPECT_FALSE(result.solved);
}

TEST(ExactIse, EmptyInstance) {
  Instance instance;
  instance.machines = 1;
  instance.T = 4;
  const ExactIseResult result = solve_exact_ise(instance);
  EXPECT_TRUE(result.solved);
  EXPECT_TRUE(result.feasible);
  EXPECT_EQ(result.optimal_calibrations, 0u);
}

// ---------------------------------------------------- differential sweep --

/// Small instances from every generator family the exact engines accept
/// (the calib-cost families carry a type table, which neither exact ISE
/// engine models). 34 seeds x 6 families = 204 instances.
std::vector<Instance> differential_instances() {
  std::vector<Instance> instances;
  for (std::uint64_t seed = 1; seed <= 34; ++seed) {
    GenParams params;
    params.seed = seed;
    params.n = 4 + static_cast<int>(seed % 3);
    params.T = 6;
    params.machines = 1 + static_cast<int>(seed % 2);
    params.horizon = 30;
    params.max_proc = 5;
    instances.push_back(generate_mixed(params, 0.5));
    instances.push_back(generate_long_window(params, 2, 4));
    instances.push_back(generate_short_window(params));
    instances.push_back(generate_unit(params, 8));
    instances.push_back(generate_clustered(params, 2, params.T, seed % 2 == 0));
    instances.push_back(generate_partition_adversarial(seed, 2, 4));
  }
  return instances;
}

TEST(ExactDifferential, IseEnginesAgreeAcrossGeneratorFamilies) {
  const std::vector<Instance> instances = differential_instances();
  ASSERT_GE(instances.size(), 200u);
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const Instance& instance = instances[i];
    const ExactIseResult state = solve_exact_ise(instance);
    const ExactIseResult bnb = oracle::solve_exact_ise_bnb(instance);
    ASSERT_TRUE(state.solved) << "instance " << i;
    ASSERT_TRUE(bnb.solved) << "instance " << i;
    ASSERT_EQ(state.feasible, bnb.feasible) << "instance " << i;
    if (!state.feasible) continue;
    EXPECT_EQ(state.optimal_calibrations, bnb.optimal_calibrations)
        << "instance " << i;
    EXPECT_TRUE(verify_ise(instance, state.schedule).ok()) << "instance " << i;
    EXPECT_TRUE(verify_ise(instance, bnb.schedule).ok()) << "instance " << i;
  }
}

TEST(ExactDifferential, MmEnginesAgreeAcrossGeneratorFamilies) {
  const std::vector<Instance> instances = differential_instances();
  ASSERT_GE(instances.size(), 200u);
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const Instance& instance = instances[i];
    for (int machines = 1; machines <= 3; ++machines) {
      const MMFeasibility state = exact_mm_feasibility(instance, machines);
      const MMFeasibility bnb =
          branch_bound_feasibility(instance, machines, 4'000'000);
      ASSERT_EQ(state.status, SolveStatus::kOk)
          << "instance " << i << ", m=" << machines;
      ASSERT_EQ(bnb.status, SolveStatus::kOk)
          << "instance " << i << ", m=" << machines;
      EXPECT_EQ(state.feasible, bnb.feasible)
          << "instance " << i << ", m=" << machines;
      if (state.feasible) {
        Instance copy = instance;
        copy.machines = machines;
        EXPECT_TRUE(verify_mm(copy, state.schedule).ok())
            << "instance " << i << ", m=" << machines;
      }
    }
  }
}

// ---------------------------------------------------------------- pruning --

TEST(ExactStateSpace, DominanceAndMergingPruneTheLayeredGraph) {
  // Interchangeable jobs reach identical states along every placement
  // order (merges), and staggered windows leave strictly-worse frontiers
  // behind (dominance kills them). Without both, the layered graph would
  // revisit each permutation the way the DFS does.
  Instance instance;
  instance.machines = 2;
  instance.T = 8;
  for (JobId j = 0; j < 7; ++j) {
    instance.jobs.push_back({j, j * 2, j * 2 + 16, 3});
  }
  TraceContext trace("exact_ise");
  ExactIseOptions options;
  options.trace = &trace;
  const ExactIseResult result = solve_exact_ise(instance, options);
  ASSERT_TRUE(result.solved);
  ASSERT_TRUE(result.feasible);
  EXPECT_TRUE(verify_ise(instance, result.schedule).ok());

  // Same optimum as the oracle, reached with a collapsed graph.
  const ExactIseResult bnb = oracle::solve_exact_ise_bnb(instance);
  ASSERT_TRUE(bnb.solved && bnb.feasible);
  EXPECT_EQ(result.optimal_calibrations, bnb.optimal_calibrations);

  EXPECT_TRUE(trace.has_counter("state_space.states"));  // a search reported
  EXPECT_GT(trace.counter("state_space.merged"), 0);
  EXPECT_GT(trace.counter("state_space.dominated"), 0);
  EXPECT_LT(trace.counter("state_space.expanded"),
            trace.counter("state_space.states"));
  EXPECT_GT(trace.span_count("layer"), 0);
}

TEST(ExactStateSpace, ExactMmForwardsItsTrace) {
  // The telemetry overload must reach the state-space search: its work
  // counters land in the caller's trace next to the "mm" span.
  Instance instance;
  instance.machines = 1;
  instance.T = 1'000'000;
  for (JobId j = 0; j < 6; ++j) instance.jobs.push_back({j, 0, 6, 4});
  TraceContext trace("mm");
  const MMResult result = ExactMM(4'000'000).minimize(instance, &trace);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.algorithm, "exact-state");
  EXPECT_GT(trace.counter("state_space.states"), 0);
  EXPECT_EQ(trace.counter("state_space.states"), result.search_nodes);
  EXPECT_TRUE(trace.has_span("mm"));
}

// -------------------------------------------------------- budget statuses --

TEST(ExactIse, BudgetOneNeverReportsInfeasible) {
  // A feasible two-job instance under a starvation budget: both engines
  // must say "stopped", never "infeasible" — conflating the two would turn
  // a resource artifact into a wrong verdict.
  Instance instance;
  instance.machines = 1;
  instance.T = 10;
  instance.jobs = {{0, 0, 20, 4}, {1, 0, 20, 5}};
  ExactIseOptions options;
  options.node_budget = 1;
  for (const ExactIseResult& result :
       {solve_exact_ise(instance, options),
        oracle::solve_exact_ise_bnb(instance, options)}) {
    EXPECT_FALSE(result.solved);
    EXPECT_FALSE(result.feasible);
    EXPECT_EQ(result.status, SolveStatus::kLimitExceeded);
  }
}

TEST(ExactIse, RegistryBudgetOneSurfacesLimitNotInfeasible) {
  Instance instance;
  instance.machines = 1;
  instance.T = 10;
  instance.jobs = {{0, 0, 20, 4}, {1, 0, 20, 5}};
  RunLimits limits;
  limits.node_budget = 1;
  const Algorithm* algorithm = AlgorithmRegistry::builtin().find("exact-ise");
  ASSERT_NE(algorithm, nullptr);
  const RunResult result = algorithm->run(instance, limits, nullptr);
  EXPECT_FALSE(result.feasible);
  EXPECT_EQ(result.status, SolveStatus::kLimitExceeded);
  // The branch-and-bound oracle reads the same limits.node_budget override.
  ExactIseOptions bnb_options;
  bnb_options.limits = limits;
  const ExactIseResult bnb = oracle::solve_exact_ise_bnb(instance, bnb_options);
  EXPECT_FALSE(bnb.solved);
  EXPECT_EQ(bnb.status, SolveStatus::kLimitExceeded);
  // The MM adapter instead degrades to its greedy fallback: still feasible,
  // and still never "infeasible because the budget ran out".
  const Algorithm* mm = AlgorithmRegistry::builtin().find("mm-exact");
  ASSERT_NE(mm, nullptr);
  const RunResult fallback = mm->run(instance, limits, nullptr);
  EXPECT_TRUE(fallback.feasible);
  EXPECT_EQ(fallback.status, SolveStatus::kOk);
}

}  // namespace
}  // namespace calisched
