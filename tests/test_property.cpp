// Property-based sweeps (parameterized over seeds and instance shapes).
//
// These tests restate the paper's invariants as executable properties and
// sweep them across many random instances:
//   P1  every pipeline schedule passes the independent verifier;
//   P2  Lemma 4's sliding-window bound on rounded calibrations;
//   P3  Lemma 5 / Corollary 6 witness invariants;
//   P4  Theorem 12 machine budget and the internal 2x-LP rounding chain;
//   P5  Theorem 20 calibration budget in MM-machine units;
//   P6  the speed transform never increases calibrations and stays exact;
//   P8  the per-type calibration grids collapse to the classic Lemma 3
//       grid on unit-model instances (the cost-model generalization is
//       conservative);
//   P9  approximation ratios against *certified exact optima* at n in
//       100..200: the exact state-space engine solves structured wave
//       instances at sizes far past branch-and-bound reach, and every
//       paper bound (combinatorial lower bound <= OPT, Theorem 20's
//       16*gamma*alpha ceiling with an exact MM box, baselines >= OPT)
//       holds against the true optimum, not a proxy lower bound;
//   P10 the block-decomposed TISE LP objective lies between the monolithic
//       LP and the exact TISE optimum on m' machines.
#include <gtest/gtest.h>

#include <tuple>

#include "baselines/baseline.hpp"
#include "baselines/calibration_bounds.hpp"
#include "baselines/exact_ise.hpp"
#include "core/calibration_points.hpp"
#include "gen/generators.hpp"
#include "longwin/fractional_witness.hpp"
#include "longwin/long_pipeline.hpp"
#include "longwin/tise_lp.hpp"
#include "longwin/rounding.hpp"
#include "longwin/speed_transform.hpp"
#include "mm/mm.hpp"
#include "oracle/oracle.hpp"
#include "shortwin/short_pipeline.hpp"
#include "solver/ise_solver.hpp"
#include "verify/verify.hpp"

namespace calisched {
namespace {

struct SweepCase {
  std::uint64_t seed;
  int n;
  Time T;
  int machines;
};

std::string case_name(const testing::TestParamInfo<SweepCase>& info) {
  const SweepCase& c = info.param;
  return "seed" + std::to_string(c.seed) + "_n" + std::to_string(c.n) + "_T" +
         std::to_string(c.T) + "_m" + std::to_string(c.machines);
}

GenParams to_params(const SweepCase& c) {
  GenParams params;
  params.seed = c.seed;
  params.n = c.n;
  params.T = c.T;
  params.machines = c.machines;
  params.horizon = 12 * c.T;
  params.max_proc = c.T;
  return params;
}

std::vector<SweepCase> sweep_cases() {
  std::vector<SweepCase> cases;
  for (std::uint64_t seed : {11, 22, 33, 44, 55, 66}) {
    for (const int n : {6, 12, 20}) {
      for (const Time T : {Time{5}, Time{12}}) {
        cases.push_back({seed, n, T, 1 + static_cast<int>(seed % 3)});
      }
    }
  }
  // Odd calibration length + minimum T corner, at each size.
  for (const int n : {6, 14}) {
    cases.push_back({77, n, 7, 2});
    cases.push_back({88, n, 2, 1});
  }
  return cases;
}

class LongWindowSweep : public testing::TestWithParam<SweepCase> {};

TEST_P(LongWindowSweep, PipelineInvariants) {
  const Instance instance = generate_long_window(to_params(GetParam()));
  const int m_prime = 3 * instance.machines;
  const TiseFractional fractional = solve_tise_lp(instance, m_prime);
  ASSERT_EQ(fractional.status, LpStatus::kOptimal);

  // P2: Lemma 4 window bound on the rounded calendar.
  const auto starts =
      round_calibrations(fractional.points, fractional.calibration_mass);
  for (std::size_t i = 0; i < starts.size(); ++i) {
    std::size_t in_window = 0;
    for (std::size_t j = i;
         j < starts.size() && starts[j] < starts[i] + instance.T; ++j) {
      ++in_window;
    }
    ASSERT_LE(in_window, static_cast<std::size_t>(3 * m_prime));
  }

  // P3: witness invariants.
  const FractionalWitness witness = run_fractional_witness(instance, fractional);
  EXPECT_LE(witness.telemetry.max_y_minus_carryover, 1e-6);
  EXPECT_GE(witness.telemetry.min_job_coverage, 1.0 - 1e-6);
  EXPECT_LE(witness.telemetry.max_calibration_work,
            static_cast<double>(instance.T) + 1e-6);

  // P4: full pipeline budgets + P1 verifier.
  const LongWindowResult pipeline = solve_long_window(instance);
  ASSERT_TRUE(pipeline.feasible) << pipeline.error;
  EXPECT_LE(pipeline.schedule.machines, 18 * instance.machines);
  EXPECT_LE(static_cast<double>(pipeline.telemetry.rounded_calibrations),
            2.0 * pipeline.telemetry.lp_objective + 1e-6);
  const VerifyResult check = verify_tise(instance, pipeline.schedule);
  EXPECT_TRUE(check.ok()) << check.to_string();

  // P6: speed transform.
  const int c = (pipeline.schedule.machines + instance.machines - 1) /
                instance.machines;
  const auto fast = speed_transform(instance, pipeline.schedule, c);
  ASSERT_TRUE(fast.has_value());
  EXPECT_LE(fast->num_calibrations(), pipeline.schedule.num_calibrations());
  const VerifyResult fast_check = verify_ise(instance, *fast);
  EXPECT_TRUE(fast_check.ok()) << fast_check.to_string();
}

TEST_P(LongWindowSweep, LpEnginesAgreeOnTiseRelaxation) {
  // P7 (differential): the sparse revised simplex and the dense-tableau
  // oracle must agree on the TISE relaxation across the whole sweep. Both
  // solve the same monolithic build_tise_lp model: same status, and at
  // optimality the same objective to LP tolerance. Vertex choice may
  // differ (degenerate optima), so values are not compared. (The split
  // solve_tise_lp objective may rise above the monolithic one, see P10.)
  const Instance instance = generate_long_window(to_params(GetParam()));
  const int m_prime = 3 * instance.machines;
  const LpModel model = build_tise_lp(instance, m_prime).model;
  const LpSolution dense = oracle::solve_lp_dense(model);
  const LpSolution revised = solve_lp(model);
  ASSERT_EQ(dense.status, revised.status);
  if (dense.status != LpStatus::kOptimal) return;
  EXPECT_NEAR(dense.objective, revised.objective, 1e-6);
  // The fractional solution the pipeline uses must cover every job's
  // processing demand.
  const TiseFractional split = solve_tise_lp(instance, m_prime);
  ASSERT_EQ(split.status, LpStatus::kOptimal);
  ASSERT_EQ(split.assignment.size(), instance.size());
  for (std::size_t j = 0; j < instance.size(); ++j) {
    double fraction = 0.0;
    for (const auto& [point, value] : split.assignment[j]) fraction += value;
    EXPECT_NEAR(fraction, 1.0, 1e-6) << "job " << j;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, LongWindowSweep, testing::ValuesIn(sweep_cases()),
                         case_name);

// P10: the block-decomposed TISE LP. Splitting into time-disjoint blocks
// solves each block on its own canonical points, a subset of the
// monolithic model's, so the objective can only rise — but never past the
// exact TISE optimum on m' machines (Lemma 3 per component, OPT additive
// over components), which keeps Theorem 12's chain intact.
std::vector<SweepCase> decomposition_cases() {
  std::vector<SweepCase> cases;
  for (std::uint64_t seed : {11, 22, 33, 44, 55, 66, 77, 88}) {
    for (const int n : {4, 6, 16}) {
      cases.push_back({seed, n, Time{4} + static_cast<Time>(seed % 3), 1});
    }
  }
  return cases;
}

class TiseDecompositionSweep : public testing::TestWithParam<SweepCase> {};

TEST_P(TiseDecompositionSweep, BetweenMonolithicLpAndExactTiseOptimum) {
  const SweepCase& c = GetParam();
  GenParams params = to_params(c);
  params.horizon = 3 * c.n * c.T;  // sparse enough to split into blocks
  const Instance instance = generate_long_window(params, 2, 3);
  const int m_prime = 3 * instance.machines;
  const TiseFractional split = solve_tise_lp(instance, m_prime);
  const LpSolution monolithic = solve_lp(build_tise_lp(instance, m_prime).model);
  ASSERT_EQ(split.status, LpStatus::kOptimal);
  ASSERT_EQ(monolithic.status, LpStatus::kOptimal);
  EXPECT_GE(split.objective, monolithic.objective - 1e-6);
  EXPECT_GT(split.components, 1);  // the sweep exercises the split
  if (c.n > 6) return;  // exact search stays cheap only for small n

  Instance trimmed = instance;
  trimmed.machines = m_prime;
  ExactIseOptions exact_options;
  exact_options.require_tise = true;
  const ExactIseResult exact = solve_exact_ise(trimmed, exact_options);
  ASSERT_TRUE(exact.solved && exact.feasible);
  EXPECT_LE(split.objective,
            static_cast<double>(exact.optimal_calibrations) + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Sweep, TiseDecompositionSweep,
                         testing::ValuesIn(decomposition_cases()), case_name);

class ShortWindowSweep : public testing::TestWithParam<SweepCase> {};

TEST_P(ShortWindowSweep, PipelineInvariants) {
  const Instance instance = generate_short_window(to_params(GetParam()));
  const GreedyEdfMM mm;
  const ShortWindowResult result = solve_short_window(instance, mm);
  ASSERT_TRUE(result.feasible) << result.error;
  // P1: verifier.
  const VerifyResult check = verify_ise(instance, result.schedule);
  EXPECT_TRUE(check.ok()) << check.to_string();
  // P5: Lemma 19 budget, summed over intervals.
  EXPECT_LE(result.telemetry.total_calibrations,
            static_cast<std::size_t>(8 * result.telemetry.sum_mm_machines));
  EXPECT_LE(result.telemetry.machines_allotted,
            6 * result.telemetry.max_mm_machines);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ShortWindowSweep, testing::ValuesIn(sweep_cases()),
                         case_name);

class MixedSweep : public testing::TestWithParam<SweepCase> {};

TEST_P(MixedSweep, EndToEndInvariants) {
  const Instance instance = generate_mixed(to_params(GetParam()), 0.5);
  const IseSolveResult result = solve_ise(instance);
  ASSERT_TRUE(result.feasible) << result.error;
  const VerifyResult check = verify_ise(instance, result.schedule);
  EXPECT_TRUE(check.ok()) << check.to_string();
  EXPECT_GE(static_cast<std::int64_t>(result.total_calibrations),
            calibration_lower_bound(instance));
  EXPECT_EQ(result.long_job_count + result.short_job_count, instance.size());
}

INSTANTIATE_TEST_SUITE_P(Sweep, MixedSweep, testing::ValuesIn(sweep_cases()),
                         case_name);

class UnitSweep : public testing::TestWithParam<SweepCase> {};

TEST_P(UnitSweep, UnitInstancesThroughBothPaths) {
  GenParams params = to_params(GetParam());
  const Instance instance = generate_unit(params, /*max_window=*/2 * params.T - 1);
  // All unit jobs here are short-window; run the full solver and the unit
  // MM box variant, both must verify.
  const IseSolveResult general = solve_ise(instance);
  ASSERT_TRUE(general.feasible) << general.error;
  EXPECT_TRUE(verify_ise(instance, general.schedule).ok());

  IseSolverOptions options;
  options.mm = std::make_shared<UnitEdfMM>();
  const IseSolveResult unit = solve_ise(instance, options);
  ASSERT_TRUE(unit.feasible) << unit.error;
  EXPECT_TRUE(verify_ise(instance, unit.schedule).ok());
}

INSTANTIATE_TEST_SUITE_P(Sweep, UnitSweep, testing::ValuesIn(sweep_cases()),
                         case_name);

class OptimizedSweep : public testing::TestWithParam<SweepCase> {};

TEST_P(OptimizedSweep, OptimizationsPreserveFeasibilityAndNeverCostMore) {
  const Instance instance = generate_mixed(to_params(GetParam()), 0.5);
  const IseSolveResult paper = solve_ise(instance);
  ASSERT_TRUE(paper.feasible) << paper.error;

  IseSolverOptions options;
  options.long_window.adaptive_mirror = true;
  options.long_window.prune_empty_calibrations = true;
  options.short_window.trim_unused_calibrations = true;
  const IseSolveResult optimized = solve_ise(instance, options);
  ASSERT_TRUE(optimized.feasible) << optimized.error;
  EXPECT_LE(optimized.total_calibrations, paper.total_calibrations);
  const VerifyResult check = verify_ise(instance, optimized.schedule);
  EXPECT_TRUE(check.ok()) << check.to_string();
  EXPECT_GE(static_cast<std::int64_t>(optimized.total_calibrations),
            calibration_lower_bound(instance));
}

INSTANTIATE_TEST_SUITE_P(Sweep, OptimizedSweep, testing::ValuesIn(sweep_cases()),
                         case_name);

class SpeedSweep : public testing::TestWithParam<SweepCase> {};

TEST_P(SpeedSweep, SpeedAugmentedShortPipeline) {
  const Instance instance = generate_short_window(to_params(GetParam()));
  const GreedyEdfMM base;
  const ShortWindowResult slow = solve_short_window(instance, base);
  ASSERT_TRUE(slow.feasible) << slow.error;
  const SpeedupMM fast_box(std::make_shared<GreedyEdfMM>(), 2);
  const ShortWindowResult fast = solve_short_window(instance, fast_box);
  ASSERT_TRUE(fast.feasible) << fast.error;
  // Faster machines never require more of them.
  EXPECT_LE(fast.telemetry.sum_mm_machines, slow.telemetry.sum_mm_machines);
  const VerifyResult check = verify_ise(instance, fast.schedule);
  EXPECT_TRUE(check.ok()) << check.to_string();
}

INSTANTIATE_TEST_SUITE_P(Sweep, SpeedSweep, testing::ValuesIn(sweep_cases()),
                         case_name);

class GridCollapseSweep : public testing::TestWithParam<SweepCase> {};

TEST_P(GridCollapseSweep, TypedGridsCollapseToLemma3OnUnitModel) {
  // P8: for an implicit-unit instance and for the same instance with the
  // explicit {T, 1, 0} table, typed_tise_calibration_points must have
  // exactly one per-type grid, equal to the classic tise grid — the
  // generalized machinery is a strict extension, not a reinterpretation.
  for (Instance instance :
       {generate_long_window(to_params(GetParam())),
        generate_mixed(to_params(GetParam()), 0.5)}) {
    const std::vector<Time> classic = tise_calibration_points(instance);
    for (int pass = 0; pass < 2; ++pass) {
      const auto typed = typed_tise_calibration_points(instance);
      ASSERT_EQ(typed.size(), 1u);
      EXPECT_EQ(typed[0], classic);
      // Second pass: the explicit one-type unit table.
      instance.cal = CalibrationModel::unit(instance.T);
    }
    // The canonical superset relation survives the generalization too.
    const auto all = canonical_calibration_points(instance);
    for (const Time t : classic) {
      EXPECT_TRUE(std::binary_search(all.begin(), all.end(), t));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, GridCollapseSweep,
                         testing::ValuesIn(sweep_cases()), case_name);

// ------------------------------------------------------------------ P9 --
//
// Ratio sweep against certified exact optima at n ~ 100..200. Random
// generator families are hopeless at these sizes for *any* exact engine
// (the job-subset lattice is unstructured), so the sweep uses wave
// instances — k waves of c identical jobs {w*gap, w*gap + W, p} — whose
// twin symmetry the state-space engine collapses to per-wave counts. The
// branch-and-bound oracle certifies these only up to n ~ 20; the layered
// engine reaches n = 200 in a few hundred thousand states (the >= 5x
// engine-size claim of DESIGN.md section 13, exercised as a test).

struct WaveCase {
  int k;         ///< waves
  int c;         ///< identical jobs per wave
  int machines;
  Time gap;      ///< wave-to-wave release spacing
  Time window;   ///< per-job window length
  Time proc;
  Time T;
};

std::string wave_case_name(const testing::TestParamInfo<WaveCase>& info) {
  const WaveCase& c = info.param;
  return "n" + std::to_string(c.k * c.c) + "_m" + std::to_string(c.machines);
}

Instance wave_instance(const WaveCase& c) {
  Instance instance;
  instance.T = c.T;
  instance.machines = c.machines;
  JobId id = 0;
  for (int w = 0; w < c.k; ++w) {
    for (int i = 0; i < c.c; ++i) {
      instance.jobs.push_back(
          {id++, w * c.gap, w * c.gap + c.window, c.proc});
    }
  }
  return instance;
}

std::vector<WaveCase> wave_cases() {
  // T = 6, p = 2, window 8: four jobs saturate one machine's wave, three
  // share one calibration, and adjacent waves (gap 10, so windows end 2
  // before the next release) admit boundary calibration sharing — the
  // optimum is genuinely below one-calibration-per-wave-slot.
  return {
      {25, 4, 1, 10, 8, 2, 6},  // n = 100
      {38, 4, 1, 10, 8, 2, 6},  // n = 152
      {50, 4, 1, 10, 8, 2, 6},  // n = 200
      {4, 6, 2, 12, 8, 2, 6},   // n = 24, two machines
  };
}

class ExactRatioSweep : public testing::TestWithParam<WaveCase> {};

TEST_P(ExactRatioSweep, PaperBoundsHoldAgainstCertifiedOptima) {
  const Instance instance = wave_instance(GetParam());
  ExactIseOptions options;
  options.node_budget = 20'000'000;
  options.max_calibrations = 999;  // trimmed by the greedy upper-bound hint
  const ExactIseResult exact = solve_exact_ise(instance, options);
  ASSERT_TRUE(exact.solved) << "state budget exhausted at n="
                            << instance.size();
  ASSERT_TRUE(exact.feasible);
  ASSERT_TRUE(verify_ise(instance, exact.schedule).ok());
  const auto opt = static_cast<std::int64_t>(exact.optimal_calibrations);

  // The combinatorial lower bound never exceeds the true optimum.
  EXPECT_GE(opt, calibration_lower_bound(instance));

  // Any feasible baseline upper-bounds the optimum. (The lazy greedy is
  // allowed to fail on tight instances — fully saturated single-machine
  // waves defeat it — and reports that honestly rather than feasibly.)
  const BaselineResult lazy = GreedyLazyIse().solve(instance);
  if (lazy.feasible) {
    EXPECT_GE(static_cast<std::int64_t>(lazy.schedule.num_calibrations()),
              opt);
  }

  // Theorem 20 with an exact MM box (alpha = 1, gamma = 2): the short-
  // window pipeline pays at most 16 * gamma * alpha * OPT calibrations.
  // Every wave job is short-window (window < 2T), so the pipeline applies
  // to the whole instance.
  const ExactMM exact_mm;
  const ShortWindowResult pipeline = solve_short_window(instance, exact_mm);
  ASSERT_TRUE(pipeline.feasible) << pipeline.error;
  ASSERT_TRUE(verify_ise(instance, pipeline.schedule).ok());
  const auto pipeline_cals =
      static_cast<std::int64_t>(pipeline.telemetry.total_calibrations);
  EXPECT_GE(pipeline_cals, opt);
  EXPECT_LE(pipeline_cals, 32 * opt);

  // The end-to-end solver can never beat a certified optimum.
  const IseSolveResult solved = solve_ise(instance);
  ASSERT_TRUE(solved.feasible) << solved.error;
  EXPECT_GE(static_cast<std::int64_t>(solved.total_calibrations), opt);
  EXPECT_LE(static_cast<std::int64_t>(solved.total_calibrations), 32 * opt);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ExactRatioSweep,
                         testing::ValuesIn(wave_cases()), wave_case_name);

}  // namespace
}  // namespace calisched
