// Tests for the two-phase simplex on textbook and randomized programs,
// differential tests between the dense tableau and the revised engine, and
// unit tests for the revised engine's presolve reductions.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "lp/revised_simplex.hpp"
#include "lp/simplex.hpp"
#include "oracle/oracle.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace calisched {
namespace {

/// The product solver and its dense-tableau oracle, for tests that run the
/// same program through both.
struct LpSolver {
  const char* name;
  LpSolution (*solve)(const LpModel&, const SimplexOptions&);
};

constexpr LpSolver kBothEngines[] = {{"dense", &oracle::solve_lp_dense},
                                     {"revised", &solve_lp}};

TEST(Simplex, SolvesTextbookMaximization) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  =>  opt 36 at (2, 6).
  // Expressed as minimization of -3x - 5y.
  LpModel model;
  const int x = model.add_variable("x", -3.0);
  const int y = model.add_variable("y", -5.0);
  int row = model.add_row("r1", RowSense::kLe, 4.0);
  model.add_coefficient(row, x, 1.0);
  row = model.add_row("r2", RowSense::kLe, 12.0);
  model.add_coefficient(row, y, 2.0);
  row = model.add_row("r3", RowSense::kLe, 18.0);
  model.add_coefficient(row, x, 3.0);
  model.add_coefficient(row, y, 2.0);

  const LpSolution solution = solve_lp(model);
  ASSERT_EQ(solution.status, LpStatus::kOptimal);
  EXPECT_NEAR(solution.objective, -36.0, 1e-6);
  EXPECT_NEAR(solution.values[x], 2.0, 1e-6);
  EXPECT_NEAR(solution.values[y], 6.0, 1e-6);
  EXPECT_LE(model.max_violation(solution.values), 1e-7);
}

TEST(Simplex, HandlesEqualityAndGe) {
  // min x + y s.t. x + y >= 2, x - y = 0  =>  opt 2 at (1,1).
  LpModel model;
  const int x = model.add_variable("x", 1.0);
  const int y = model.add_variable("y", 1.0);
  int row = model.add_row("ge", RowSense::kGe, 2.0);
  model.add_coefficient(row, x, 1.0);
  model.add_coefficient(row, y, 1.0);
  row = model.add_row("eq", RowSense::kEq, 0.0);
  model.add_coefficient(row, x, 1.0);
  model.add_coefficient(row, y, -1.0);

  const LpSolution solution = solve_lp(model);
  ASSERT_EQ(solution.status, LpStatus::kOptimal);
  EXPECT_NEAR(solution.objective, 2.0, 1e-6);
  EXPECT_NEAR(solution.values[x], 1.0, 1e-6);
  EXPECT_NEAR(solution.values[y], 1.0, 1e-6);
}

TEST(Simplex, DetectsInfeasible) {
  // x <= 1, x >= 2.
  LpModel model;
  const int x = model.add_variable("x", 1.0);
  int row = model.add_row("le", RowSense::kLe, 1.0);
  model.add_coefficient(row, x, 1.0);
  row = model.add_row("ge", RowSense::kGe, 2.0);
  model.add_coefficient(row, x, 1.0);
  EXPECT_EQ(solve_lp(model).status, LpStatus::kInfeasible);
}

TEST(Simplex, DetectsUnbounded) {
  // min -x s.t. x >= 1.
  LpModel model;
  const int x = model.add_variable("x", -1.0);
  const int row = model.add_row("ge", RowSense::kGe, 1.0);
  model.add_coefficient(row, x, 1.0);
  EXPECT_EQ(solve_lp(model).status, LpStatus::kUnbounded);
}

TEST(Simplex, NegativeRhsNormalization) {
  // min x s.t. -x <= -3 (i.e. x >= 3) => opt 3.
  LpModel model;
  const int x = model.add_variable("x", 1.0);
  const int row = model.add_row("neg", RowSense::kLe, -3.0);
  model.add_coefficient(row, x, -1.0);
  const LpSolution solution = solve_lp(model);
  ASSERT_EQ(solution.status, LpStatus::kOptimal);
  EXPECT_NEAR(solution.values[x], 3.0, 1e-6);
}

TEST(Simplex, DegenerateProgramTerminates) {
  // Classic degenerate corner: several redundant constraints through origin.
  LpModel model;
  const int x = model.add_variable("x", -1.0);
  const int y = model.add_variable("y", -1.0);
  for (int i = 0; i < 6; ++i) {
    const int row = model.add_row("deg" + std::to_string(i), RowSense::kLe,
                                  static_cast<double>(i < 3 ? 0 : 10));
    model.add_coefficient(row, x, 1.0 + i * 0.1);
    model.add_coefficient(row, y, -1.0);
  }
  const int cap = model.add_row("cap", RowSense::kLe, 5.0);
  model.add_coefficient(cap, x, 1.0);
  model.add_coefficient(cap, y, 1.0);
  const LpSolution solution = solve_lp(model);
  ASSERT_EQ(solution.status, LpStatus::kOptimal);
  EXPECT_LE(model.max_violation(solution.values), 1e-7);
}

TEST(Simplex, RedundantEqualityRows) {
  // x + y = 2 duplicated; min x.
  LpModel model;
  const int x = model.add_variable("x", 1.0);
  const int y = model.add_variable("y", 0.0);
  for (int i = 0; i < 2; ++i) {
    const int row = model.add_row("eq" + std::to_string(i), RowSense::kEq, 2.0);
    model.add_coefficient(row, x, 1.0);
    model.add_coefficient(row, y, 1.0);
  }
  const LpSolution solution = solve_lp(model);
  ASSERT_EQ(solution.status, LpStatus::kOptimal);
  EXPECT_NEAR(solution.objective, 0.0, 1e-6);
  EXPECT_NEAR(solution.values[y], 2.0, 1e-6);
}

TEST(Simplex, EmptyObjectiveFeasibilityProblem) {
  LpModel model;
  const int x = model.add_variable("x", 0.0);
  const int row = model.add_row("eq", RowSense::kEq, 7.0);
  model.add_coefficient(row, x, 1.0);
  const LpSolution solution = solve_lp(model);
  ASSERT_EQ(solution.status, LpStatus::kOptimal);
  EXPECT_NEAR(solution.values[x], 7.0, 1e-6);
}

TEST(Simplex, RandomProgramsAreFeasibleAtOptimum) {
  // Random bounded-feasible programs: x_i <= cap_i rows keep them bounded;
  // a >= row ensures phase 1 does real work.
  Rng rng(2024);
  for (int trial = 0; trial < 20; ++trial) {
    LpModel model;
    const int vars = 3 + static_cast<int>(rng.index(5));
    for (int v = 0; v < vars; ++v) {
      model.add_variable("v" + std::to_string(v),
                         rng.uniform_real(-2.0, 2.0));
    }
    for (int v = 0; v < vars; ++v) {
      const int row = model.add_row("cap" + std::to_string(v), RowSense::kLe,
                                    rng.uniform_real(1.0, 10.0));
      model.add_coefficient(row, v, 1.0);
    }
    const int ge = model.add_row("ge", RowSense::kGe, 0.5);
    for (int v = 0; v < vars; ++v) {
      model.add_coefficient(ge, v, rng.uniform_real(0.5, 2.0));
    }
    const LpSolution solution = solve_lp(model);
    ASSERT_EQ(solution.status, LpStatus::kOptimal) << "trial " << trial;
    EXPECT_LE(model.max_violation(solution.values), 1e-6) << "trial " << trial;
    EXPECT_NEAR(model.objective_value(solution.values), solution.objective,
                1e-6);
  }
}

TEST(Simplex, BealeCyclingExampleTerminatesOnBothEngines) {
  // Beale's classic cycling LP: Dantzig pricing with naive tie-breaking
  // cycles forever at the degenerate origin. With an aggressive stall
  // threshold the Bland fallback must engage and both engines reach the
  // optimum -0.05 at (1/25, 0, 1, 0).
  LpModel model;
  const int x1 = model.add_variable("x1", -0.75);
  const int x2 = model.add_variable("x2", 150.0);
  const int x3 = model.add_variable("x3", -0.02);
  const int x4 = model.add_variable("x4", 6.0);
  int row = model.add_row("r1", RowSense::kLe, 0.0);
  model.add_coefficient(row, x1, 0.25);
  model.add_coefficient(row, x2, -60.0);
  model.add_coefficient(row, x3, -0.04);
  model.add_coefficient(row, x4, 9.0);
  row = model.add_row("r2", RowSense::kLe, 0.0);
  model.add_coefficient(row, x1, 0.5);
  model.add_coefficient(row, x2, -90.0);
  model.add_coefficient(row, x3, -0.02);
  model.add_coefficient(row, x4, 3.0);
  row = model.add_row("r3", RowSense::kLe, 1.0);
  model.add_coefficient(row, x3, 1.0);

  for (const LpSolver& engine : kBothEngines) {
    TraceContext trace("lp");
    SimplexOptions options;
    options.stall_before_bland = 2;  // engage Bland almost immediately
    options.max_pivots = 10'000;     // a cycle would exhaust this
    options.trace = &trace;
    const LpSolution solution = engine.solve(model, options);
    ASSERT_EQ(solution.status, LpStatus::kOptimal) << engine.name;
    EXPECT_NEAR(solution.objective, -0.05, 1e-9) << engine.name;
    EXPECT_NEAR(solution.values[x1], 0.04, 1e-9) << engine.name;
    EXPECT_NEAR(solution.values[x2], 0.0, 1e-9) << engine.name;
    EXPECT_NEAR(solution.values[x3], 1.0, 1e-9) << engine.name;
    EXPECT_NEAR(solution.values[x4], 0.0, 1e-9) << engine.name;
  }
}

TEST(Simplex, HeavilyDegenerateProgramUsesBlandFallback) {
  // Many hyperplanes through the same degenerate vertex plus a stall
  // threshold of 1: any non-improving pivot flips the solver to Bland's
  // rule, which must still reach the optimum on both engines.
  LpModel model;
  const int x = model.add_variable("x", -1.0);
  const int y = model.add_variable("y", -1.0);
  const int z = model.add_variable("z", -1.0);
  for (int i = 0; i < 10; ++i) {
    const int row = model.add_row("deg" + std::to_string(i), RowSense::kLe, 0.0);
    model.add_coefficient(row, x, 1.0 + 0.05 * i);
    model.add_coefficient(row, y, -1.0 - 0.03 * i);
    model.add_coefficient(row, z, i % 2 == 0 ? 0.5 : -0.5);
  }
  const int cap = model.add_row("cap", RowSense::kLe, 6.0);
  model.add_coefficient(cap, x, 1.0);
  model.add_coefficient(cap, y, 1.0);
  model.add_coefficient(cap, z, 1.0);

  double objectives[2] = {0.0, 0.0};
  int index = 0;
  for (const LpSolver& engine : kBothEngines) {
    SimplexOptions options;
    options.stall_before_bland = 1;
    const LpSolution solution = engine.solve(model, options);
    ASSERT_EQ(solution.status, LpStatus::kOptimal) << engine.name;
    EXPECT_LE(model.max_violation(solution.values), 1e-7)
        << engine.name;
    objectives[index++] = solution.objective;
  }
  EXPECT_NEAR(objectives[0], objectives[1], 1e-9);
}

TEST(Simplex, EnginesAgreeOnRandomBoundedPrograms) {
  // Differential property test: on random bounded-feasible programs the
  // revised engine must reproduce the dense oracle's optimum (values may
  // differ at degenerate optima; objective and feasibility may not).
  Rng rng(90210);
  for (int trial = 0; trial < 40; ++trial) {
    LpModel model;
    const int vars = 3 + static_cast<int>(rng.index(8));
    for (int v = 0; v < vars; ++v) {
      model.add_variable("v" + std::to_string(v), rng.uniform_real(-2.0, 2.0));
    }
    for (int v = 0; v < vars; ++v) {
      const int row = model.add_row("cap" + std::to_string(v), RowSense::kLe,
                                    rng.uniform_real(1.0, 10.0));
      model.add_coefficient(row, v, 1.0);
    }
    const int mixes = 1 + static_cast<int>(rng.index(4));
    for (int r = 0; r < mixes; ++r) {
      const int row = model.add_row("mix" + std::to_string(r),
                                    r % 2 == 0 ? RowSense::kGe : RowSense::kLe,
                                    rng.uniform_real(0.2, 2.0));
      for (int v = 0; v < vars; ++v) {
        if (rng.index(3) == 0) continue;  // keep the rows sparse-ish
        model.add_coefficient(row, v, rng.uniform_real(0.1, 1.5));
      }
    }
    const LpSolution dense = oracle::solve_lp_dense(model);
    const LpSolution revised = solve_lp(model);
    ASSERT_EQ(dense.status, revised.status) << "trial " << trial;
    if (dense.status != LpStatus::kOptimal) continue;
    EXPECT_NEAR(dense.objective, revised.objective, 1e-6) << "trial " << trial;
    EXPECT_LE(model.max_violation(revised.values), 1e-6) << "trial " << trial;
    EXPECT_NEAR(model.objective_value(revised.values), revised.objective, 1e-6)
        << "trial " << trial;
  }
}

TEST(Simplex, EnginesAgreeOnInfeasibleAndUnbounded) {
  LpModel infeasible;
  const int x = infeasible.add_variable("x", 1.0);
  int row = infeasible.add_row("le", RowSense::kLe, 1.0);
  infeasible.add_coefficient(row, x, 1.0);
  row = infeasible.add_row("ge", RowSense::kGe, 2.0);
  infeasible.add_coefficient(row, x, 1.0);

  LpModel unbounded;
  const int u = unbounded.add_variable("u", -1.0);
  row = unbounded.add_row("ge", RowSense::kGe, 1.0);
  unbounded.add_coefficient(row, u, 1.0);

  for (const LpSolver& engine : kBothEngines) {
    EXPECT_EQ(engine.solve(infeasible, {}).status, LpStatus::kInfeasible)
        << engine.name;
    EXPECT_EQ(engine.solve(unbounded, {}).status, LpStatus::kUnbounded)
        << engine.name;
  }
}

TEST(Presolve, DropsEmptyAndDuplicateRows) {
  LpModel model;
  const int x = model.add_variable("x", 1.0);
  const int y = model.add_variable("y", 2.0);
  int row = model.add_row("empty", RowSense::kLe, 5.0);  // no coefficients
  for (int i = 0; i < 2; ++i) {
    row = model.add_row("dup" + std::to_string(i), RowSense::kLe,
                        i == 0 ? 4.0 : 3.0);
    model.add_coefficient(row, x, 1.0);
    model.add_coefficient(row, y, 1.0);
  }
  const PresolvedLp presolved = presolve_lp(model, SimplexOptions{});
  EXPECT_FALSE(presolved.summary.infeasible);
  // The empty row and the looser duplicate (rhs 4) both go; the binding
  // copy (rhs 3) survives.
  EXPECT_EQ(presolved.summary.rows_dropped, 2);
  ASSERT_EQ(presolved.model.num_rows(), 1);
  EXPECT_NEAR(presolved.model.rhs(0), 3.0, 1e-12);
}

TEST(Presolve, FixesSingletonEqualityChains) {
  // x = 3 pins x; substituting makes "x + y = 5" a singleton pinning y.
  LpModel model;
  const int x = model.add_variable("x", 2.0);
  const int y = model.add_variable("y", 1.0);
  int row = model.add_row("fix_x", RowSense::kEq, 3.0);
  model.add_coefficient(row, x, 1.0);
  row = model.add_row("sum", RowSense::kEq, 5.0);
  model.add_coefficient(row, x, 1.0);
  model.add_coefficient(row, y, 1.0);
  const PresolvedLp presolved = presolve_lp(model, SimplexOptions{});
  EXPECT_FALSE(presolved.summary.infeasible);
  EXPECT_EQ(presolved.summary.cols_fixed, 2);
  EXPECT_EQ(presolved.summary.rows_dropped, 2);
  EXPECT_EQ(presolved.column_map[static_cast<std::size_t>(x)], -1);
  EXPECT_EQ(presolved.column_map[static_cast<std::size_t>(y)], -1);
  EXPECT_NEAR(presolved.fixed_values[static_cast<std::size_t>(x)], 3.0, 1e-12);
  EXPECT_NEAR(presolved.fixed_values[static_cast<std::size_t>(y)], 2.0, 1e-12);
  // Objective offset carries the fixed variables' cost: 2*3 + 1*2.
  EXPECT_NEAR(presolved.summary.objective_offset, 8.0, 1e-12);
  // The full solve must agree with the hand computation.
  const LpSolution solution = solve_lp(model);
  ASSERT_EQ(solution.status, LpStatus::kOptimal);
  EXPECT_NEAR(solution.objective, 8.0, 1e-9);
  EXPECT_NEAR(solution.values[x], 3.0, 1e-9);
  EXPECT_NEAR(solution.values[y], 2.0, 1e-9);
}

TEST(Presolve, DetectsInfeasibilityFromEmptyAndConflictingRows) {
  // After fixing x = 1, the row "x <= 0" becomes an unsatisfiable empty row.
  LpModel model;
  const int x = model.add_variable("x", 0.0);
  int row = model.add_row("fix", RowSense::kEq, 1.0);
  model.add_coefficient(row, x, 1.0);
  row = model.add_row("cap", RowSense::kLe, 0.0);
  model.add_coefficient(row, x, 1.0);
  const PresolvedLp presolved = presolve_lp(model, SimplexOptions{});
  EXPECT_TRUE(presolved.summary.infeasible);
  EXPECT_EQ(solve_lp(model).status, LpStatus::kInfeasible);
}

TEST(Presolve, EmptyColumnWithNegativeCostFlagsUnbounded) {
  // y appears in no row; cost -1 means y -> +inf drives the objective to
  // -inf once the rest is feasible.
  LpModel model;
  const int x = model.add_variable("x", 1.0);
  model.add_variable("y", -1.0);
  const int row = model.add_row("cap", RowSense::kLe, 4.0);
  model.add_coefficient(row, x, 1.0);
  const PresolvedLp presolved = presolve_lp(model, SimplexOptions{});
  EXPECT_TRUE(presolved.summary.unbounded_if_feasible);
  EXPECT_EQ(solve_lp(model).status, LpStatus::kUnbounded);
}

TEST(Presolve, NormalizesNegativeRhs) {
  // -x <= -3 must arrive at the engine as x >= 3 with rhs +3.
  LpModel model;
  const int x = model.add_variable("x", 1.0);
  const int row = model.add_row("neg", RowSense::kLe, -3.0);
  model.add_coefficient(row, x, -1.0);
  const PresolvedLp presolved = presolve_lp(model, SimplexOptions{});
  EXPECT_EQ(presolved.summary.rows_normalized, 1);
  ASSERT_EQ(presolved.model.num_rows(), 1);
  EXPECT_NEAR(presolved.model.rhs(0), 3.0, 1e-12);
  EXPECT_EQ(presolved.model.sense(0), RowSense::kGe);
}

TEST(Simplex, IterationLimitReported) {
  LpModel model;
  const int x = model.add_variable("x", -1.0);
  const int y = model.add_variable("y", -2.0);
  for (int i = 0; i < 4; ++i) {
    const int row =
        model.add_row("r" + std::to_string(i), RowSense::kLe, 10.0 + i);
    model.add_coefficient(row, x, 1.0 + 0.3 * i);
    model.add_coefficient(row, y, 2.0 - 0.3 * i);
  }
  SimplexOptions options;
  options.max_pivots = 1;
  const LpSolution solution = solve_lp(model, options);
  EXPECT_EQ(solution.status, LpStatus::kIterationLimit);
}

// Random bounded-feasible program in the style of
// EnginesAgreeOnRandomBoundedPrograms: per-variable caps keep it bounded,
// the >= mix rows force Phase 1 work.
LpModel make_random_bounded_program(Rng& rng) {
  LpModel model;
  const int vars = 3 + static_cast<int>(rng.index(8));
  for (int v = 0; v < vars; ++v) {
    model.add_variable("v" + std::to_string(v), rng.uniform_real(-2.0, 2.0));
  }
  for (int v = 0; v < vars; ++v) {
    const int row = model.add_row("cap" + std::to_string(v), RowSense::kLe,
                                  rng.uniform_real(1.0, 10.0));
    model.add_coefficient(row, v, 1.0);
  }
  const int mixes = 1 + static_cast<int>(rng.index(4));
  for (int r = 0; r < mixes; ++r) {
    const int row = model.add_row("mix" + std::to_string(r),
                                  r % 2 == 0 ? RowSense::kGe : RowSense::kLe,
                                  rng.uniform_real(0.2, 2.0));
    for (int v = 0; v < vars; ++v) {
      if (rng.index(3) == 0) continue;
      model.add_coefficient(row, v, rng.uniform_real(0.1, 1.5));
    }
  }
  return model;
}

TEST(Simplex, WarmStartSkipsPhase1OnResolveAndAgreesWithDense) {
  Rng rng(777);
  for (int trial = 0; trial < 20; ++trial) {
    const LpModel model = make_random_bounded_program(rng);
    const LpSolution dense = oracle::solve_lp_dense(model);

    WarmStart warm;
    SimplexWorkspace workspace;
    SimplexOptions options;
    options.warm_start = &warm;
    options.workspace = &workspace;
    const LpSolution cold = solve_lp(model, options);
    ASSERT_EQ(cold.status, dense.status) << "trial " << trial;
    EXPECT_FALSE(cold.warm_started) << "trial " << trial;
    if (cold.status != LpStatus::kOptimal) continue;
    ASSERT_TRUE(warm.valid) << "trial " << trial;

    // Re-solving the same model with the exported basis must skip Phase 1
    // (and the artificial expulsion) entirely and land on the same optimum.
    const LpSolution resolved = solve_lp(model, options);
    ASSERT_EQ(resolved.status, LpStatus::kOptimal) << "trial " << trial;
    EXPECT_TRUE(resolved.warm_started) << "trial " << trial;
    EXPECT_EQ(resolved.phase1_pivots, 0) << "trial " << trial;
    EXPECT_EQ(resolved.expel_pivots, 0) << "trial " << trial;
    EXPECT_NEAR(resolved.objective, dense.objective, 1e-6) << "trial " << trial;
    EXPECT_LE(model.max_violation(resolved.values), 1e-6) << "trial " << trial;
  }
}

TEST(Simplex, WarmChainedRhsSweepMatchesDenseOracle) {
  // The mm-feasibility use case: one LP shape re-solved while a capacity
  // rhs tightens step by step (the m'-descending TISE sweep). Chaining one
  // WarmStart + SimplexWorkspace through the sweep must agree with the
  // dense oracle at every step, whether a given basis transfers or not.
  WarmStart warm;
  SimplexWorkspace workspace;
  int accepted = 0;
  for (int capacity = 12; capacity >= 4; --capacity) {
    LpModel model;
    std::vector<int> vars;
    for (int v = 0; v < 5; ++v) {
      vars.push_back(
          model.add_variable("x" + std::to_string(v), -(1.0 + 0.3 * v)));
    }
    const int shared =
        model.add_row("capacity", RowSense::kLe, static_cast<double>(capacity));
    for (int v = 0; v < 5; ++v) {
      model.add_coefficient(shared, vars[static_cast<std::size_t>(v)], 1.0);
      const int cap = model.add_row("cap" + std::to_string(v), RowSense::kLe,
                                    3.0 + v);
      model.add_coefficient(cap, vars[static_cast<std::size_t>(v)], 1.0);
    }
    const int floor_row = model.add_row("floor", RowSense::kGe, 1.0);
    model.add_coefficient(floor_row, vars[0], 1.0);
    model.add_coefficient(floor_row, vars[1], 1.0);

    const LpSolution dense = oracle::solve_lp_dense(model);
    SimplexOptions options;
    options.warm_start = &warm;
    options.workspace = &workspace;
    const LpSolution solved = solve_lp(model, options);
    ASSERT_EQ(solved.status, LpStatus::kOptimal) << "capacity " << capacity;
    ASSERT_EQ(dense.status, LpStatus::kOptimal) << "capacity " << capacity;
    EXPECT_NEAR(solved.objective, dense.objective, 1e-6)
        << "capacity " << capacity;
    if (solved.warm_started) {
      ++accepted;
      EXPECT_EQ(solved.phase1_pivots, 0) << "capacity " << capacity;
    }
  }
  // The basis transfers across at least some of the gentle rhs steps.
  EXPECT_GE(accepted, 1);
}

TEST(Simplex, CorruptWarmStartIsRejectedAndSolveStaysCorrect) {
  Rng rng(31337);
  const LpModel model = make_random_bounded_program(rng);
  const LpSolution dense = oracle::solve_lp_dense(model);
  ASSERT_EQ(dense.status, LpStatus::kOptimal);

  WarmStart warm;
  SimplexOptions options;
  options.warm_start = &warm;
  ASSERT_EQ(solve_lp(model, options).status, LpStatus::kOptimal);
  ASSERT_TRUE(warm.valid);
  ASSERT_GE(warm.basis.size(), 2u);

  // A duplicated basis column can never factorize; the engine must fall
  // back to the cold path and still reach the oracle's optimum.
  std::fill(warm.basis.begin(), warm.basis.end(), warm.basis[0]);
  const LpSolution solved = solve_lp(model, options);
  ASSERT_EQ(solved.status, LpStatus::kOptimal);
  EXPECT_FALSE(solved.warm_started);
  EXPECT_NEAR(solved.objective, dense.objective, 1e-6);
  // The corrupt basis was replaced by a freshly exported usable one.
  EXPECT_TRUE(warm.valid);
  const LpSolution resolved = solve_lp(model, options);
  EXPECT_TRUE(resolved.warm_started);
  EXPECT_NEAR(resolved.objective, dense.objective, 1e-6);
}

TEST(Simplex, WarmWorkspaceSolvesAreBitIdenticalToCold) {
  // Stronger than the tolerance-based reuse test below: the options doc
  // promises results are *bit-identical* whichever workspace a solve runs
  // in. Solve each program cold (fresh arena) and warm (one arena already
  // grown by earlier, differently-shaped programs) and require the exact
  // same bytes — values, objective, and pivot counts. Any kernel that
  // read stale arena state would show up here as a ULP-level diff.
  Rng rng(90210);
  SimplexWorkspace warm_arena;
  for (int trial = 0; trial < 12; ++trial) {
    const LpModel model = make_random_bounded_program(rng);
    SimplexOptions cold_options;
    SimplexWorkspace cold_arena;
    cold_options.workspace = &cold_arena;
    SimplexOptions warm_options;
    warm_options.workspace = &warm_arena;
    const LpSolution cold = solve_lp(model, cold_options);
    const LpSolution warm = solve_lp(model, warm_options);
    ASSERT_EQ(cold.status, warm.status) << "trial " << trial;
    EXPECT_EQ(cold.objective, warm.objective) << "trial " << trial;
    EXPECT_EQ(cold.phase1_pivots, warm.phase1_pivots) << "trial " << trial;
    EXPECT_EQ(cold.phase2_pivots, warm.phase2_pivots) << "trial " << trial;
    EXPECT_EQ(cold.expel_pivots, warm.expel_pivots) << "trial " << trial;
    ASSERT_EQ(cold.values.size(), warm.values.size()) << "trial " << trial;
    for (std::size_t v = 0; v < cold.values.size(); ++v) {
      EXPECT_EQ(cold.values[v], warm.values[v])
          << "trial " << trial << " variable " << v;
    }
  }
}

TEST(Simplex, PerfCountersProveWarmArenaStopsAllocating) {
  // The allocation story the ASan CI job asserts via bench_pivot_kernels,
  // pinned at unit level: re-solving one model in one arena must count a
  // workspace reuse per solve and zero buffer growths after the first.
  Rng rng(1029);
  const LpModel model = make_random_bounded_program(rng);
  SimplexWorkspace arena;
  SimplexOptions options;
  options.workspace = &arena;
  ASSERT_EQ(solve_lp(model, options).status, LpStatus::kOptimal);  // warmup

  TraceContext trace("simplex");
  options.trace = &trace;
  constexpr int kReps = 4;
  for (int rep = 0; rep < kReps; ++rep) {
    ASSERT_EQ(solve_lp(model, options).status, LpStatus::kOptimal);
  }
  EXPECT_EQ(trace.counter("solves"), kReps);
  EXPECT_EQ(trace.counter("workspace.reused"), kReps);
  EXPECT_EQ(trace.counter("workspace.grown"), 0);
  EXPECT_GT(trace.counter("pivots.phase1") + trace.counter("pivots.phase2") +
                trace.counter("pivots.expel"),
            0);
  EXPECT_GT(trace.counter("eta.applied"), 0);
}

TEST(Simplex, SharedTraceSumsSequentialSolves) {
  // One trace handed to two sequential solves reports exactly the sum of
  // the work the same two solves report into separate traces.
  Rng rng(77);
  const LpModel first = make_random_bounded_program(rng);
  const LpModel second = make_random_bounded_program(rng);
  const auto solve_into = [](const LpModel& model, TraceContext& trace) {
    SimplexWorkspace arena;  // cold arena per solve: identical work each time
    SimplexOptions options;
    options.workspace = &arena;
    options.trace = &trace;
    ASSERT_EQ(solve_lp(model, options).status, LpStatus::kOptimal);
  };
  TraceContext shared("simplex");
  TraceContext alone_first("simplex");
  TraceContext alone_second("simplex");
  solve_into(first, shared);
  solve_into(second, shared);
  solve_into(first, alone_first);
  solve_into(second, alone_second);
  ASSERT_EQ(shared.counter("solves"), 2);
  for (const char* key :
       {"solves", "pivots.phase1", "pivots.phase2", "pivots.expel",
        "refactor.count", "eta.applied", "eta.entries", "pricing.columns",
        "pricing.entries", "workspace.reused", "workspace.grown"}) {
    EXPECT_EQ(shared.counter(key),
              alone_first.counter(key) + alone_second.counter(key))
        << key;
  }
  EXPECT_GT(shared.counter("pricing.entries"), 0);
}

TEST(Simplex, WorkspaceReuseAcrossShapesMatchesFreshSolves) {
  // One workspace carried across programs of different sizes must behave
  // exactly like a fresh engine every time (build() resets all state), down
  // to identical pivot counts — the engine is deterministic.
  Rng rng(4242);
  SimplexWorkspace workspace;
  for (int trial = 0; trial < 12; ++trial) {
    const LpModel model = make_random_bounded_program(rng);
    SimplexOptions reused;
    reused.workspace = &workspace;
    const LpSolution fresh = solve_lp(model);
    const LpSolution shared = solve_lp(model, reused);
    ASSERT_EQ(fresh.status, shared.status) << "trial " << trial;
    if (fresh.status != LpStatus::kOptimal) continue;
    EXPECT_NEAR(fresh.objective, shared.objective, 1e-9) << "trial " << trial;
    EXPECT_EQ(fresh.phase1_pivots, shared.phase1_pivots) << "trial " << trial;
    EXPECT_EQ(fresh.phase2_pivots, shared.phase2_pivots) << "trial " << trial;
    EXPECT_EQ(fresh.expel_pivots, shared.expel_pivots) << "trial " << trial;
  }
}

}  // namespace
}  // namespace calisched
