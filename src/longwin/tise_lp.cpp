#include "longwin/tise_lp.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <string>

#include "trace/trace.hpp"

namespace calisched {

TiseLpModel build_tise_lp(const Instance& instance, int m_prime) {
  assert(m_prime >= 1);
  TiseLpModel built;
  built.points = tise_calibration_points(instance);
  const auto num_points = static_cast<int>(built.points.size());
  LpModel& lp = built.model;

  // --- variables -----------------------------------------------------------
  built.calibration_column.reserve(built.points.size());
  for (int p = 0; p < num_points; ++p) {
    built.calibration_column.push_back(
        lp.add_variable("C@" + std::to_string(built.points[p]), /*cost=*/1.0));
  }
  built.assignment_columns.resize(instance.size());
  for (std::size_t j = 0; j < instance.size(); ++j) {
    const Job& job = instance.jobs[j];
    for (int p = 0; p < num_points; ++p) {
      const Time t = built.points[p];
      if (job.release <= t && t <= job.deadline - instance.T) {
        const int column = lp.add_variable(
            "X@j" + std::to_string(job.id) + "t" + std::to_string(t),
            /*cost=*/0.0);
        built.assignment_columns[j].emplace_back(p, column);
      }
    }
    // A long job always has at least one feasible point (its own release).
    assert(!built.assignment_columns[j].empty());
  }

  // --- (1) sliding-window machine capacity ---------------------------------
  for (int p = 0; p < num_points; ++p) {
    const Time window_start = built.points[p];
    const int row = lp.add_row("cap@" + std::to_string(window_start),
                               RowSense::kLe, static_cast<double>(m_prime));
    for (int q = p; q < num_points && built.points[q] < window_start + instance.T;
         ++q) {
      lp.add_coefficient(row, built.calibration_column[q], 1.0);
    }
  }

  // --- (3) per-point work capacity (filled below alongside (2)) ------------
  std::vector<int> work_rows(static_cast<std::size_t>(num_points));
  for (int p = 0; p < num_points; ++p) {
    const int row = lp.add_row("work@" + std::to_string(built.points[p]),
                               RowSense::kLe, 0.0);
    lp.add_coefficient(row, built.calibration_column[p],
                       -static_cast<double>(instance.T));
    work_rows[static_cast<std::size_t>(p)] = row;
  }

  // --- (2) X_jt <= C_t and (4) coverage ------------------------------------
  for (std::size_t j = 0; j < instance.size(); ++j) {
    const Job& job = instance.jobs[j];
    const int coverage_row =
        lp.add_row("cover@j" + std::to_string(job.id), RowSense::kEq, 1.0);
    for (const auto& [point, column] : built.assignment_columns[j]) {
      const int pair_row = lp.add_row(
          "pair@j" + std::to_string(job.id) + "t" +
              std::to_string(built.points[point]),
          RowSense::kLe, 0.0);
      lp.add_coefficient(pair_row, column, 1.0);
      lp.add_coefficient(pair_row, built.calibration_column[point], -1.0);
      lp.add_coefficient(work_rows[static_cast<std::size_t>(point)], column,
                         static_cast<double>(job.proc));
      lp.add_coefficient(coverage_row, column, 1.0);
    }
  }
  return built;
}

namespace {

/// Builds and solves the LP of `instance` as one block.
TiseFractional solve_block(const Instance& instance, int m_prime,
                           const SimplexOptions& options) {
  TiseFractional result;
  TiseLpModel built = build_tise_lp(instance, m_prime);
  const LpSolution solution = solve_lp(built.model, options);
  result.status = solution.status;
  result.points = std::move(built.points);
  result.pivots = solution.phase1_pivots + solution.phase2_pivots;
  result.lp_rows = built.model.num_rows();
  result.lp_columns = built.model.num_variables();
  result.components = 1;
  result.largest_component_jobs = static_cast<int>(instance.size());
  if (solution.status != LpStatus::kOptimal) return result;
  result.objective = solution.objective;
  result.calibration_mass.reserve(result.points.size());
  for (const int column : built.calibration_column) {
    result.calibration_mass.push_back(
        solution.values[static_cast<std::size_t>(column)]);
  }
  result.assignment.resize(instance.size());
  constexpr double kKeep = 1e-9;
  for (std::size_t j = 0; j < instance.size(); ++j) {
    for (const auto& [point, column] : built.assignment_columns[j]) {
      const double value = solution.values[static_cast<std::size_t>(column)];
      if (value > kKeep) result.assignment[j].emplace_back(point, value);
    }
  }
  return result;
}

/// Job indices (instance order) grouped into time-disjoint components:
/// jobs sorted by release, and a new component starts at the first job
/// whose release is >= the running maximum deadline of the current one.
/// Components come out in time order, indices ascending within each.
std::vector<std::vector<std::size_t>> time_disjoint_components(
    const Instance& instance) {
  std::vector<std::size_t> order(instance.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return instance.jobs[a].release < instance.jobs[b].release;
                   });
  std::vector<std::vector<std::size_t>> components;
  Time reach = 0;
  for (const std::size_t j : order) {
    const Job& job = instance.jobs[j];
    if (components.empty() || job.release >= reach) {
      components.emplace_back();
      reach = job.deadline;
    }
    components.back().push_back(j);
    reach = std::max(reach, job.deadline);
  }
  for (auto& component : components) {
    std::sort(component.begin(), component.end());
  }
  return components;
}

}  // namespace

TiseFractional solve_tise_lp(const Instance& instance, int m_prime,
                             const SimplexOptions& options) {
  TiseFractional result;
  if (instance.empty()) {
    result.status = LpStatus::kOptimal;
    return result;
  }
  const auto components = time_disjoint_components(instance);
  if (components.size() == 1) return solve_block(instance, m_prime, options);

  // Block-diagonal case: solve each time-disjoint block on its own
  // canonical points and stitch the blocks back together in time order.
  result.components = static_cast<int>(components.size());
  result.assignment.resize(instance.size());
  Instance block;
  block.machines = instance.machines;
  block.T = instance.T;
  block.cal = instance.cal;
  for (const auto& component : components) {
    block.jobs.clear();
    for (const std::size_t j : component) block.jobs.push_back(instance.jobs[j]);
    result.largest_component_jobs = std::max(
        result.largest_component_jobs, static_cast<int>(component.size()));

    // Pivot cap and limits are whole-solve budgets.
    SimplexOptions block_options = options;
    block_options.max_pivots = std::max<std::int64_t>(
        options.max_pivots - result.pivots, 0);
    TraceContext scratch("simplex");
    block_options.trace = options.trace ? &scratch : nullptr;
    TiseFractional solved = solve_block(block, m_prime, block_options);
    if (options.trace) options.trace->absorb(scratch);

    result.pivots += solved.pivots;
    result.lp_rows += solved.lp_rows;
    result.lp_columns += solved.lp_columns;
    if (solved.status != LpStatus::kOptimal) {
      // No partial solution: only the status and work counters survive.
      result.status = solved.status;
      result.objective = 0.0;
      result.points.clear();
      result.calibration_mass.clear();
      result.assignment.clear();
      return result;
    }
    const auto offset = static_cast<int>(result.points.size());
    result.objective += solved.objective;
    result.points.insert(result.points.end(), solved.points.begin(),
                         solved.points.end());
    result.calibration_mass.insert(result.calibration_mass.end(),
                                   solved.calibration_mass.begin(),
                                   solved.calibration_mass.end());
    for (std::size_t k = 0; k < component.size(); ++k) {
      auto& assignment = result.assignment[component[k]];
      for (const auto& [point, value] : solved.assignment[k]) {
        assignment.emplace_back(point + offset, value);
      }
    }
  }
  result.status = LpStatus::kOptimal;
  return result;
}

}  // namespace calisched
