// The dense two-phase tableau: the reference oracle for the revised
// simplex behind solve_lp. Every pivot re-eliminates the whole rows x cols
// tableau, so it shares no data structure with the engine it checks.
#include <algorithm>
#include <cmath>
#include <limits>

#include "oracle/oracle.hpp"
#include "trace/trace.hpp"

namespace calisched::oracle {
namespace {

/// Dense tableau state for one solve.
class Tableau {
 public:
  Tableau(const LpModel& model, const SimplexOptions& options)
      : options_(options),
        poller_(options.limits, /*stride=*/8),
        num_structural_(model.num_variables()) {
    build(model);
  }

  LpSolution solve() {
    LpSolution solution;
    trace_set(options_.trace, "tableau.rows", rows_);
    trace_set(options_.trace, "tableau.columns", cols_);
    // ---- Phase 1: minimize the sum of artificial variables. ----
    if (num_artificial_ > 0) {
      TraceSpan span(options_.trace, "phase1");
      const RunResult phase1 = run(costs1_, /*allow_artificial_entering=*/true,
                                   solution.phase1_pivots);
      span.stop();
      flush_pivot_counters(solution);
      if (phase1 == RunResult::kStopped) {
        solution.status = stop_status();
        return solution;
      }
      if (phase1 == RunResult::kIterationLimit) {
        solution.status = LpStatus::kIterationLimit;
        return solution;
      }
      // Phase-1 objective = -costs1_ rhs cell.
      if (-costs1_[rhs_col()] > options_.feasibility_tol) {
        solution.status = LpStatus::kInfeasible;
        return solution;
      }
      expel_artificials(solution.expel_pivots);
    }
    // ---- Phase 2: minimize the real objective. ----
    TraceSpan phase2_span(options_.trace, "phase2");
    const RunResult phase2 =
        run(costs2_, /*allow_artificial_entering=*/false, solution.phase2_pivots);
    phase2_span.stop();
    flush_pivot_counters(solution);
    switch (phase2) {
      case RunResult::kOptimal: solution.status = LpStatus::kOptimal; break;
      case RunResult::kUnbounded: solution.status = LpStatus::kUnbounded; return solution;
      case RunResult::kIterationLimit:
        solution.status = LpStatus::kIterationLimit;
        return solution;
      case RunResult::kStopped:
        solution.status = stop_status();
        return solution;
    }
    // ---- Extract structural values. ----
    solution.values.assign(static_cast<std::size_t>(num_structural_), 0.0);
    for (int r = 0; r < rows_; ++r) {
      const int col = basis_[static_cast<std::size_t>(r)];
      if (col < num_structural_) {
        solution.values[static_cast<std::size_t>(col)] =
            std::max(0.0, cell(r, rhs_col()));
      }
    }
    solution.objective = -costs2_[rhs_col()];
    return solution;
  }

 private:
  enum class RunResult { kOptimal, kUnbounded, kIterationLimit, kStopped };

  /// LpStatus for a kStopped run (deadline vs cancellation).
  [[nodiscard]] LpStatus stop_status() const noexcept {
    return poller_.status() == SolveStatus::kCancelled ? LpStatus::kCancelled
                                                       : LpStatus::kDeadlineExceeded;
  }

  [[nodiscard]] int rhs_col() const noexcept { return cols_ - 1; }

  [[nodiscard]] double& cell(int row, int col) noexcept {
    return data_[static_cast<std::size_t>(row) * static_cast<std::size_t>(cols_) +
                 static_cast<std::size_t>(col)];
  }
  [[nodiscard]] double cell(int row, int col) const noexcept {
    return data_[static_cast<std::size_t>(row) * static_cast<std::size_t>(cols_) +
                 static_cast<std::size_t>(col)];
  }

  void build(const LpModel& model) {
    rows_ = model.num_rows();
    // Column layout: [structural | slack+surplus | artificial | rhs].
    int num_slack = 0;
    int num_art = 0;
    for (int r = 0; r < rows_; ++r) {
      const double b = model.rhs(r);
      const RowSense sense = model.sense(r);
      // Effective sense after normalising rhs >= 0.
      const RowSense eff = (b >= 0) ? sense
                           : (sense == RowSense::kLe ? RowSense::kGe
                              : sense == RowSense::kGe ? RowSense::kLe
                                                       : RowSense::kEq);
      if (eff != RowSense::kEq) ++num_slack;
      if (eff != RowSense::kLe) ++num_art;
    }
    slack_base_ = num_structural_;
    artificial_base_ = slack_base_ + num_slack;
    num_artificial_ = num_art;
    cols_ = artificial_base_ + num_art + 1;
    data_.assign(static_cast<std::size_t>(rows_) * static_cast<std::size_t>(cols_),
                 0.0);
    basis_.assign(static_cast<std::size_t>(rows_), -1);

    int next_slack = slack_base_;
    int next_art = artificial_base_;
    for (int r = 0; r < rows_; ++r) {
      double b = model.rhs(r);
      RowSense sense = model.sense(r);
      double sign = 1.0;
      if (b < 0) {
        sign = -1.0;
        b = -b;
        sense = (sense == RowSense::kLe)   ? RowSense::kGe
                : (sense == RowSense::kGe) ? RowSense::kLe
                                           : RowSense::kEq;
      }
      for (const LpEntry& entry : model.row_entries(r)) {
        cell(r, entry.column) += sign * entry.value;
      }
      cell(r, rhs_col()) = b;
      switch (sense) {
        case RowSense::kLe:
          cell(r, next_slack) = 1.0;
          basis_[static_cast<std::size_t>(r)] = next_slack++;
          break;
        case RowSense::kGe:
          cell(r, next_slack++) = -1.0;
          cell(r, next_art) = 1.0;
          basis_[static_cast<std::size_t>(r)] = next_art++;
          break;
        case RowSense::kEq:
          cell(r, next_art) = 1.0;
          basis_[static_cast<std::size_t>(r)] = next_art++;
          break;
      }
    }

    // Phase-2 reduced-cost row: structural costs (initial basis has cost 0).
    costs2_.assign(static_cast<std::size_t>(cols_), 0.0);
    for (int c = 0; c < num_structural_; ++c) {
      costs2_[static_cast<std::size_t>(c)] = model.cost(c);
    }
    // Phase-1 reduced-cost row: cost 1 on artificials, reduced against the
    // initial basis (subtract each artificial-basic row).
    costs1_.assign(static_cast<std::size_t>(cols_), 0.0);
    for (int c = artificial_base_; c < cols_ - 1; ++c) {
      costs1_[static_cast<std::size_t>(c)] = 1.0;
    }
    for (int r = 0; r < rows_; ++r) {
      if (basis_[static_cast<std::size_t>(r)] >= artificial_base_) {
        for (int c = 0; c < cols_; ++c) {
          costs1_[static_cast<std::size_t>(c)] -= cell(r, c);
        }
      }
    }
  }

  /// One simplex phase over the given cost row. Updates both cost rows so
  /// that phase 2 starts from consistent reduced costs.
  RunResult run(std::vector<double>& active_costs, bool allow_artificial_entering,
                std::int64_t& pivot_count) {
    int stall = 0;
    double last_objective = std::numeric_limits<double>::infinity();
    bool bland = false;
    while (true) {
      if (pivot_count >= options_.max_pivots) return RunResult::kIterationLimit;
      if (poller_.poll() != SolveStatus::kOk) return RunResult::kStopped;
      const int entering = choose_entering(active_costs, allow_artificial_entering, bland);
      if (entering < 0) return RunResult::kOptimal;
      const int leaving = choose_leaving(entering, bland);
      if (leaving < 0) return RunResult::kUnbounded;
      pivot(leaving, entering);
      ++pivot_count;
      const double objective = -active_costs[static_cast<std::size_t>(rhs_col())];
      if (objective < last_objective - 1e-12) {
        stall = 0;
        last_objective = objective;
      } else if (!bland && ++stall >= options_.stall_before_bland) {
        bland = true;  // anti-cycling fallback
        ++bland_activations_;
      }
    }
  }

  [[nodiscard]] int choose_entering(const std::vector<double>& costs,
                                    bool allow_artificial, bool bland) const {
    const int limit = allow_artificial ? cols_ - 1 : artificial_base_;
    int best = -1;
    double best_cost = -options_.reduced_cost_tol;
    for (int c = 0; c < limit; ++c) {
      const double reduced = costs[static_cast<std::size_t>(c)];
      if (reduced < best_cost) {
        if (bland) return c;  // first eligible index
        best_cost = reduced;
        best = c;
      }
    }
    return best;
  }

  [[nodiscard]] int choose_leaving(int entering, bool bland) const {
    int best = -1;
    double best_ratio = std::numeric_limits<double>::infinity();
    for (int r = 0; r < rows_; ++r) {
      const double coef = cell(r, entering);
      if (coef <= options_.pivot_tol) continue;
      const double ratio = cell(r, rhs_col()) / coef;
      if (ratio < best_ratio - 1e-12) {
        best_ratio = ratio;
        best = r;
      } else if (best >= 0 && ratio < best_ratio + 1e-12 && bland &&
                 basis_[static_cast<std::size_t>(r)] <
                     basis_[static_cast<std::size_t>(best)]) {
        best = r;  // Bland tie-break: smallest basis index leaves
      }
    }
    return best;
  }

  void pivot(int pivot_row, int pivot_col) {
    double* prow = &cell(pivot_row, 0);
    const double inv = 1.0 / prow[pivot_col];
    for (int c = 0; c < cols_; ++c) prow[c] *= inv;
    prow[pivot_col] = 1.0;  // kill roundoff

    const auto eliminate_row = [&](double* row) {
      const double factor = row[pivot_col];
      if (factor == 0.0) return;
      for (int c = 0; c < cols_; ++c) row[c] -= factor * prow[c];
      row[pivot_col] = 0.0;
    };

    for (int r = 0; r < rows_; ++r) {
      if (r == pivot_row) continue;
      eliminate_row(&cell(r, 0));
    }
    ++serial_pivots_;
    eliminate_row(costs1_.data());
    eliminate_row(costs2_.data());
    basis_[static_cast<std::size_t>(pivot_row)] = pivot_col;
  }

  /// After phase 1, pivot remaining zero-valued artificial basics out on any
  /// nonzero non-artificial column; rows with no such column are redundant
  /// (all-zero) and harmless. Expel pivots are counted separately from the
  /// phase counts so that serial == phase1 + phase2 + expel.
  void expel_artificials(std::int64_t& expel_pivots) {
    for (int r = 0; r < rows_; ++r) {
      if (basis_[static_cast<std::size_t>(r)] < artificial_base_) continue;
      int pivot_col = -1;
      double best = options_.pivot_tol;
      for (int c = 0; c < artificial_base_; ++c) {
        const double magnitude = std::fabs(cell(r, c));
        if (magnitude > best) {
          best = magnitude;
          pivot_col = c;
        }
      }
      if (pivot_col >= 0) {
        pivot(r, pivot_col);
        ++expel_pivots;
      }
    }
  }

  /// Mirrors the cumulative pivot accounting into the trace sink; called
  /// after each phase so an iteration-limited solve still reports.
  void flush_pivot_counters(const LpSolution& solution) {
    TraceContext* trace = options_.trace;
    if (!trace) return;
    trace->set("pivots.phase1", solution.phase1_pivots);
    trace->set("pivots.phase2", solution.phase2_pivots);
    trace->set("pivots.expel", solution.expel_pivots);
    trace->set("pivots.serial", serial_pivots_);
    trace->set("bland.activations", bland_activations_);
  }

  SimplexOptions options_;
  LimitPoller poller_;
  std::int64_t serial_pivots_ = 0;
  std::int64_t bland_activations_ = 0;
  int num_structural_ = 0;
  int slack_base_ = 0;
  int artificial_base_ = 0;
  int num_artificial_ = 0;
  int rows_ = 0;
  int cols_ = 0;
  std::vector<double> data_;
  std::vector<double> costs1_;
  std::vector<double> costs2_;
  std::vector<int> basis_;
};

}  // namespace

LpSolution solve_lp_dense(const LpModel& model, const SimplexOptions& options) {
  Tableau tableau(model, options);
  return tableau.solve();
}

}  // namespace calisched::oracle
