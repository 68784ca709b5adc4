#include "lp/revised_simplex.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "lp/sparse.hpp"
#include "trace/trace.hpp"

namespace calisched {
namespace {

std::uint64_t value_bits(double value) {
  std::uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

/// splitmix64-style finalizer for the duplicate-row hash.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

PresolvedLp presolve_lp(const LpModel& model, const SimplexOptions& options) {
  const int rows = model.num_rows();
  const int cols = model.num_variables();
  const double tol = options.feasibility_tol;
  PresolvedLp out;
  out.column_map.assign(static_cast<std::size_t>(cols), -1);
  out.fixed_values.assign(static_cast<std::size_t>(cols), 0.0);
  std::vector<char> fixed(static_cast<std::size_t>(cols), 0);
  std::vector<char> dropped(static_cast<std::size_t>(rows), 0);
  PresolveSummary& summary = out.summary;

  /// Rhs of `row` after substituting every fixed variable.
  const auto adjusted_rhs = [&](int row) {
    double b = model.rhs(row);
    for (const LpEntry& entry : model.row_entries(row)) {
      if (fixed[static_cast<std::size_t>(entry.column)]) {
        b -= entry.value * out.fixed_values[static_cast<std::size_t>(entry.column)];
      }
    }
    return b;
  };
  /// True iff "0 (sense) b" holds, i.e. an empty row is satisfiable.
  const auto empty_row_ok = [&](RowSense sense, double b) {
    switch (sense) {
      case RowSense::kLe: return b >= -tol;
      case RowSense::kGe: return b <= tol;
      case RowSense::kEq: return std::fabs(b) <= tol;
    }
    return false;
  };

  if (options.presolve) {
    // --- iterate empty-row elimination + singleton-equality fixing -------
    bool changed = true;
    for (int pass = 0; changed && pass < 16; ++pass) {
      changed = false;
      for (int r = 0; r < rows; ++r) {
        if (dropped[static_cast<std::size_t>(r)]) continue;
        int live = 0;
        int live_col = -1;
        double live_coef = 0.0;
        for (const LpEntry& entry : model.row_entries(r)) {
          if (fixed[static_cast<std::size_t>(entry.column)]) continue;
          ++live;
          live_col = entry.column;
          live_coef = entry.value;
        }
        const double b = adjusted_rhs(r);
        if (live == 0) {
          if (!empty_row_ok(model.sense(r), b)) {
            summary.infeasible = true;
            return out;
          }
          dropped[static_cast<std::size_t>(r)] = 1;
          ++summary.rows_dropped;
          changed = true;
        } else if (live == 1 && model.sense(r) == RowSense::kEq &&
                   live_coef != 0.0) {
          const double x = b / live_coef;
          if (x < -tol) {
            summary.infeasible = true;
            return out;
          }
          fixed[static_cast<std::size_t>(live_col)] = 1;
          out.fixed_values[static_cast<std::size_t>(live_col)] = std::max(0.0, x);
          ++summary.cols_fixed;
          dropped[static_cast<std::size_t>(r)] = 1;
          ++summary.rows_dropped;
          changed = true;
        }
      }
    }

    // --- empty columns: unconstrained variables sit at their bound -------
    std::vector<int> occurrences(static_cast<std::size_t>(cols), 0);
    for (int r = 0; r < rows; ++r) {
      if (dropped[static_cast<std::size_t>(r)]) continue;
      for (const LpEntry& entry : model.row_entries(r)) {
        if (!fixed[static_cast<std::size_t>(entry.column)]) {
          ++occurrences[static_cast<std::size_t>(entry.column)];
        }
      }
    }
    for (int c = 0; c < cols; ++c) {
      if (fixed[static_cast<std::size_t>(c)] ||
          occurrences[static_cast<std::size_t>(c)] > 0) {
        continue;
      }
      // x_c >= 0 free of constraints: optimal at 0, unless decreasing cost
      // makes the whole model unbounded (pending feasibility of the rest).
      if (model.cost(c) < -options.reduced_cost_tol) {
        summary.unbounded_if_feasible = true;
      }
      fixed[static_cast<std::size_t>(c)] = 1;
      out.fixed_values[static_cast<std::size_t>(c)] = 0.0;
      ++summary.cols_fixed;
    }

    // --- duplicate rows: keep the binding copy ---------------------------
    // A duplicate is a row with the same sense and the same live entries
    // (values compared bit-exactly — presolve only merges literal
    // duplicates, e.g. a constraint added twice by a model builder).
    // Candidate rows are grouped by an order-independent hash of that key;
    // only hash-equal groups materialize sorted entry lists for the exact
    // comparison, so the common no-duplicate case builds no per-row key at
    // all (the std::map<RowKey> this replaces allocated one entry vector
    // per live row and compared them O(log n) times each).
    std::vector<std::pair<std::uint64_t, int>> row_hashes;
    row_hashes.reserve(static_cast<std::size_t>(rows));
    for (int r = 0; r < rows; ++r) {
      if (dropped[static_cast<std::size_t>(r)]) continue;
      std::uint64_t h = mix64(static_cast<std::uint64_t>(model.sense(r)) + 1);
      for (const LpEntry& entry : model.row_entries(r)) {
        if (fixed[static_cast<std::size_t>(entry.column)]) continue;
        // Commutative combine (+) so entry order never matters; exactness
        // is restored by the full comparison below.
        h += mix64(static_cast<std::uint64_t>(
                       static_cast<std::uint32_t>(entry.column)) ^
                   (value_bits(entry.value) * 0x9e3779b97f4a7c15ULL));
      }
      row_hashes.emplace_back(h, r);
    }
    std::sort(row_hashes.begin(), row_hashes.end());

    using ExactKey = std::vector<std::pair<int, std::uint64_t>>;
    // Leading (-1, sense) pseudo-entry keeps sense inside the one key.
    const auto build_key = [&](int r, ExactKey& key) {
      key.clear();
      key.emplace_back(-1, static_cast<std::uint64_t>(model.sense(r)));
      for (const LpEntry& entry : model.row_entries(r)) {
        if (fixed[static_cast<std::size_t>(entry.column)]) continue;
        key.emplace_back(entry.column, value_bits(entry.value));
      }
      std::sort(key.begin() + 1, key.end());
    };
    ExactKey key_scratch;
    std::vector<std::pair<ExactKey, int>> group;  // distinct key -> survivor
    for (std::size_t i = 0; i < row_hashes.size();) {
      std::size_t j = i + 1;
      while (j < row_hashes.size() &&
             row_hashes[j].first == row_hashes[i].first) {
        ++j;
      }
      if (j - i > 1) {
        // Rows in a group arrive in ascending row order (pair sort), so
        // the survivor logic matches the old in-order map walk exactly.
        group.clear();
        for (std::size_t g = i; g < j; ++g) {
          const int r = row_hashes[g].second;
          build_key(r, key_scratch);
          bool matched = false;
          for (auto& [key, survivor] : group) {
            if (key != key_scratch) continue;  // hash collision
            matched = true;
            const int prior = survivor;
            const double b_prior = adjusted_rhs(prior);
            const double b_r = adjusted_rhs(r);
            int drop = r;
            switch (model.sense(r)) {
              case RowSense::kLe:  // smaller rhs binds
                if (b_r < b_prior) drop = prior;
                break;
              case RowSense::kGe:  // larger rhs binds
                if (b_r > b_prior) drop = prior;
                break;
              case RowSense::kEq:
                if (std::fabs(b_r - b_prior) > tol) {
                  summary.infeasible = true;
                  return out;
                }
                break;
            }
            dropped[static_cast<std::size_t>(drop)] = 1;
            ++summary.rows_dropped;
            if (drop == prior) survivor = r;
            break;
          }
          if (!matched) group.emplace_back(key_scratch, r);
        }
      }
      i = j;
    }
  }

  // --- identity fast path ------------------------------------------------
  // Nothing dropped, nothing fixed, and no rhs needs flipping: the original
  // model is already its own presolved form, so skip rebuilding it (every
  // row entry vector plus a name string per row and column — on the TISE
  // relaxation that rebuild cost more than several pivots). The column map
  // is still filled in so callers that consult it see the identity mapping.
  if (!summary.infeasible && !summary.unbounded_if_feasible &&
      summary.rows_dropped == 0 && summary.cols_fixed == 0) {
    bool needs_flip = false;
    for (int r = 0; r < rows; ++r) {
      if (model.rhs(r) < 0.0) {
        needs_flip = true;
        break;
      }
    }
    if (!needs_flip) {
      for (int c = 0; c < cols; ++c) {
        out.column_map[static_cast<std::size_t>(c)] = c;
      }
      out.identity = true;
      return out;
    }
  }

  // --- build the reduced model (normalizing every rhs to >= 0) ----------
  for (int c = 0; c < cols; ++c) {
    if (fixed[static_cast<std::size_t>(c)]) {
      summary.objective_offset +=
          model.cost(c) * out.fixed_values[static_cast<std::size_t>(c)];
      continue;
    }
    out.column_map[static_cast<std::size_t>(c)] =
        out.model.add_variable(model.variable_name(c), model.cost(c));
  }
  for (int r = 0; r < rows; ++r) {
    if (dropped[static_cast<std::size_t>(r)]) continue;
    double b = adjusted_rhs(r);
    RowSense sense = model.sense(r);
    double sign = 1.0;
    if (b < 0.0) {
      sign = -1.0;
      b = -b;
      sense = (sense == RowSense::kLe)   ? RowSense::kGe
              : (sense == RowSense::kGe) ? RowSense::kLe
                                         : RowSense::kEq;
      ++summary.rows_normalized;
    }
    const int row = out.model.add_row(model.row_name(r), sense, b);
    for (const LpEntry& entry : model.row_entries(r)) {
      const int mapped = out.column_map[static_cast<std::size_t>(entry.column)];
      if (mapped >= 0) out.model.add_coefficient(row, mapped, sign * entry.value);
    }
  }
  return out;
}

/// The engine's entire mutable state: constraint matrix, eta files, and
/// every per-solve work vector. Hosted either inside one RevisedSimplex
/// (cold path) or inside a caller-held SimplexWorkspace, in which case the
/// buffers keep their capacity from solve to solve. build() re-assigns or
/// clears every field, so stale contents from a previous solve can never
/// leak into the next one.
struct SimplexWorkspace::Impl {
  CscMatrix matrix;
  EtaFile etas;
  std::vector<double> b;
  std::vector<double> basic_values;
  std::vector<double> costs1;
  std::vector<double> costs2;
  std::vector<double> duals;
  std::vector<double> work;
  std::vector<int> touched;
  std::vector<std::pair<int, double>> entering;
  std::vector<int> basis;
  std::vector<char> in_basis;
  std::vector<int> candidates;
  EtaFile fresh;
  std::vector<int> rf_new_basis;
  std::vector<char> rf_row_pivoted;
  std::vector<char> rf_slot_done;
  std::vector<int> rf_eta_of_row;
  std::vector<int> rf_row_count;
  std::vector<int> rf_col_count;
  std::vector<std::size_t> rf_row_start;
  std::vector<std::size_t> rf_row_fill;
  std::vector<int> rf_row_slot;
  std::vector<int> rf_row_queue;
  std::vector<int> rf_col_queue;
  std::vector<int> rf_kernel;
  std::vector<std::pair<int, double>> rf_spill;
  std::vector<int> initial_basis;
  // Counting-sort scratch for build()'s row-major -> CSC transpose.
  std::vector<int> bk_count;
  std::vector<std::size_t> bk_pos;
  std::vector<int> rf_heap;  ///< pending-eta heap for ftran_indexed
  /// True once a solve has run in this arena; the next solve in it counts
  /// as a workspace reuse (trace key `workspace.reused`).
  bool used_before = false;

  /// Total capacity held across every buffer. The per-solve growth
  /// detector (trace key `workspace.grown`) compares this before and
  /// after a solve: once a reused arena reaches its family's working size
  /// the delta must be zero — the ASan CI job asserts exactly that.
  [[nodiscard]] std::size_t capacity_bytes() const noexcept {
    const auto doubles = [](const std::vector<double>& v) {
      return v.capacity() * sizeof(double);
    };
    const auto ints = [](const std::vector<int>& v) {
      return v.capacity() * sizeof(int);
    };
    const auto chars = [](const std::vector<char>& v) { return v.capacity(); };
    const auto sizes = [](const std::vector<std::size_t>& v) {
      return v.capacity() * sizeof(std::size_t);
    };
    const auto pairs = [](const std::vector<std::pair<int, double>>& v) {
      return v.capacity() * sizeof(std::pair<int, double>);
    };
    return matrix.capacity_bytes() + etas.capacity_bytes() +
           fresh.capacity_bytes() + doubles(b) + doubles(basic_values) +
           doubles(costs1) + doubles(costs2) + doubles(duals) + doubles(work) +
           ints(touched) + pairs(entering) + ints(basis) + chars(in_basis) +
           ints(candidates) + ints(rf_new_basis) + chars(rf_row_pivoted) +
           chars(rf_slot_done) + ints(rf_eta_of_row) + ints(rf_row_count) +
           ints(rf_col_count) + sizes(rf_row_start) + sizes(rf_row_fill) +
           ints(rf_row_slot) + ints(rf_row_queue) + ints(rf_col_queue) +
           ints(rf_kernel) + pairs(rf_spill) + ints(initial_basis) +
           ints(bk_count) + sizes(bk_pos) + ints(rf_heap);
  }
};

SimplexWorkspace::SimplexWorkspace() : impl_(std::make_unique<Impl>()) {}
SimplexWorkspace::~SimplexWorkspace() = default;

namespace {

/// One revised-simplex solve over a presolved model (every rhs >= 0).
class RevisedSimplex {
 public:
  RevisedSimplex(const LpModel& model, const SimplexOptions& options)
      : options_(options),
        poller_(options.limits, /*stride=*/32),
        num_structural_(model.num_variables()),
        scratch_(options.workspace ? &options.workspace->impl()
                                   : &local_scratch_),
        matrix_(scratch_->matrix),
        etas_(scratch_->etas),
        b_(scratch_->b),
        basic_values_(scratch_->basic_values),
        costs1_(scratch_->costs1),
        costs2_(scratch_->costs2),
        duals_(scratch_->duals),
        work_(scratch_->work),
        touched_(scratch_->touched),
        entering_(scratch_->entering),
        basis_(scratch_->basis),
        in_basis_(scratch_->in_basis),
        candidates_(scratch_->candidates),
        fresh_(scratch_->fresh),
        rf_new_basis_(scratch_->rf_new_basis),
        rf_row_pivoted_(scratch_->rf_row_pivoted),
        rf_slot_done_(scratch_->rf_slot_done),
        rf_eta_of_row_(scratch_->rf_eta_of_row),
        rf_row_count_(scratch_->rf_row_count),
        rf_col_count_(scratch_->rf_col_count),
        rf_row_start_(scratch_->rf_row_start),
        rf_row_fill_(scratch_->rf_row_fill),
        rf_row_slot_(scratch_->rf_row_slot),
        rf_row_queue_(scratch_->rf_row_queue),
        rf_col_queue_(scratch_->rf_col_queue),
        rf_kernel_(scratch_->rf_kernel),
        rf_spill_(scratch_->rf_spill),
        initial_basis_(scratch_->initial_basis) {
    if (scratch_ != &local_scratch_) {
      workspace_reused_ = scratch_->used_before;
      scratch_->used_before = true;
    }
    capacity_bytes_before_ = scratch_->capacity_bytes();
    build(model);
  }

  /// Runs the solve and records its work into the trace once, whichever
  /// way the phases ended (optimal, stopped, infeasible, iteration-limited).
  LpSolution solve() {
    LpSolution solution = run_phases();
    record_work(solution);
    return solution;
  }

 private:
  LpSolution run_phases() {
    LpSolution solution;
    trace_set(options_.trace, "revised.rows", rows_);
    trace_set(options_.trace, "revised.columns", total_cols_);
    trace_set(options_.trace, "revised.nnz",
              static_cast<std::int64_t>(matrix_.num_nonzeros()));
    // ---- Warm start: adopt the caller's basis when it checks out. ----
    bool warm = false;
    if (options_.warm_start && options_.warm_start->valid) {
      trace_add(options_.trace, "warmstart.offered");
      warm = try_warm_start(*options_.warm_start);
      trace_add(options_.trace,
                warm ? "warmstart.accepted" : "warmstart.rejected");
    }
    solution.warm_started = warm;
    // ---- Phase 1: minimize the sum of artificial variables. ----
    // A successfully installed warm basis is artificial-free and primal
    // feasible, so Phase 1 (and the expel pass) has nothing to do.
    if (num_artificial_ > 0 && !warm) {
      TraceSpan span(options_.trace, "phase1");
      const RunResult phase1 = run(costs1_, /*allow_artificial_entering=*/true,
                                   solution.phase1_pivots);
      span.stop();
      if (phase1 == RunResult::kStopped) {
        solution.status = stop_status();
        return solution;
      }
      if (phase1 == RunResult::kIterationLimit) {
        solution.status = LpStatus::kIterationLimit;
        return solution;
      }
      refresh_basic_values();
      if (phase1_infeasibility() > options_.feasibility_tol) {
        solution.status = LpStatus::kInfeasible;
        return solution;
      }
      expel_artificials(solution.expel_pivots);
    }
    // ---- Phase 2: minimize the real objective. ----
    TraceSpan phase2_span(options_.trace, "phase2");
    const RunResult phase2 = run(costs2_, /*allow_artificial_entering=*/false,
                                 solution.phase2_pivots);
    phase2_span.stop();
    switch (phase2) {
      case RunResult::kOptimal: solution.status = LpStatus::kOptimal; break;
      case RunResult::kUnbounded:
        solution.status = LpStatus::kUnbounded;
        return solution;
      case RunResult::kIterationLimit:
        solution.status = LpStatus::kIterationLimit;
        return solution;
      case RunResult::kStopped:
        solution.status = stop_status();
        return solution;
    }
    // ---- Extract structural values. ----
    refresh_basic_values();
    solution.values.assign(static_cast<std::size_t>(num_structural_), 0.0);
    for (int r = 0; r < rows_; ++r) {
      const int col = basis_[static_cast<std::size_t>(r)];
      if (col < num_structural_) {
        solution.values[static_cast<std::size_t>(col)] =
            std::max(0.0, basic_values_[static_cast<std::size_t>(r)]);
      }
    }
    solution.objective = basis_objective(costs2_);
    export_warm_start();
    return solution;
  }

  enum class RunResult { kOptimal, kUnbounded, kIterationLimit, kStopped };

  /// LpStatus for a kStopped run (deadline vs cancellation).
  [[nodiscard]] LpStatus stop_status() const noexcept {
    return poller_.status() == SolveStatus::kCancelled ? LpStatus::kCancelled
                                                       : LpStatus::kDeadlineExceeded;
  }

  void build(const LpModel& model) {
    // A reused workspace arrives with the previous solve's matrix and eta
    // file; drop the contents, keep the capacity.
    matrix_.clear();
    etas_.clear();
    rows_ = model.num_rows();
    // Column layout mirrors the dense tableau: [structural | slack+surplus
    // | artificial]; rhs is already nonnegative, so no sign flips here.
    int num_slack = 0;
    int num_art = 0;
    for (int r = 0; r < rows_; ++r) {
      if (model.sense(r) != RowSense::kEq) ++num_slack;
      if (model.sense(r) != RowSense::kLe) ++num_art;
    }
    slack_base_ = num_structural_;
    artificial_base_ = slack_base_ + num_slack;
    num_artificial_ = num_art;
    total_cols_ = artificial_base_ + num_art;

    // Structural columns: counting-sort transpose of the model's row-major
    // storage — count entries per column, open every column at its final
    // size, then scatter entries into place. Row order within a column is
    // ascending either way (the outer loop visits rows in order), and no
    // per-column heap blocks are allocated (the bucket transpose this
    // replaces built one std::vector per structural column every solve).
    std::vector<int>& bk_count = scratch_->bk_count;
    std::vector<std::size_t>& bk_pos = scratch_->bk_pos;
    bk_count.assign(static_cast<std::size_t>(num_structural_), 0);
    std::size_t nonzeros = 0;
    for (int r = 0; r < rows_; ++r) {
      for (const LpEntry& entry : model.row_entries(r)) {
        ++bk_count[static_cast<std::size_t>(entry.column)];
        ++nonzeros;
      }
    }
    matrix_.reserve(total_cols_, nonzeros + static_cast<std::size_t>(num_slack) +
                                     static_cast<std::size_t>(num_art));
    matrix_.append_sized_columns(bk_count.data(), num_structural_);
    bk_pos.resize(static_cast<std::size_t>(num_structural_));
    for (int c = 0; c < num_structural_; ++c) {
      bk_pos[static_cast<std::size_t>(c)] = matrix_.column_begin(c);
    }
    if (num_structural_ > 0) {
      int* const mat_rows = matrix_.column_rows_mut(0);
      double* const mat_values = matrix_.column_values_mut(0);
      for (int r = 0; r < rows_; ++r) {
        for (const LpEntry& entry : model.row_entries(r)) {
          const std::size_t k = bk_pos[static_cast<std::size_t>(entry.column)]++;
          mat_rows[k] = r;
          mat_values[k] = entry.value;
        }
      }
    }

    b_.assign(static_cast<std::size_t>(rows_), 0.0);
    basis_.assign(static_cast<std::size_t>(rows_), -1);
    std::vector<std::pair<int, int>> art_rows;  // (row, artificial column)
    for (int r = 0; r < rows_; ++r) {
      b_[static_cast<std::size_t>(r)] = model.rhs(r);
      if (model.sense(r) != RowSense::kEq) {
        const int slack = matrix_.begin_column();
        matrix_.push(r, model.sense(r) == RowSense::kLe ? 1.0 : -1.0);
        if (model.sense(r) == RowSense::kLe) {
          basis_[static_cast<std::size_t>(r)] = slack;
        }
      }
    }
    for (int r = 0; r < rows_; ++r) {
      if (model.sense(r) == RowSense::kLe) continue;
      const int art = matrix_.begin_column();
      matrix_.push(r, 1.0);
      basis_[static_cast<std::size_t>(r)] = art;
    }

    in_basis_.assign(static_cast<std::size_t>(total_cols_), 0);
    for (int r = 0; r < rows_; ++r) {
      in_basis_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(r)])] = 1;
    }
    basic_values_ = b_;  // initial basis is the identity
    work_.assign(static_cast<std::size_t>(rows_), 0.0);  // all-zero invariant

    costs2_.assign(static_cast<std::size_t>(total_cols_), 0.0);
    for (int c = 0; c < num_structural_; ++c) {
      costs2_[static_cast<std::size_t>(c)] = model.cost(c);
    }
    costs1_.assign(static_cast<std::size_t>(total_cols_), 0.0);
    for (int c = artificial_base_; c < total_cols_; ++c) {
      costs1_[static_cast<std::size_t>(c)] = 1.0;
    }
  }

  /// Tries to install `warm` as the starting basis. Acceptance requires, in
  /// order: a matching (rows, cols) shape signature, only structural/slack
  /// columns (see WarmStart), no duplicates, a clean refactorization (the
  /// basis is nonsingular under *this* model's coefficients), and primal
  /// feasibility of B^{-1} b under this model's rhs. Any failure restores
  /// the cold identity basis and returns false — the solve then proceeds
  /// exactly as if no warm start had been offered.
  bool try_warm_start(const WarmStart& warm) {
    if (warm.rows != rows_ || warm.cols != total_cols_) return false;
    if (static_cast<int>(warm.basis.size()) != rows_) return false;
    for (const int col : warm.basis) {
      if (col < 0 || col >= artificial_base_) return false;
    }
    initial_basis_ = basis_;
    basis_ = warm.basis;
    std::fill(in_basis_.begin(), in_basis_.end(), char{0});
    for (const int col : basis_) {
      if (in_basis_[static_cast<std::size_t>(col)]) {  // duplicate column
        restore_cold_basis();
        return false;
      }
      in_basis_[static_cast<std::size_t>(col)] = 1;
    }
    const std::int64_t failures_before = refactor_failures_;
    refactorize();
    if (refactor_failures_ != failures_before) {  // numerically singular
      restore_cold_basis();
      return false;
    }
    // refactorize() left basic_values_ = B^{-1} b for the warm basis.
    for (const double value : basic_values_) {
      if (value < -options_.feasibility_tol) {  // not feasible under this rhs
        restore_cold_basis();
        return false;
      }
    }
    return true;
  }

  /// Undoes a failed warm-start installation: identity basis, empty eta
  /// file, basic values = b (exactly the state build() left behind).
  void restore_cold_basis() {
    basis_ = initial_basis_;
    etas_.clear();
    etas_since_refactor_ = 0;
    std::fill(in_basis_.begin(), in_basis_.end(), char{0});
    for (const int col : basis_) in_basis_[static_cast<std::size_t>(col)] = 1;
    basic_values_ = b_;
  }

  /// Writes the optimal basis back into the caller's WarmStart slot. Bases
  /// that kept a redundant-row artificial are not exported (see WarmStart);
  /// the slot's previous contents stay as they were.
  void export_warm_start() {
    WarmStart* warm = options_.warm_start;
    if (!warm) return;
    for (const int col : basis_) {
      if (col >= artificial_base_) return;
    }
    warm->valid = true;
    warm->rows = rows_;
    warm->cols = total_cols_;
    warm->basis = basis_;
  }

  /// One simplex phase over the given cost vector.
  RunResult run(const std::vector<double>& costs, bool allow_artificial_entering,
                std::int64_t& pivot_count) {
    int stall = 0;
    double last_objective = std::numeric_limits<double>::infinity();
    bool bland = false;
    candidates_.clear();
    // Tracked incrementally (entering reduced cost x step length) for the
    // stall detector; the exact objective is recomputed at phase ends.
    double objective = basis_objective(costs);
    while (true) {
      if (pivot_count >= options_.max_pivots) return RunResult::kIterationLimit;
      if (poller_.poll() != SolveStatus::kOk) return RunResult::kStopped;
      compute_duals(costs);
      const int entering = bland ? price_bland(costs, allow_artificial_entering)
                                 : price_partial(costs, allow_artificial_entering);
      if (entering < 0) return RunResult::kOptimal;
      const double entering_cost = reduced_cost(costs, entering);
      load_column(entering);
      const int leaving = choose_leaving(bland);
      if (leaving < 0) return RunResult::kUnbounded;
      objective += entering_cost * pivot(leaving, entering);
      ++pivot_count;
      if (etas_since_refactor_ >= options_.refactor_interval) refactorize();
      if (objective < last_objective - 1e-12) {
        stall = 0;
        last_objective = objective;
      } else if (!bland && ++stall >= options_.stall_before_bland) {
        bland = true;  // anti-cycling fallback
        ++bland_activations_;
      }
    }
  }

  /// y := c_B' B^{-1} (BTRAN).
  void compute_duals(const std::vector<double>& costs) {
    duals_.resize(static_cast<std::size_t>(rows_));
    for (int r = 0; r < rows_; ++r) {
      duals_[static_cast<std::size_t>(r)] =
          costs[static_cast<std::size_t>(basis_[static_cast<std::size_t>(r)])];
    }
    etas_.btran(duals_);
  }

  [[nodiscard]] double reduced_cost(const std::vector<double>& costs,
                                    int column) const {
    return costs[static_cast<std::size_t>(column)] - matrix_.dot(column, duals_);
  }

  /// Partial pricing: re-price the surviving candidate list, then always
  /// refresh it with at least one fresh cyclic section (more until the list
  /// is full or the matrix has been swept once). The entering column is the
  /// most negative reduced cost seen across both, so the choice tracks
  /// Dantzig pricing closely while scanning a fraction of the columns.
  /// (Coasting on the stale list until it empties was measurably worse: it
  /// roughly doubles the pivot count on the TISE LPs.)
  /// Returns -1 only after a full sweep found no attractive column.
  int price_partial(const std::vector<double>& costs, bool allow_artificial) {
    const int limit = allow_artificial ? total_cols_ : artificial_base_;
    int best = -1;
    double best_cost = -options_.reduced_cost_tol;
    std::size_t kept = 0;
    for (const int c : candidates_) {
      if (c >= limit || in_basis_[static_cast<std::size_t>(c)]) continue;
      const double reduced = reduced_cost(costs, c);
      if (reduced >= -options_.reduced_cost_tol) continue;
      candidates_[kept++] = c;
      if (reduced < best_cost) {
        best_cost = reduced;
        best = c;
      }
    }
    candidates_.resize(kept);

    const int section = std::max(1, options_.pricing_section);
    const auto is_basic = [this](int c) {
      return in_basis_[static_cast<std::size_t>(c)] != 0;
    };
    if (cursor_ >= limit) cursor_ = 0;  // limit shrinks between phases
    int scanned = 0;
    while (scanned < limit) {
      // One contiguous slice of the cyclic sweep (sections straddling the
      // wrap split in two, so each slice is a single sequential scan).
      const int lo = cursor_;
      const int hi = std::min(lo + std::min(section, limit - scanned), limit);
      matrix_.dot_range(lo, hi, duals_, is_basic, [&](int c, double dot) {
        const double reduced = costs[static_cast<std::size_t>(c)] - dot;
        if (reduced < -options_.reduced_cost_tol) {
          // The list caps at pricing_candidates (it only feeds the next
          // iteration's re-pricing); the entering column is tracked
          // separately, so a capped column can still enter now.
          if (static_cast<int>(candidates_.size()) <
              options_.pricing_candidates) {
            candidates_.push_back(c);
          }
          if (reduced < best_cost) {
            best_cost = reduced;
            best = c;
          }
        }
      });
      cursor_ = hi >= limit ? 0 : hi;
      scanned += hi - lo;
      ++pricing_sections_;
      // Stop as soon as something is attractive; insisting on a full
      // candidate list makes near-optimal iterations (few attractive
      // columns left anywhere) degenerate into full sweeps. An empty sweep
      // still runs to completion to prove optimality.
      if (best >= 0) break;
    }
    return best;
  }

  /// Bland's rule: the lowest-index attractive column.
  int price_bland(const std::vector<double>& costs, bool allow_artificial) {
    const int limit = allow_artificial ? total_cols_ : artificial_base_;
    for (int c = 0; c < limit; ++c) {
      if (in_basis_[static_cast<std::size_t>(c)]) continue;
      if (reduced_cost(costs, c) < -options_.reduced_cost_tol) return c;
    }
    return -1;
  }

  /// entering_ := nonzeros of B^{-1} a_column (tracked FTRAN), sorted by
  /// row so downstream scans match the dense engine's row order. work_
  /// holds all zeros on entry and exit.
  void load_column(int column) {
    touched_.clear();
    for (std::size_t k = matrix_.column_begin(column);
         k < matrix_.column_end(column); ++k) {
      const auto row = static_cast<std::size_t>(matrix_.row(k));
      if (work_[row] == 0.0) touched_.push_back(matrix_.row(k));
      work_[row] += matrix_.value(k);
    }
    etas_.ftran_tracked(work_, touched_);
    entering_.clear();
    for (const int row : touched_) {
      const double value = work_[static_cast<std::size_t>(row)];
      work_[static_cast<std::size_t>(row)] = 0.0;  // also dedupes repeats
      if (value != 0.0) entering_.emplace_back(row, value);
    }
    std::sort(entering_.begin(), entering_.end());
  }

  /// Ratio test over the entering column; mirrors the dense engine (Bland
  /// tie-break by smallest basis index).
  [[nodiscard]] int choose_leaving(bool bland) const {
    int best = -1;
    double best_ratio = std::numeric_limits<double>::infinity();
    for (const auto& [r, coef] : entering_) {
      if (coef <= options_.pivot_tol) continue;
      const double ratio = basic_values_[static_cast<std::size_t>(r)] / coef;
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

  /// Basis change: update basic values, append the eta, swap basis flags.
  /// Returns the step length theta.
  double pivot(int leaving_row, int entering_column) {
    const auto lr = static_cast<std::size_t>(leaving_row);
    double pivot_coef = 0.0;
    for (const auto& [r, w] : entering_) {
      if (r == leaving_row) {
        pivot_coef = w;
        break;
      }
    }
    const double theta = basic_values_[lr] / pivot_coef;
    for (const auto& [r, w] : entering_) {
      basic_values_[static_cast<std::size_t>(r)] -= theta * w;
    }
    basic_values_[lr] = theta;
    etas_.begin_eta(leaving_row, pivot_coef);
    for (const auto& [r, w] : entering_) {
      if (r != leaving_row) etas_.push(r, w);
    }
    ++etas_since_refactor_;
    eta_peak_ = std::max(eta_peak_, static_cast<std::int64_t>(etas_.size()));
    in_basis_[static_cast<std::size_t>(basis_[lr])] = 0;
    in_basis_[static_cast<std::size_t>(entering_column)] = 1;
    basis_[lr] = entering_column;
    return theta;
  }

  /// Rebuilds the eta file from the current basis columns. Two stages:
  ///
  ///  1. Two-sided triangular peel: repeatedly pivot on a row with exactly
  ///     one remaining active column, or a column with exactly one
  ///     remaining active row (slack and artificial basics are column
  ///     singletons from the start). This is the standard triangularization
  ///     of LP bases; on TISE models it absorbs nearly everything. Row
  ///     singletons are preferred — their columns provably avoid earlier
  ///     pivot rows, so their etas carry zero fill.
  ///  2. The leftover kernel (rows and columns of active degree >= 2) goes
  ///     through Gauss-Jordan with partial pivoting, sparsest column first.
  ///
  /// Every eta is the column FTRANed through the file built so far; the
  /// FTRAN is touch-tracked, so the cost is proportional to the fill
  /// actually produced, not rows * columns. Identity etas (unit pivot, no
  /// off-pivot entries — every in-basis slack peels to one) are dropped
  /// entirely, which keeps the rebuilt file far shorter than one eta per
  /// row and directly shrinks every later FTRAN/BTRAN scan.
  ///
  /// All scratch lives in rf_* members (plus fresh_, swapped with etas_ on
  /// success), so a refactorization allocates nothing in steady state.
  ///
  /// On numerical failure the old (valid, just long) file is kept.
  void refactorize() {
    const auto n = static_cast<std::size_t>(rows_);
    fresh_.clear();
    rf_new_basis_.assign(n, -1);
    rf_row_pivoted_.assign(n, 0);
    rf_slot_done_.assign(n, 0);
    rf_eta_of_row_.assign(n, -1);

    // Active incidence, both directions (counts over non-retired rows and
    // basis slots); row -> slots adjacency as a counting-sorted CSR.
    rf_row_count_.assign(n, 0);  // active columns touching the row
    rf_col_count_.assign(n, 0);  // active rows in the slot's column
    std::size_t total_slots = 0;
    for (int s = 0; s < rows_; ++s) {
      const int col = basis_[static_cast<std::size_t>(s)];
      rf_col_count_[static_cast<std::size_t>(s)] =
          static_cast<int>(matrix_.column_size(col));
      total_slots += matrix_.column_size(col);
      for (std::size_t k = matrix_.column_begin(col); k < matrix_.column_end(col);
           ++k) {
        ++rf_row_count_[static_cast<std::size_t>(matrix_.row(k))];
      }
    }
    rf_row_start_.assign(n + 1, 0);
    for (std::size_t r = 0; r < n; ++r) {
      rf_row_start_[r + 1] = rf_row_start_[r] + rf_row_count_[r];
    }
    rf_row_fill_.assign(rf_row_start_.begin(), rf_row_start_.end() - 1);
    rf_row_slot_.resize(total_slots);
    for (int s = 0; s < rows_; ++s) {
      const int col = basis_[static_cast<std::size_t>(s)];
      for (std::size_t k = matrix_.column_begin(col); k < matrix_.column_end(col);
           ++k) {
        rf_row_slot_[static_cast<std::size_t>(
            rf_row_fill_[static_cast<std::size_t>(matrix_.row(k))]++)] = s;
      }
    }
    rf_row_queue_.clear();
    rf_col_queue_.clear();
    for (int r = 0; r < rows_; ++r) {
      if (rf_row_count_[static_cast<std::size_t>(r)] == 1) {
        rf_row_queue_.push_back(r);
      }
    }
    for (int s = 0; s < rows_; ++s) {
      if (rf_col_count_[static_cast<std::size_t>(s)] == 1) {
        rf_col_queue_.push_back(s);
      }
    }

    /// FTRANs slot `s`'s column through `fresh_` and appends the eta
    /// pivoted at row `r` (unless it is an identity eta, which is simply
    /// dropped); false on a too-small pivot. Leaves work_ zeroed.
    const auto emit = [&](int r, int s) {
      const int col = basis_[static_cast<std::size_t>(s)];
      touched_.clear();
      for (std::size_t k = matrix_.column_begin(col); k < matrix_.column_end(col);
           ++k) {
        const auto row = static_cast<std::size_t>(matrix_.row(k));
        if (work_[row] == 0.0) touched_.push_back(matrix_.row(k));
        work_[row] += matrix_.value(k);
      }
      fresh_.ftran_indexed(work_, touched_, rf_eta_of_row_, scratch_->rf_heap);
      const double pivot_value = work_[static_cast<std::size_t>(r)];
      const bool ok = std::fabs(pivot_value) > options_.pivot_tol;
      rf_spill_.clear();
      for (const int row : touched_) {
        const double value = work_[static_cast<std::size_t>(row)];
        work_[static_cast<std::size_t>(row)] = 0.0;  // also dedupes repeats
        if (row != r && value != 0.0) rf_spill_.emplace_back(row, value);
      }
      if (!ok) return false;
      if (pivot_value != 1.0 || !rf_spill_.empty()) {
        rf_eta_of_row_[static_cast<std::size_t>(r)] =
            static_cast<int>(fresh_.size());
        fresh_.begin_eta(r, pivot_value);
        for (const auto& [row, value] : rf_spill_) fresh_.push(row, value);
      }
      return true;
    };
    /// Retires pivot (row `r`, slot `s`), feeding newly-single rows and
    /// columns into the peel queues.
    const auto retire = [&](int r, int s) {
      rf_row_pivoted_[static_cast<std::size_t>(r)] = 1;
      rf_slot_done_[static_cast<std::size_t>(s)] = 1;
      rf_new_basis_[static_cast<std::size_t>(r)] =
          basis_[static_cast<std::size_t>(s)];
      const int col = basis_[static_cast<std::size_t>(s)];
      for (std::size_t k = matrix_.column_begin(col); k < matrix_.column_end(col);
           ++k) {
        const auto row = static_cast<std::size_t>(matrix_.row(k));
        if (!rf_row_pivoted_[row] && --rf_row_count_[row] == 1) {
          rf_row_queue_.push_back(matrix_.row(k));
        }
      }
      for (std::size_t k = rf_row_start_[static_cast<std::size_t>(r)];
           k < rf_row_start_[static_cast<std::size_t>(r) + 1]; ++k) {
        const int s2 = rf_row_slot_[k];
        if (!rf_slot_done_[static_cast<std::size_t>(s2)] &&
            --rf_col_count_[static_cast<std::size_t>(s2)] == 1) {
          rf_col_queue_.push_back(s2);
        }
      }
    };

    int remaining = rows_;
    while (!rf_row_queue_.empty() || !rf_col_queue_.empty()) {
      if (!rf_row_queue_.empty()) {
        const int r = rf_row_queue_.back();
        rf_row_queue_.pop_back();
        const auto ri = static_cast<std::size_t>(r);
        if (rf_row_pivoted_[ri] || rf_row_count_[ri] != 1) continue;
        int slot = -1;
        for (std::size_t k = rf_row_start_[ri]; k < rf_row_start_[ri + 1]; ++k) {
          if (!rf_slot_done_[static_cast<std::size_t>(rf_row_slot_[k])]) {
            slot = rf_row_slot_[k];
            break;
          }
        }
        if (slot < 0) continue;  // stale entry
        if (!emit(r, slot)) continue;  // tiny pivot: leave to the kernel
        retire(r, slot);
        --remaining;
      } else {
        const int s = rf_col_queue_.back();
        rf_col_queue_.pop_back();
        const auto si = static_cast<std::size_t>(s);
        if (rf_slot_done_[si] || rf_col_count_[si] != 1) continue;
        const int col = basis_[si];
        int r = -1;
        for (std::size_t k = matrix_.column_begin(col);
             k < matrix_.column_end(col); ++k) {
          if (!rf_row_pivoted_[static_cast<std::size_t>(matrix_.row(k))]) {
            r = matrix_.row(k);
            break;
          }
        }
        if (r < 0) continue;  // stale entry
        if (!emit(r, s)) continue;
        retire(r, s);
        --remaining;
      }
    }

    bump_peak_ = std::max(bump_peak_, static_cast<std::int64_t>(remaining));
    // Stage 2: Gauss-Jordan over the kernel the peel left behind.
    if (remaining > 0) {
      rf_kernel_.clear();
      for (int s = 0; s < rows_; ++s) {
        if (!rf_slot_done_[static_cast<std::size_t>(s)]) rf_kernel_.push_back(s);
      }
      std::sort(rf_kernel_.begin(), rf_kernel_.end(), [&](int a, int b) {
        return matrix_.column_size(basis_[static_cast<std::size_t>(a)]) <
               matrix_.column_size(basis_[static_cast<std::size_t>(b)]);
      });
      for (const int s : rf_kernel_) {
        const int col = basis_[static_cast<std::size_t>(s)];
        touched_.clear();
        for (std::size_t k = matrix_.column_begin(col);
             k < matrix_.column_end(col); ++k) {
          const auto row = static_cast<std::size_t>(matrix_.row(k));
          if (work_[row] == 0.0) touched_.push_back(matrix_.row(k));
          work_[row] += matrix_.value(k);
        }
        fresh_.ftran_indexed(work_, touched_, rf_eta_of_row_, scratch_->rf_heap);
        int pivot_row = -1;
        double best = 0.0;
        for (const int row : touched_) {
          if (rf_row_pivoted_[static_cast<std::size_t>(row)]) continue;
          const double magnitude =
              std::fabs(work_[static_cast<std::size_t>(row)]);
          if (magnitude > best) {
            best = magnitude;
            pivot_row = row;
          }
        }
        if (pivot_row < 0 || best <= options_.pivot_tol) {
          for (const int row : touched_) {
            work_[static_cast<std::size_t>(row)] = 0.0;
          }
          ++refactor_failures_;      // numerically singular; keep the old file
          etas_since_refactor_ = 0;  // but wait a full interval before retrying
          return;
        }
        rf_eta_of_row_[static_cast<std::size_t>(pivot_row)] =
            static_cast<int>(fresh_.size());
        fresh_.begin_eta(pivot_row, work_[static_cast<std::size_t>(pivot_row)]);
        for (const int row : touched_) {
          const double value = work_[static_cast<std::size_t>(row)];
          work_[static_cast<std::size_t>(row)] = 0.0;
          if (row != pivot_row && value != 0.0) fresh_.push(row, value);
        }
        rf_row_pivoted_[static_cast<std::size_t>(pivot_row)] = 1;
        rf_new_basis_[static_cast<std::size_t>(pivot_row)] = col;
      }
    }

    std::swap(etas_, fresh_);  // swap, not move: fresh_ keeps its buffers
    std::swap(basis_, rf_new_basis_);
    etas_since_refactor_ = 0;
    ++refactor_count_;
    refresh_basic_values();
  }

  /// basic_values_ := B^{-1} b, from scratch.
  void refresh_basic_values() {
    basic_values_ = b_;
    etas_.ftran(basic_values_);
  }

  [[nodiscard]] double basis_objective(const std::vector<double>& costs) const {
    double objective = 0.0;
    for (int r = 0; r < rows_; ++r) {
      objective += costs[static_cast<std::size_t>(basis_[static_cast<std::size_t>(r)])] *
                   basic_values_[static_cast<std::size_t>(r)];
    }
    return objective;
  }

  /// Phase-1 residual: the artificial mass still in the basis.
  [[nodiscard]] double phase1_infeasibility() const {
    double mass = 0.0;
    for (int r = 0; r < rows_; ++r) {
      if (basis_[static_cast<std::size_t>(r)] >= artificial_base_) {
        mass += std::max(0.0, basic_values_[static_cast<std::size_t>(r)]);
      }
    }
    return mass;
  }

  /// After phase 1, pivot zero-valued artificial basics out on the largest
  /// eligible non-artificial column of their B^{-1} row; rows with none are
  /// redundant (their tableau row is all-zero) and stay harmlessly basic.
  void expel_artificials(std::int64_t& expel_pivots) {
    for (int r = 0; r < rows_; ++r) {
      if (basis_[static_cast<std::size_t>(r)] < artificial_base_) continue;
      // z := e_r' B^{-1}, the tableau row of r.
      duals_.assign(static_cast<std::size_t>(rows_), 0.0);
      duals_[static_cast<std::size_t>(r)] = 1.0;
      etas_.btran(duals_);
      int pivot_col = -1;
      double best = options_.pivot_tol;
      for (int c = 0; c < artificial_base_; ++c) {
        if (in_basis_[static_cast<std::size_t>(c)]) continue;
        const double magnitude = std::fabs(matrix_.dot(c, duals_));
        if (magnitude > best) {
          best = magnitude;
          pivot_col = c;
        }
      }
      if (pivot_col < 0) continue;
      load_column(pivot_col);
      pivot(r, pivot_col);
      ++expel_pivots;
      if (etas_since_refactor_ >= options_.refactor_interval) refactorize();
    }
  }

  /// Adds this solve's work to the trace sink. Every tally is added, not
  /// set, so one trace handed to N sequential solves reports their sum —
  /// the same totals absorb() gives for N scratch traces. The peak/level
  /// gauges (eta.peak, eta.nnz, refactor.bump.peak) are added too, which
  /// matches absorb()'s documented sum-of-peaks semantics.
  void record_work(const LpSolution& solution) {
    // Drain the kernel tallies even untraced: they live in the (reusable)
    // workspace and would otherwise leak into the next traced solve.
    const KernelStats eta_stats = etas_.take_stats();
    const KernelStats fresh_stats = fresh_.take_stats();
    const KernelStats pricing = matrix_.take_stats();
    TraceContext* trace = options_.trace;
    if (!trace) return;
    trace->add("pivots.phase1", solution.phase1_pivots);
    trace->add("pivots.phase2", solution.phase2_pivots);
    trace->add("pivots.expel", solution.expel_pivots);
    trace->add("bland.activations", bland_activations_);
    trace->add("refactor.count", refactor_count_);
    trace->add("refactor.failures", refactor_failures_);
    trace->add("refactor.bump.peak", bump_peak_);
    trace->add("eta.peak", eta_peak_);
    trace->add("eta.nnz", static_cast<std::int64_t>(etas_.num_nonzeros()));
    trace->add("pricing.sections", pricing_sections_);
    trace->add("workspace.reused", workspace_reused_ ? 1 : 0);
    trace->add("workspace.grown",
               scratch_->capacity_bytes() > capacity_bytes_before_ ? 1 : 0);
    trace->add("solves");
    trace->add("eta.applied", eta_stats.fired + fresh_stats.fired);
    trace->add("eta.entries", eta_stats.entries + fresh_stats.entries);
    trace->add("pricing.columns", pricing.fired);
    trace->add("pricing.entries", pricing.entries);
  }

  SimplexOptions options_;
  LimitPoller poller_;
  int num_structural_ = 0;
  int slack_base_ = 0;
  int artificial_base_ = 0;
  int num_artificial_ = 0;
  int rows_ = 0;
  int total_cols_ = 0;
  // Engine state lives in a SimplexWorkspace::Impl — the caller's when
  // SimplexOptions::workspace is set (buffer reuse across a solve
  // sequence), this engine's own otherwise. The references below keep the
  // algorithm body oblivious to where the storage lives.
  SimplexWorkspace::Impl local_scratch_;
  SimplexWorkspace::Impl* scratch_;
  CscMatrix& matrix_;
  EtaFile& etas_;
  std::vector<double>& b_;
  std::vector<double>& basic_values_;  ///< x_B, one per row
  std::vector<double>& costs1_;
  std::vector<double>& costs2_;
  std::vector<double>& duals_;  ///< y (BTRAN scratch)
  /// Dense FTRAN scratch; all zeros between uses (gatherers restore it).
  std::vector<double>& work_;
  std::vector<int>& touched_;  ///< nonzero rows of work_ during an FTRAN
  /// Entering column B^{-1} a_q as sorted (row, value) pairs.
  std::vector<std::pair<int, double>>& entering_;
  std::vector<int>& basis_;
  std::vector<char>& in_basis_;
  std::vector<int>& candidates_;
  // Refactorization scratch, reused across calls (see refactorize()).
  EtaFile& fresh_;
  std::vector<int>& rf_new_basis_;
  std::vector<char>& rf_row_pivoted_;
  std::vector<char>& rf_slot_done_;
  std::vector<int>& rf_eta_of_row_;
  std::vector<int>& rf_row_count_;
  std::vector<int>& rf_col_count_;
  std::vector<std::size_t>& rf_row_start_;  ///< CSR: row -> basis slots
  std::vector<std::size_t>& rf_row_fill_;
  std::vector<int>& rf_row_slot_;
  std::vector<int>& rf_row_queue_;
  std::vector<int>& rf_col_queue_;
  std::vector<int>& rf_kernel_;
  std::vector<std::pair<int, double>>& rf_spill_;
  /// build()'s identity basis, saved by try_warm_start for the fallback.
  std::vector<int>& initial_basis_;
  int cursor_ = 0;
  int etas_since_refactor_ = 0;
  bool workspace_reused_ = false;
  std::size_t capacity_bytes_before_ = 0;
  std::int64_t bland_activations_ = 0;
  std::int64_t refactor_count_ = 0;
  std::int64_t refactor_failures_ = 0;
  std::int64_t bump_peak_ = 0;
  std::int64_t eta_peak_ = 0;
  std::int64_t pricing_sections_ = 0;
};

/// The per-thread default arena: workspace reuse is the default, not a
/// per-call-site opt-in. Every thread that solves LPs — each BatchRunner /
/// SolveService worker, each pipeline's calling thread — keeps one warm
/// workspace, so a sequence of solves stops churning the heap with no API
/// changes at any call site. Safe because solve_lp never nests on
/// one thread (the engine does not call back into solve_lp), and a
/// thread_local is exclusive to its thread by construction. Callers that
/// need a genuinely cold solve (tests, allocation baselines) pass their
/// own fresh workspace via SimplexOptions::workspace, which always wins.
SimplexWorkspace& thread_default_workspace() {
  static thread_local SimplexWorkspace workspace;
  return workspace;
}

}  // namespace

SolveStatus lp_status_to_solve(LpStatus status) noexcept {
  switch (status) {
    case LpStatus::kOptimal: return SolveStatus::kOk;
    case LpStatus::kInfeasible: return SolveStatus::kInfeasible;
    case LpStatus::kUnbounded: return SolveStatus::kNumericalFailure;
    case LpStatus::kIterationLimit: return SolveStatus::kLimitExceeded;
    case LpStatus::kDeadlineExceeded: return SolveStatus::kDeadlineExceeded;
    case LpStatus::kCancelled: return SolveStatus::kCancelled;
  }
  return SolveStatus::kNumericalFailure;
}

LpSolution solve_lp(const LpModel& model, const SimplexOptions& options) {
  LpSolution solution;
  // Already over the limit: skip even the presolve and CSC build.
  const SolveStatus entry = options.limits.check();
  if (entry != SolveStatus::kOk) {
    solution.status = entry == SolveStatus::kCancelled
                          ? LpStatus::kCancelled
                          : LpStatus::kDeadlineExceeded;
    return solution;
  }
  SimplexOptions opts = options;
  if (!opts.workspace) opts.workspace = &thread_default_workspace();
  PresolvedLp presolved = presolve_lp(model, opts);
  trace_set(opts.trace, "presolve.rows.dropped",
            presolved.summary.rows_dropped);
  trace_set(opts.trace, "presolve.cols.fixed", presolved.summary.cols_fixed);
  trace_set(opts.trace, "presolve.rows.normalized",
            presolved.summary.rows_normalized);
  if (presolved.summary.infeasible) {
    solution.status = LpStatus::kInfeasible;
    return solution;
  }
  // On the identity fast path the reduced model was never built: solve the
  // original directly, and skip the value remap / objective offset (both
  // are identity transforms by construction).
  RevisedSimplex engine(presolved.identity ? model : presolved.model, opts);
  solution = engine.solve();
  if (solution.status == LpStatus::kOptimal &&
      presolved.summary.unbounded_if_feasible) {
    solution.status = LpStatus::kUnbounded;
    solution.values.clear();
    return solution;
  }
  if (solution.status == LpStatus::kOptimal && !presolved.identity) {
    std::vector<double> values(static_cast<std::size_t>(model.num_variables()),
                               0.0);
    for (int c = 0; c < model.num_variables(); ++c) {
      const int mapped = presolved.column_map[static_cast<std::size_t>(c)];
      values[static_cast<std::size_t>(c)] =
          mapped >= 0 ? solution.values[static_cast<std::size_t>(mapped)]
                      : presolved.fixed_values[static_cast<std::size_t>(c)];
    }
    solution.values = std::move(values);
    solution.objective += presolved.summary.objective_offset;
  }
  return solution;
}

}  // namespace calisched
