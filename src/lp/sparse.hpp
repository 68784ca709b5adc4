// Sparse building blocks for the revised simplex engine.
//
//  * CscMatrix — compressed-sparse-column store of the standard-form
//    constraint matrix [structural | slack/surplus | artificial]. The
//    revised simplex never forms a tableau; every pivot touches only the
//    stored nonzeros of the columns involved.
//  * EtaFile — the basis inverse in product form (PFI): B^{-1} is held as
//    a sequence of eta matrices, one appended per pivot, each differing
//    from the identity in a single column. FTRAN applies them in order to
//    a column (B^{-1} a), BTRAN applies their transposes in reverse to a
//    row (y' B^{-1}). The file is rebuilt from the basis columns during
//    periodic refactorization, which bounds its length and resets
//    accumulated roundoff.
//
// Memory layout: both containers are structure-of-arrays over flat pools.
// The eta file keeps pivot rows, pivot reciprocals, and a starts array in
// three parallel vectors (one entry per eta) over a shared off-pivot
// nonzero pool, so FTRAN/BTRAN walk four contiguous streams front to back
// instead of chasing per-eta records. Gather-dot inner loops are unrolled
// four ways; the accumulator split reassociates the sum, which both
// engines' tolerances absorb (the dense oracle differs in operation order
// anyway). Each kernel counts the etas it fired and the entries it
// streamed into mutable tallies (take_stats()); the engine drains them
// once per solve into the solve's trace (`eta.applied`, `eta.entries`,
// `pricing.columns`, `pricing.entries`), so the kernels touch no shared
// state mid-solve.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace calisched {

/// Work tallies drained by the engine once per solve and added to the
/// solve's trace (lp/revised_simplex.cpp, RevisedSimplex::record_work).
struct KernelStats {
  std::int64_t fired = 0;    ///< eta applications / columns dotted
  std::int64_t entries = 0;  ///< nonzero (value, row) pairs streamed
};

/// Compressed-sparse-column matrix. Columns are built left to right via
/// begin_column()/push() — or in bulk via append_sized_columns() when the
/// caller counting-sorts entries itself; `starts` has one extra trailing
/// entry so column c's nonzeros live in [starts[c], starts[c+1]).
class CscMatrix {
 public:
  CscMatrix() { starts_.push_back(0); }

  void reserve(int columns, std::size_t nonzeros) {
    starts_.reserve(static_cast<std::size_t>(columns) + 1);
    rows_.reserve(nonzeros);
    values_.reserve(nonzeros);
  }

  /// Drops every column but keeps the allocated buffers, so a rebuild into
  /// the same matrix (workspace reuse across solves) allocates nothing once
  /// the buffers have grown to the family's working size.
  void clear() {
    starts_.clear();
    starts_.push_back(0);
    rows_.clear();
    values_.clear();
  }

  /// Opens the next column; returns its index.
  int begin_column() {
    starts_.push_back(starts_.back());
    return num_columns() - 1;
  }

  /// Appends a nonzero to the most recently opened column.
  void push(int row, double value) {
    rows_.push_back(row);
    values_.push_back(value);
    ++starts_.back();
  }

  /// Appends `count` columns at once, column c sized sizes[c], entries
  /// uninitialized — the counting-sort bulk build: the caller scatters
  /// (row, value) pairs into place through column_rows_mut()/
  /// column_values_mut() instead of growing one column at a time.
  void append_sized_columns(const int* sizes, int count) {
    std::size_t total = values_.size();
    for (int c = 0; c < count; ++c) {
      total += static_cast<std::size_t>(sizes[c]);
      starts_.push_back(total);
    }
    rows_.resize(total);
    values_.resize(total);
  }
  [[nodiscard]] int* column_rows_mut(int column) noexcept {
    return rows_.data() + column_begin(column);
  }
  [[nodiscard]] double* column_values_mut(int column) noexcept {
    return values_.data() + column_begin(column);
  }

  [[nodiscard]] int num_columns() const noexcept {
    return static_cast<int>(starts_.size()) - 1;
  }
  [[nodiscard]] std::size_t num_nonzeros() const noexcept {
    return values_.size();
  }
  [[nodiscard]] std::size_t column_begin(int column) const noexcept {
    return starts_[static_cast<std::size_t>(column)];
  }
  [[nodiscard]] std::size_t column_end(int column) const noexcept {
    return starts_[static_cast<std::size_t>(column) + 1];
  }
  [[nodiscard]] std::size_t column_size(int column) const noexcept {
    return column_end(column) - column_begin(column);
  }
  [[nodiscard]] int row(std::size_t k) const noexcept { return rows_[k]; }
  [[nodiscard]] double value(std::size_t k) const noexcept { return values_[k]; }

  /// Bytes held across all pools (capacity, not size) — the workspace
  /// growth detector sums these to prove reused solves stopped allocating.
  [[nodiscard]] std::size_t capacity_bytes() const noexcept {
    return starts_.capacity() * sizeof(std::size_t) +
           rows_.capacity() * sizeof(int) +
           values_.capacity() * sizeof(double);
  }

  /// Scatters column `column` into the dense vector `out` (assumed zeroed
  /// on the column's rows beforehand).
  void scatter(int column, std::vector<double>& out) const {
    for (std::size_t k = column_begin(column); k < column_end(column); ++k) {
      out[static_cast<std::size_t>(rows_[k])] += values_[k];
    }
  }

  /// Dot product of column `column` with a dense vector.
  [[nodiscard]] double dot(int column, const std::vector<double>& dense) const {
    const std::size_t begin = column_begin(column);
    const std::size_t end = column_end(column);
    stats_.fired += 1;
    stats_.entries += static_cast<std::int64_t>(end - begin);
    return gather_dot(begin, end, dense.data());
  }

  /// Dots every column in [lo, hi) with `dense`, invoking fn(column, dot)
  /// unless skip(column) is true. The column range is contiguous in the
  /// nonzero pool, so this is one sequential scan — the pricing loop's
  /// cache behaviour depends on it (per-column dot() calls re-derive
  /// bounds and defeat prefetching).
  template <typename Skip, typename Fn>
  void dot_range(int lo, int hi, const std::vector<double>& dense, Skip&& skip,
                 Fn&& fn) const {
    const double* const d = dense.data();
    std::size_t k = column_begin(lo);
    std::int64_t fired = 0;
    std::int64_t entries = 0;
    for (int c = lo; c < hi; ++c) {
      const std::size_t end = column_end(c);
      if (!skip(c)) {
        ++fired;
        entries += static_cast<std::int64_t>(end - k);
        fn(c, gather_dot(k, end, d));
      }
      k = end;
    }
    stats_.fired += fired;
    stats_.entries += entries;
  }

  /// Returns and zeroes the kernel tallies accumulated since the last take.
  [[nodiscard]] KernelStats take_stats() const noexcept {
    const KernelStats out = stats_;
    stats_ = KernelStats{};
    return out;
  }

 private:
  /// sum(values[k] * dense[rows[k]]) over [begin, end): the shared
  /// gather-dot kernel, four independent accumulators for ILP on the
  /// gather-limited loads (reassociates the sum; see file comment).
  [[nodiscard]] double gather_dot(std::size_t begin, std::size_t end,
                                  const double* dense) const {
    const int* const rows = rows_.data();
    const double* const values = values_.data();
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    std::size_t k = begin;
    for (; k + 4 <= end; k += 4) {
      s0 += values[k] * dense[static_cast<std::size_t>(rows[k])];
      s1 += values[k + 1] * dense[static_cast<std::size_t>(rows[k + 1])];
      s2 += values[k + 2] * dense[static_cast<std::size_t>(rows[k + 2])];
      s3 += values[k + 3] * dense[static_cast<std::size_t>(rows[k + 3])];
    }
    for (; k < end; ++k) {
      s0 += values[k] * dense[static_cast<std::size_t>(rows[k])];
    }
    return (s0 + s1) + (s2 + s3);
  }

  std::vector<std::size_t> starts_;
  std::vector<int> rows_;
  std::vector<double> values_;
  mutable KernelStats stats_;
};

/// Product-form-of-the-inverse basis. Structure-of-arrays: eta e's pivot
/// row/reciprocal live at index e of two parallel vectors and its
/// off-pivot slice at [starts_[e], starts_[e+1]) of a shared nonzero pool,
/// so applying the file is a front-to-back (or back-to-front) walk over
/// contiguous streams.
class EtaFile {
 public:
  EtaFile() { starts_.push_back(0); }

  void clear() {
    pivot_rows_.clear();
    pivot_recips_.clear();
    starts_.clear();
    starts_.push_back(0);
    rows_.clear();
    values_.clear();
  }

  /// Appends the eta derived from pivoting the FTRANed column `w` (dense,
  /// length = row count) on `pivot_row`. `w[pivot_row]` must be nonzero.
  void append(int pivot_row, const std::vector<double>& w);

  /// Sparse append: opens an eta with the given pivot, then push() adds its
  /// off-pivot nonzeros. Used by refactorization for columns known to need
  /// no elimination (their FTRAN through the file so far is a no-op).
  void begin_eta(int pivot_row, double pivot_value) {
    pivot_rows_.push_back(pivot_row);
    pivot_recips_.push_back(1.0 / pivot_value);
    starts_.push_back(values_.size());
  }
  void push(int row, double value) {
    rows_.push_back(row);
    values_.push_back(value);
    ++starts_.back();
  }

  /// v := B^{-1} v  (apply etas oldest-first).
  void ftran(std::vector<double>& v) const;

  /// ftran() over a mostly-zero dense `v` whose nonzero positions are
  /// listed in `touched`; rows that become nonzero are appended to
  /// `touched`, so callers can gather the result without scanning the full
  /// vector. A cancelled-to-zero row may remain listed (and a refilled row
  /// listed twice); callers gathering results zero each row as they visit
  /// it, which both dedupes and restores the all-zero scratch invariant.
  void ftran_tracked(std::vector<double>& v, std::vector<int>& touched) const;

  /// ftran_tracked() for files whose etas have pairwise-distinct pivot
  /// rows (refactorization builds). `eta_of_row` maps a row to the index
  /// of the eta pivoted on it (-1 if none); with it, only the etas a
  /// nonzero can actually fire are visited (via a min-heap over eta
  /// indices), so the cost is proportional to the fill produced, not the
  /// file length. Refactorization relies on this to stay near-linear in
  /// basis nonzeros. `heap` is caller-owned scratch for the pending-eta
  /// min-heap (contents ignored on entry, unspecified on exit): the call
  /// runs once per basis column per refactorization, and an internal
  /// priority_queue would pay one heap allocation each time.
  void ftran_indexed(std::vector<double>& v, std::vector<int>& touched,
                     const std::vector<int>& eta_of_row,
                     std::vector<int>& heap) const;

  /// y := y B^{-1}  (apply eta transposes newest-first).
  void btran(std::vector<double>& y) const;

  [[nodiscard]] std::size_t size() const noexcept { return pivot_rows_.size(); }
  [[nodiscard]] std::size_t num_nonzeros() const noexcept {
    return values_.size() + pivot_rows_.size();  // off-pivot entries + pivots
  }

  /// Bytes held across all pools (capacity, not size); see
  /// CscMatrix::capacity_bytes().
  [[nodiscard]] std::size_t capacity_bytes() const noexcept {
    return pivot_rows_.capacity() * sizeof(int) +
           pivot_recips_.capacity() * sizeof(double) +
           starts_.capacity() * sizeof(std::size_t) +
           rows_.capacity() * sizeof(int) +
           values_.capacity() * sizeof(double);
  }

  /// Returns and zeroes the kernel tallies accumulated since the last take.
  [[nodiscard]] KernelStats take_stats() const noexcept {
    const KernelStats out = stats_;
    stats_ = KernelStats{};
    return out;
  }

 private:
  // Parallel per-eta records; starts_ carries one extra trailing entry so
  // eta e's off-pivot slice is [starts_[e], starts_[e+1]). Reciprocals are
  // stored (not pivots) so FTRAN/BTRAN multiply instead of divide — the
  // file is applied once per simplex iteration, and a division per eta
  // would dominate both transforms.
  std::vector<int> pivot_rows_;
  std::vector<double> pivot_recips_;
  std::vector<std::size_t> starts_;
  std::vector<int> rows_;
  std::vector<double> values_;
  mutable KernelStats stats_;
};

}  // namespace calisched
