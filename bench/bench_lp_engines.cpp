// Experiment E12 — LP engine comparison: dense tableau vs revised simplex.
//
// Solves the same TISE relaxations with both engines and records wall
// time, pivot counts, and refactorizations across instance sizes. The
// acceptance bar for the sparse engine is >= 3x over the dense tableau on
// the largest LP in the sweep with identical optimal objectives; measured
// speedups should be far larger, since a dense pivot costs O(rows x cols)
// while a revised pivot touches only stored nonzeros plus the eta file.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "gen/generators.hpp"
#include "harness.hpp"
#include "longwin/tise_lp.hpp"
#include "oracle/oracle.hpp"
#include "trace/trace.hpp"

namespace {

using namespace calisched;

/// Best-of-`reps` wall time in milliseconds (first call's solution kept).
template <typename Fn>
double time_ms(Fn&& fn, int reps) {
  double best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < reps; ++i) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const auto elapsed = std::chrono::steady_clock::now() - start;
    best = std::min(
        best,
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                .count()) /
            1e6);
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  BenchHarness bench("E12", "LP engines: dense tableau vs revised simplex",
                     argc, argv);

  Table& table = bench.table(
      "engines", {"n", "rows", "cols", "nnz", "dense-ms", "revised-ms",
                  "speedup", "dense-piv", "rev-piv", "refactors", "obj-diff"});

  double last_speedup = 0.0;
  double worst_obj_diff = 0.0;
  double revised_wall_ms = 0.0;  ///< total revised wall time across reps
  constexpr int kRevisedReps = 3;
  TraceContext revised_sweep("rev_total");  ///< every revised rep of the sweep
  for (const int n : {6, 10, 14, 20, 26, 32}) {
    GenParams params;
    params.seed = 42 + static_cast<std::uint64_t>(n);
    params.n = n;
    params.T = 10;
    params.machines = 2;
    params.horizon = 10 * params.T;
    params.max_proc = 10;
    const Instance instance = generate_long_window(params);
    const TiseLpModel built = build_tise_lp(instance, 3 * instance.machines);

    SimplexOptions revised_options;
    TraceContext& revised_trace =
        bench.trace().child("revised_n" + std::to_string(n));
    revised_options.trace = &revised_trace;

    LpSolution dense;
    LpSolution revised;
    // One timing-free solve each to size the repetition count.
    const double dense_once = time_ms(
        [&] { dense = oracle::solve_lp_dense(built.model); }, 1);
    const int dense_reps = dense_once > 500.0 ? 1 : 3;
    const double dense_ms = std::min(
        dense_once,
        time_ms([&] { dense = oracle::solve_lp_dense(built.model); },
                dense_reps));
    // revised_trace sums the work of all revised reps (the dense solves
    // are untraced), so rates divide by total wall, not best.
    const auto rev_start = std::chrono::steady_clock::now();
    const double revised_ms = time_ms(
        [&] { revised = solve_lp(built.model, revised_options); },
        kRevisedReps);
    const double rev_total_ms =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - rev_start)
                .count()) /
        1e6;
    revised_wall_ms += rev_total_ms;
    bench.lp_counters("rev_n" + std::to_string(n), revised_trace,
                      rev_total_ms, /*record_metrics=*/false);
    revised_sweep.absorb(revised_trace);

    const double speedup = revised_ms > 0.0 ? dense_ms / revised_ms : 0.0;
    const double obj_diff = std::fabs(dense.objective - revised.objective);
    last_speedup = speedup;
    worst_obj_diff = std::max(worst_obj_diff, obj_diff);
    const bool statuses_ok = dense.status == LpStatus::kOptimal &&
                             revised.status == LpStatus::kOptimal;
    bench.check("objective-match-n" + std::to_string(n),
                statuses_ok && obj_diff <= 1e-6);

    table.row()
        .cell(instance.size())
        .cell(built.model.num_rows())
        .cell(built.model.num_variables())
        .cell(built.model.num_nonzeros())
        .cell(dense_ms, 3)
        .cell(revised_ms, 3)
        .cell(speedup, 1)
        .cell(dense.phase1_pivots + dense.phase2_pivots)
        .cell(revised.phase1_pivots + revised.phase2_pivots)
        .cell(revised_trace.counter("refactor.count") / kRevisedReps)
        .cell(obj_diff, 9);
  }
  bench.print_table("engines",
                    "TISE LP (T=10, m=2, m'=6), both engines to optimality");
  bench.lp_counters("rev_total", revised_sweep, revised_wall_ms);
  bench.print_table("lp_counters",
                    "revised-engine work counters (all reps; counts are "
                    "deterministic, *_per_s rates are machine-dependent)");
  bench.metric("speedup_largest_instance", last_speedup);
  bench.metric("worst_objective_diff", worst_obj_diff);
  bench.check("revised >= 3x dense on largest LP", last_speedup >= 3.0);
  bench.note(
      "revised simplex is " + format_double(last_speedup, 1) +
      "x the dense tableau on the largest TISE LP in the sweep; objectives "
      "agree to " + format_double(worst_obj_diff, 9) +
      " (tolerance 1e-6). The gap widens with size: dense pivots are "
      "O(rows x cols) while revised pivots touch only column nonzeros plus "
      "the eta file.");
  return bench.finish();
}
