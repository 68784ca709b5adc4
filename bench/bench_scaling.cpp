// Experiment E8 — scalability.
//
// Timing series for the components the paper's Theorem 1 multiplies
// together: the TISE LP build+solve (dominant), the rounding + EDF steps,
// the short-window MM reduction, and the combined solver; plus batch
// throughput over the thread pool (instances solved in parallel).
//
// The end-to-end rows run the combined solver on the CLI's `mixed` family
// (n = 100..1600, horizon 10n, two seeds) plus one dense single-component
// `long` instance, and report how the TISE LP splits into time-disjoint
// blocks, the LP span's share of the solve, and wall time per job. Counts
// (blocks, pivots, calibrations) are gated metrics; every row must be
// verifier-clean and satisfy the Theorem 12 chain.
//
// The lower-bound rows time calibration_windowed_bound (the denominator of
// the CLI's realized ratio) on the CLI's `short` and `mixed` families at
// horizon 10n. The bound's integer is gated for exact equality
// ("windowed_bound_*"); its wall time is advisory.
//
// Timing protocol: each configuration is solved once to pick a repetition
// count that fits a ~300 ms budget, then re-run best-of-reps on the steady
// clock. Best-of (not mean) is the standard estimator for a quiet machine;
// the JSON record keeps the rep count alongside each row.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <string>

#include "baselines/baseline.hpp"
#include "baselines/calibration_bounds.hpp"
#include "gen/generators.hpp"
#include "harness.hpp"
#include "longwin/long_pipeline.hpp"
#include "longwin/tise_lp.hpp"
#include "mm/lp_rounding_mm.hpp"
#include "mm/mm.hpp"
#include "shortwin/short_pipeline.hpp"
#include "solver/ise_solver.hpp"
#include "trace/trace.hpp"
#include "util/thread_pool.hpp"
#include "verify/verify.hpp"

namespace {

using namespace calisched;

/// Keeps results observable so the optimizer cannot delete timed work.
volatile double g_sink = 0.0;

GenParams scaling_params(int n, std::uint64_t seed) {
  GenParams params;
  params.seed = seed;
  params.n = n;
  params.T = 10;
  params.machines = 2;
  params.horizon = 10 * params.T;
  params.max_proc = 10;
  return params;
}

struct Timing {
  double best_ms = std::numeric_limits<double>::infinity();
  int reps = 0;
};

/// One calibration call sizes the repetition count for a ~300 ms budget,
/// then best-of-reps.
template <typename Fn>
Timing measure(Fn&& fn) {
  constexpr double kBudgetMs = 300.0;
  const auto once = [&] {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const auto elapsed = std::chrono::steady_clock::now() - start;
    return static_cast<double>(
               std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                   .count()) /
           1e6;
  };
  Timing timing;
  const double first = once();
  timing.best_ms = first;
  const int reps = first > 0.0
                       ? static_cast<int>(std::clamp(kBudgetMs / first, 1.0, 25.0))
                       : 25;
  for (int i = 0; i < reps; ++i) timing.best_ms = std::min(timing.best_ms, once());
  timing.reps = reps + 1;
  return timing;
}

}  // namespace

int main(int argc, char** argv) {
  BenchHarness bench("E8", "Scalability: per-component timing series", argc,
                     argv);

  Table& table = bench.table(
      "scaling", {"series", "n", "reps", "best-ms", "detail"});
  bool all_finite = true;
  const auto record = [&](const std::string& series, int n,
                          const Timing& timing, const std::string& detail) {
    all_finite = all_finite && std::isfinite(timing.best_ms);
    table.row().cell(series).cell(n).cell(timing.reps).cell(timing.best_ms, 3)
        .cell(detail.empty() ? "-" : detail);
  };

  // --- TISE LP build+solve (the dominant long-window cost) ---------------
  for (const int n : {6, 12, 18, 24}) {
    const Instance instance = generate_long_window(scaling_params(n, 42));
    TiseFractional fractional;
    TraceContext lp_trace("simplex");
    SimplexOptions lp_options;
    lp_options.trace = &lp_trace;
    const auto lp_start = std::chrono::steady_clock::now();
    const Timing timing = measure([&] {
      fractional = solve_tise_lp(instance, 3 * instance.machines, lp_options);
      g_sink = fractional.objective;
    });
    const double lp_total_ms =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - lp_start)
                .count()) /
        1e6;
    // Rows only, no gated metrics: measure() picks its repetition count
    // from the first timing, so the *totals* here are machine-dependent
    // even though per-solve work is deterministic. The rates are what the
    // sweep is for — how pivots/s holds up as n grows.
    bench.lp_counters("tise_n" + std::to_string(n), lp_trace, lp_total_ms,
                      /*record_metrics=*/false);
    if (n == 24 && lp_total_ms > 0.0) {
      const std::int64_t pivots = lp_trace.counter("pivots.phase1") +
                                  lp_trace.counter("pivots.phase2") +
                                  lp_trace.counter("pivots.expel");
      bench.metric("tise_n24_pivots_per_s",
                   static_cast<double>(pivots) / (lp_total_ms / 1e3));
    }
    record("tise_lp_solve", n, timing,
           "pivots=" + std::to_string(fractional.pivots) +
               " lp_rows=" + std::to_string(fractional.lp_rows));
  }

  // --- full long-window pipeline (LP + rounding + EDF) -------------------
  for (const int n : {6, 12, 18, 24}) {
    const Instance instance = generate_long_window(scaling_params(n, 43));
    const Timing timing = measure([&] {
      const LongWindowResult result = solve_long_window(instance);
      g_sink = static_cast<double>(result.telemetry.total_calibrations);
    });
    record("long_pipeline", n, timing, "");
  }

  // --- short-window pipeline with the greedy MM --------------------------
  for (const int n : {20, 60, 120, 240}) {
    const Instance instance = generate_short_window(scaling_params(n, 44));
    const GreedyEdfMM mm;
    const Timing timing = measure([&] {
      const ShortWindowResult result = solve_short_window(instance, mm);
      g_sink = static_cast<double>(result.telemetry.total_calibrations);
    });
    record("short_pipeline_greedy", n, timing, "");
  }

  // --- end-to-end solver on mixed instances ------------------------------
  for (const int n : {8, 16, 24}) {
    const Instance instance = generate_mixed(scaling_params(n, 45), 0.5);
    const Timing timing = measure([&] {
      const IseSolveResult result = solve_ise(instance);
      g_sink = static_cast<double>(result.total_calibrations);
    });
    record("end_to_end", n, timing, "");
  }

  // --- batch throughput: thread pool vs serial loop ----------------------
  double parallel_items_per_s = 0.0;
  double serial_items_per_s = 0.0;
  for (const std::size_t batch : {std::size_t{8}, std::size_t{32}}) {
    std::vector<Instance> instances;
    instances.reserve(batch);
    for (std::size_t i = 0; i < batch; ++i) {
      instances.push_back(generate_mixed(scaling_params(10, 100 + i), 0.5));
    }
    const Timing parallel_timing = measure([&] {
      parallel_for(default_pool(), batch, [&](std::size_t i) {
        const IseSolveResult result = solve_ise(instances[i]);
        g_sink = static_cast<double>(result.total_calibrations);
      });
    });
    const Timing serial_timing = measure([&] {
      for (std::size_t i = 0; i < batch; ++i) {
        const IseSolveResult result = solve_ise(instances[i]);
        g_sink = static_cast<double>(result.total_calibrations);
      }
    });
    parallel_items_per_s =
        static_cast<double>(batch) / (parallel_timing.best_ms / 1e3);
    serial_items_per_s =
        static_cast<double>(batch) / (serial_timing.best_ms / 1e3);
    record("batch_parallel", static_cast<int>(batch), parallel_timing,
           "items/s=" + format_double(parallel_items_per_s, 0));
    record("batch_serial", static_cast<int>(batch), serial_timing,
           "items/s=" + format_double(serial_items_per_s, 0));
  }

  // --- MM engines --------------------------------------------------------
  for (const int n : {8, 16, 24}) {
    GenParams params = scaling_params(n, 47);
    params.max_proc = 8;
    const Instance instance = generate_short_window(params);
    const LpRoundingMM mm;
    const Timing timing = measure([&] {
      const MMResult result = mm.minimize(instance);
      g_sink = static_cast<double>(result.schedule.machines);
    });
    record("lp_rounding_mm", n, timing, "");
  }
  for (const int n : {6, 9, 12}) {
    GenParams params = scaling_params(n, 46);
    params.max_proc = 6;
    const Instance instance = generate_short_window(params);
    const ExactMM mm;
    const Timing timing = measure([&] {
      const MMResult result = mm.minimize(instance);
      g_sink = static_cast<double>(result.schedule.machines);
    });
    record("exact_mm", n, timing, "");
  }

  // --- greedy-lazy baseline ----------------------------------------------
  for (const int n : {20, 80, 160}) {
    GenParams params = scaling_params(n, 48);
    params.machines = 8;             // roomy enough that the heuristic
    params.horizon = 40 * params.T;  // actually completes its schedule
    const Instance instance = generate_mixed(params, 0.5);
    const GreedyLazyIse heuristic;
    bool feasible = false;
    const Timing timing = measure([&] {
      const BaselineResult result = heuristic.solve(instance);
      feasible = result.feasible;
      g_sink = result.feasible ? 1.0 : 0.0;
    });
    record("greedy_lazy_ise", n, timing,
           feasible ? "feasible" : "infeasible");
  }

  // --- end to end: TISE LP block structure and per-job wall time --------
  Table& e2e = bench.table(
      "end_to_end_scaling",
      {"instance", "n", "blocks", "largest", "lp-pivots", "lp-ms", "lp-share",
       "solve-ms", "us/job", "calibrations", "verified", "thm12-chain"});
  bool single_block = false;
  const auto end_to_end = [&](const std::string& label, const Instance& instance) {
    TraceContext trace("solve_ise");
    IseSolverOptions options;
    options.trace = &trace;
    const auto solve_start = std::chrono::steady_clock::now();
    const IseSolveResult traced = solve_ise(instance, options);
    const double solve_ms =
        static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                std::chrono::steady_clock::now() - solve_start)
                                .count()) /
        1e6;
    const TraceContext* lw = trace.find("long_window");
    const bool verified =
        traced.feasible && verify_ise(instance, traced.schedule).ok();
    // Theorem 12's internal chain: rounded <= 2 * LP, total = 2 * rounded.
    const bool chain =
        lw != nullptr &&
        static_cast<double>(lw->counter("calibrations.rounded")) <=
            2.0 * lw->value("lp.objective") + 1e-6 &&
        lw->counter("calibrations.total") ==
            2 * lw->counter("calibrations.rounded");
    const Timing timing = measure([&] {
      const IseSolveResult result = solve_ise(instance);
      g_sink = static_cast<double>(result.total_calibrations);
    });
    const double lp_ms = lw ? static_cast<double>(lw->span_ns("lp")) / 1e6 : 0.0;
    const std::int64_t blocks = lw ? lw->counter("lp.components") : 0;
    const std::int64_t largest = lw ? lw->counter("lp.largest_component_jobs") : 0;
    const std::int64_t pivots = lw ? lw->counter("lp.pivots") : 0;
    const double us_per_job =
        timing.best_ms * 1e3 / static_cast<double>(instance.size());
    e2e.row().cell(label).cell(static_cast<int>(instance.size()))
        .cell(blocks).cell(largest).cell(pivots).cell(lp_ms, 2)
        .cell(lp_ms / solve_ms, 3).cell(solve_ms, 2)
        .cell(us_per_job, 1)
        .cell(static_cast<std::int64_t>(traced.total_calibrations))
        .cell(std::string(verified ? "yes" : "NO"))
        .cell(std::string(chain ? "yes" : "NO"));
    bench.metric("e2e_" + label + "_lp_blocks", static_cast<double>(blocks));
    bench.metric("e2e_" + label + "_largest_block_jobs",
                 static_cast<double>(largest));
    bench.metric("e2e_" + label + "_lp_pivots", static_cast<double>(pivots));
    bench.metric("e2e_" + label + "_calibrations",
                 static_cast<double>(traced.total_calibrations));
    bench.metric("e2e_" + label + "_lp_time_share", lp_ms / solve_ms);
    bench.metric("e2e_" + label + "_us_per_job", us_per_job);
    bench.check("e2e " + label + " verifier-clean", verified);
    bench.check("e2e " + label + " Theorem 12 chain", chain);
    return blocks;
  };
  for (const int n : {100, 200, 400, 800, 1600}) {
    for (const std::uint64_t seed : {1, 2}) {
      GenParams params = scaling_params(n, seed);
      params.horizon = 10 * static_cast<Time>(n);  // the CLI's mixed family
      end_to_end("mixed_n" + std::to_string(n) + "_seed" + std::to_string(seed),
                 generate_mixed(params, 0.5));
    }
  }
  {
    // Dense single-component LP: every window overlaps the next, so the
    // split must leave the LP whole (and its cost measured honestly).
    GenParams params = scaling_params(200, 1);
    params.machines = 16;
    params.horizon = 6 * params.T;
    single_block = end_to_end("long_dense_n200", generate_long_window(params)) == 1;
  }

  // --- lower bound: calibration_windowed_bound on the CLI's families -----
  Table& bound_table = bench.table(
      "lower_bound", {"instance", "n", "reps", "best-ms", "bound", "work-bound"});
  struct BoundRow {
    const char* family;
    int n;
  };
  bool bounds_sound = true;
  for (const BoundRow& row : {BoundRow{"short", 400}, BoundRow{"short", 800},
                              BoundRow{"short", 1600}, BoundRow{"mixed", 400},
                              BoundRow{"mixed", 1600}}) {
    GenParams params = scaling_params(row.n, 1);
    params.horizon = 10 * static_cast<Time>(row.n);
    const Instance instance = generate_family(row.family, params);
    std::int64_t bound = 0;
    const Timing timing = measure([&] {
      bound = calibration_windowed_bound(instance);
      g_sink = static_cast<double>(bound);
    });
    const std::int64_t work = calibration_work_bound(instance);
    bounds_sound = bounds_sound && bound >= work;
    const std::string label =
        std::string(row.family) + "_n" + std::to_string(row.n);
    bound_table.row().cell(label).cell(row.n).cell(timing.reps)
        .cell(timing.best_ms, 3).cell(bound).cell(work);
    bench.metric("windowed_bound_" + label, static_cast<double>(bound));
    bench.metric("windowed_bound_" + label + "_ms", timing.best_ms);
  }

  bench.print_table("scaling",
                    "best-of-reps wall time per component (T=10, m=2)");
  bench.print_table("end_to_end_scaling",
                    "combined solver end to end: TISE LP blocks, LP share, "
                    "best-of-reps wall time per job");
  bench.print_table("lp_counters",
                    "TISE LP work counters per sweep point (all reps)");
  bench.print_table("lower_bound",
                    "calibration_windowed_bound, best-of-reps wall time "
                    "(CLI families, T=10, m=2, horizon 10n, seed 1)");
  bench.metric("batch32_parallel_items_per_s", parallel_items_per_s);
  bench.metric("batch32_serial_items_per_s", serial_items_per_s);
  bench.metric("batch32_parallel_speedup",
               serial_items_per_s > 0.0
                   ? parallel_items_per_s / serial_items_per_s
                   : 0.0);
  bench.check("all timings finite", all_finite);
  // 4 tise + 4 long + 4 short + 3 end-to-end + 4 batch (2 sizes x
  // parallel/serial) + 3 lp-rounding + 3 exact + 3 greedy-lazy.
  bench.check("every series recorded", table.row_count() == 28);
  bench.check("every end-to-end row recorded", e2e.row_count() == 11);
  bench.check("dense long instance stays one LP block", single_block);
  bench.check("every lower-bound row recorded",
              bound_table.row_count() == 5);
  bench.check("windowed bound >= work bound", bounds_sound);
  bench.note(
      "The TISE LP dominates long-window cost and the series bounds how "
      "instance size n translates into wall time for each pipeline stage; "
      "batch rows compare thread-pool throughput against a serial loop over "
      "the same instances.");
  return bench.finish();
}
