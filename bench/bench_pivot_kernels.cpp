// Experiment E17 — pivot-kernel microbenchmarks.
//
// The engine-level speedup claims (E12) bundle pricing, FTRAN/BTRAN, and
// refactorization into one wall-clock number; this bench isolates the
// pieces so a kernel regression is visible before it dilutes into an
// end-to-end average. Two layers:
//
//  * Solve layer — the largest E12 TISE LP, solved repeatedly against a
//    deliberately cold workspace (fresh arena per solve) and a warm one
//    (single arena reused). The warm phase is the allocation assertion
//    the sanitizer jobs lean on: after one warmup solve, a reused
//    workspace must report zero buffer growths — the arena has reached
//    the family's working size and the pivot loop allocates nothing.
//  * Kernel layer — synthetic CscMatrix / EtaFile instances exercising
//    gather-dot pricing, FTRAN, and BTRAN in fixed-repetition loops, so
//    the streamed-entry totals are machine-independent (gated) while the
//    entries/s rates track this machine's memory system (advisory).
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "gen/generators.hpp"
#include "harness.hpp"
#include "longwin/tise_lp.hpp"
#include "lp/revised_simplex.hpp"
#include "lp/simplex.hpp"
#include "lp/sparse.hpp"
#include "oracle/oracle.hpp"
#include "trace/trace.hpp"

namespace {

using namespace calisched;

/// Keeps kernel results observable so the optimizer cannot delete them.
volatile double g_sink = 0.0;

double wall_ms_since(std::chrono::steady_clock::time_point start) {
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(
                 std::chrono::steady_clock::now() - start)
                 .count()) /
         1e6;
}

/// Deterministic 64-bit generator (splitmix64): the synthetic kernel
/// operands must be identical on every machine so the streamed-entry
/// totals can gate the regression checker.
struct SplitMix {
  std::uint64_t state;
  std::uint64_t next() {
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  int below(int bound) { return static_cast<int>(next() % static_cast<std::uint64_t>(bound)); }
  /// Uniform in [-0.5, 0.5): small values keep repeated eta applications
  /// numerically tame.
  double small() { return static_cast<double>(next() >> 11) / 9007199254740992.0 - 0.5; }
};

}  // namespace

int main(int argc, char** argv) {
  BenchHarness bench("E17", "pivot-kernel microbenchmarks", argc, argv);

  // --- solve layer: cold vs warm workspace on the largest E12 LP ---------
  GenParams params;
  params.seed = 42 + 32;
  params.n = 32;
  params.T = 10;
  params.machines = 2;
  params.horizon = 10 * params.T;
  params.max_proc = 10;
  const Instance instance = generate_long_window(params);
  const TiseLpModel built = build_tise_lp(instance, 3 * instance.machines);

  const LpSolution dense = oracle::solve_lp_dense(built.model);

  SimplexOptions revised_options;

  constexpr int kSolveReps = 5;
  double cold_objective = 0.0;

  TraceContext cold_trace("simplex");
  revised_options.trace = &cold_trace;
  const auto cold_start = std::chrono::steady_clock::now();
  for (int rep = 0; rep < kSolveReps; ++rep) {
    SimplexWorkspace fresh;  // new arena per solve: every buffer regrows
    revised_options.workspace = &fresh;
    const LpSolution solution = solve_lp(built.model, revised_options);
    cold_objective = solution.objective;
  }
  const double cold_ms = wall_ms_since(cold_start);
  bench.lp_counters("cold", cold_trace, cold_ms, /*record_metrics=*/false);

  SimplexWorkspace shared;
  revised_options.workspace = &shared;
  revised_options.trace = nullptr;
  double warm_objective = 0.0;
  warm_objective = solve_lp(built.model, revised_options).objective;  // warmup
  TraceContext warm_trace("simplex");
  revised_options.trace = &warm_trace;
  const auto warm_start = std::chrono::steady_clock::now();
  for (int rep = 0; rep < kSolveReps; ++rep) {
    warm_objective = solve_lp(built.model, revised_options).objective;
  }
  const double warm_ms = wall_ms_since(warm_start);
  bench.lp_counters("warm", warm_trace, warm_ms);
  bench.print_table("lp_counters",
                    "n=32 TISE LP x" + std::to_string(kSolveReps) +
                        ": fresh arena per solve vs one reused arena");

  bench.check("revised matches dense oracle",
              dense.status == LpStatus::kOptimal &&
                  std::fabs(cold_objective - dense.objective) <= 1e-6 &&
                  std::fabs(warm_objective - dense.objective) <= 1e-6);
  // The sanitizer jobs run this binary for these two checks: a reused
  // arena at working size must stop allocating entirely.
  bench.check("warm workspace stops allocating",
              warm_trace.counter("workspace.grown") == 0);
  bench.check("warm solves all reuse the workspace",
              warm_trace.counter("workspace.reused") == kSolveReps);

  // --- kernel layer: synthetic operands, fixed repetition counts ---------
  constexpr int kRows = 1024;       // dense vector length
  constexpr int kCols = 2048;       // pricing matrix columns
  constexpr int kNnzPerCol = 8;     // nonzeros per column / off-pivot per eta
  constexpr int kEtas = 512;        // eta file length
  constexpr int kKernelReps = 400;  // fixed: totals must be deterministic

  SplitMix rng{0xE17ULL};
  CscMatrix matrix;
  matrix.reserve(kCols, static_cast<std::size_t>(kCols) * kNnzPerCol);
  for (int c = 0; c < kCols; ++c) {
    matrix.begin_column();
    for (int k = 0; k < kNnzPerCol; ++k) {
      matrix.push(rng.below(kRows), rng.small());
    }
  }
  EtaFile etas;
  for (int e = 0; e < kEtas; ++e) {
    etas.begin_eta(rng.below(kRows), 1.0 + rng.small());
    for (int k = 0; k < kNnzPerCol; ++k) {
      etas.push(rng.below(kRows), rng.small());
    }
  }
  std::vector<double> seed_vector(kRows);
  for (double& x : seed_vector) x = rng.small();

  Table& kernels = bench.table(
      "kernels", {"kernel", "reps", "entries", "entries_per_s", "checksum"});
  const auto run_kernel = [&](const std::string& name, auto&& body,
                              auto&& drain) {
    // One untimed pass warms the cache and drains stale tallies.
    body();
    (void)drain();
    double checksum = 0.0;
    const auto start = std::chrono::steady_clock::now();
    for (int rep = 0; rep < kKernelReps; ++rep) checksum = body();
    const double ms = wall_ms_since(start);
    const KernelStats stats = drain();
    const double entries_per_s =
        ms > 0.0 ? static_cast<double>(stats.entries) / (ms / 1e3) : 0.0;
    kernels.row()
        .cell(name)
        .cell(kKernelReps)
        .cell(stats.entries)
        .cell(entries_per_s, 0)
        .cell(checksum, 6);
    bench.metric(name + "_entries", static_cast<double>(stats.entries));
    bench.metric(name + "_entries_per_s", entries_per_s);
    bench.check(name + " checksum finite", std::isfinite(checksum));
    g_sink = checksum;
    return checksum;
  };

  std::vector<double> work = seed_vector;
  const double pricing_first = run_kernel(
      "pricing_gather_dot",
      [&] {
        double total = 0.0;
        matrix.dot_range(0, kCols, seed_vector, [](int) { return false; },
                         [&](int, double dot) { total += dot; });
        return total;
      },
      [&] { return matrix.take_stats(); });
  const double ftran_first = run_kernel(
      "ftran",
      [&] {
        work = seed_vector;  // reset: repeated application must not compound
        etas.ftran(work);
        double total = 0.0;
        for (const double x : work) total += x;
        return total;
      },
      [&] { return etas.take_stats(); });
  const double btran_first = run_kernel(
      "btran",
      [&] {
        work = seed_vector;
        etas.btran(work);
        double total = 0.0;
        for (const double x : work) total += x;
        return total;
      },
      [&] { return etas.take_stats(); });
  bench.print_table("kernels",
                    "synthetic operands (" + std::to_string(kRows) +
                        " rows, " + std::to_string(kCols) + " columns, " +
                        std::to_string(kEtas) +
                        " etas), fixed-rep loops; entry totals gate, rates "
                        "are advisory");

  // Re-run each kernel once and require bit-identical results: the
  // unrolled/reassociated kernels must stay deterministic on one machine.
  double pricing_again = 0.0;
  matrix.dot_range(0, kCols, seed_vector, [](int) { return false; },
                   [&](int, double dot) { pricing_again += dot; });
  (void)matrix.take_stats();
  work = seed_vector;
  etas.ftran(work);
  double ftran_again = 0.0;
  for (const double x : work) ftran_again += x;
  work = seed_vector;
  etas.btran(work);
  double btran_again = 0.0;
  for (const double x : work) btran_again += x;
  (void)etas.take_stats();
  bench.check("kernel results reproducible",
              pricing_again == pricing_first && ftran_again == ftran_first &&
                  btran_again == btran_first);

  bench.note(
      "cold-vs-warm isolates the arena: identical pivot counts and "
      "objectives, but the reused workspace reports zero buffer growths "
      "after warmup while every cold solve regrows its buffers. The kernel "
      "loops pin the streamed-entry totals (deterministic, gated) next to "
      "this machine's achieved entries/s (advisory).");
  return bench.finish();
}
