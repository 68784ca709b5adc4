// Experiment E14 — intra-solve parallelism.
//
// Exercises the IntervalOptions::threads fan-out: one wide short-window
// instance (many disjoint 2*gamma*T intervals, the LP-rounding box doing
// real per-interval work) solved at 1/2/4/8 worker threads, recording wall
// time and the byte-identity of the serialized schedule. The acceptance
// bar is >= 2x at 4 threads — but like E13 the speedup check is gated on
// >= 4 CPUs in the process's affinity mask, with the host's parallel
// capacity, measured at start, recorded beside it; the determinism check
// runs everywhere.
#include <chrono>
#include <sstream>
#include <string>

#include "core/schedule_io.hpp"
#include "gen/generators.hpp"
#include "harness.hpp"
#include "mm/lp_rounding_mm.hpp"
#include "shortwin/short_pipeline.hpp"
#include "verify/verify.hpp"

namespace {

using namespace calisched;

double elapsed_ms(std::chrono::steady_clock::time_point start) {
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(
                 std::chrono::steady_clock::now() - start)
                 .count()) /
         1e6;
}

}  // namespace

int main(int argc, char** argv) {
  BenchHarness bench("E14", "intra-solve parallelism", argc, argv);
  const BenchHarness::CpuCapacity cpus = bench.cpu_capacity();

  GenParams params;
  params.seed = 42;
  params.n = static_cast<int>(bench.args().get_int("n", 480));
  params.T = 10;
  params.machines = 2;
  params.horizon = 80 * params.T;  // ~20 disjoint intervals per pass
  params.max_proc = 9;
  const Instance instance = generate_short_window(params);
  // Heavy per-interval work: one start-time LP + many rounding samples per
  // interval, so the fan-out has something worth parallelizing.
  LpRoundingMM::Options box_options;
  box_options.samples = 256;
  const LpRoundingMM box(box_options);

  Table& fanout = bench.table(
      "fanout", {"threads", "intervals", "cals", "wall-ms", "speedup"});

  double single_ms = 0.0;
  double four_ms = 0.0;
  std::string reference_bytes;
  bool all_identical = true;
  bool all_feasible = true;
  for (const int threads : {1, 2, 4, 8}) {
    IntervalOptions options;
    options.threads = threads;
    const auto start = std::chrono::steady_clock::now();
    const ShortWindowResult result = solve_short_window(instance, box, options);
    const double wall_ms = elapsed_ms(start);
    all_feasible = all_feasible && result.feasible;
    if (!result.feasible) continue;

    std::ostringstream bytes;
    write_schedule(bytes, result.schedule);
    if (threads == 1) {
      single_ms = wall_ms;
      reference_bytes = bytes.str();
      bench.check("sequential schedule verifies",
                  verify_ise(instance, result.schedule).ok());
    }
    if (threads == 4) four_ms = wall_ms;
    all_identical = all_identical && bytes.str() == reference_bytes;

    fanout.row()
        .cell(std::int64_t{threads})
        .cell(std::int64_t{result.telemetry.intervals_pass1 +
                           result.telemetry.intervals_pass2})
        .cell(result.telemetry.total_calibrations)
        .cell(wall_ms, 1)
        .cell(wall_ms > 0.0 ? single_ms / wall_ms : 0.0, 2);
  }
  bench.print_table(
      "fanout", "short-window fan-out, lp-rounding box, n=" +
                    std::to_string(params.n) + ", horizon=" +
                    std::to_string(params.horizon) +
                    ", usable CPUs: " + std::to_string(cpus.usable_cpus) +
                    ", parallel capacity: " +
                    format_double(cpus.parallel_capacity, 2));

  const double speedup = four_ms > 0.0 ? single_ms / four_ms : 0.0;
  bench.metric("speedup_4_threads", speedup);
  bench.check("all thread counts feasible", all_feasible);
  bench.check("schedule byte-identical across thread counts", all_identical);
  if (cpus.usable_cpus >= 4) {
    bench.check("4-thread solve >= 2x single-thread", speedup >= 2.0);
  }

  bench.note(
      "the interval fan-out merges per-task results and scratch traces in "
      "interval order, so the schedule bytes are identical at every thread "
      "count; 4-thread speedup on this machine: " +
      format_double(speedup, 2) + "x (" + std::to_string(cpus.usable_cpus) +
      " usable CPUs, parallel capacity " +
      format_double(cpus.parallel_capacity, 2) +
      "; the >= 2x bar applies with >= 4 usable CPUs, where the disjoint "
      "intervals solve independently).");
  return bench.finish();
}
