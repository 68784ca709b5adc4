// Experiment E13 — batch-solve throughput and determinism across threads.
//
// Runs the combined Theorem-1 solver over one generated mixed batch with
// the BatchRunner at 1/2/4/8 worker threads, recording wall time,
// throughput, and the byte-identity of the timing-free JSONL output. The
// acceptance bar is >= 3x throughput at 8 threads over 1 thread on >= 200
// mixed instances with byte-identical records — but scaling is only
// measurable when the process has CPUs to scale onto, so the speedup
// check is gated on >= 4 CPUs in the process's affinity mask (the
// determinism check runs everywhere). The host's parallel capacity,
// measured at start, is recorded beside the verdict.
#include <chrono>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "runtime/batch.hpp"
#include "runtime/registry.hpp"
#include "trace/trace.hpp"

namespace {

using namespace calisched;

std::string records_jsonl(const std::vector<BatchRecord>& records) {
  std::ostringstream out;
  write_batch_jsonl(out, records, /*include_timing=*/false);
  return out.str();
}

/// Re-runs the batch with per-instance traces and folds them into one
/// context for BenchHarness::lp_counters. The pass runs on a fresh thread:
/// a one-worker batch solves on its calling thread, and a new thread
/// starts from a cold per-thread LP workspace, exactly as the timed pass
/// did, so the workspace counters match it too.
std::unique_ptr<TraceContext> traced_batch_work(
    const BatchRunner& runner, const std::vector<Instance>& instances,
    BatchOptions options) {
  options.collect_traces = true;
  std::vector<BatchRecord> records;
  std::thread([&] { records = runner.run(instances, options); }).join();
  auto work = std::make_unique<TraceContext>("batch");
  for (const BatchRecord& record : records) {
    work->absorb(*TraceContext::from_json(record.trace));
  }
  return work;
}

}  // namespace

int main(int argc, char** argv) {
  BenchHarness bench("E13", "batch-solve throughput across worker threads",
                     argc, argv);
  const BenchHarness::CpuCapacity cpus = bench.cpu_capacity();

  BatchSpec spec;
  spec.family = "mixed";
  spec.count = static_cast<std::size_t>(
      bench.args().get_int("count", 200));
  spec.params.seed = 1234;
  spec.params.n = 12;
  spec.params.T = 10;
  spec.params.machines = 2;
  spec.params.horizon = 100;
  spec.params.max_proc = 9;
  std::vector<std::uint64_t> seeds;
  const std::vector<Instance> instances = generate_batch(spec, &seeds);

  const Algorithm* combined = AlgorithmRegistry::builtin().find("combined");
  const BatchRunner runner(*combined);

  Table& table = bench.table(
      "throughput",
      {"threads", "instances", "solved", "wall-ms", "inst-per-s", "speedup"});

  double single_ms = 0.0;
  double eight_ms = 0.0;
  std::string reference_jsonl;
  bool all_identical = true;
  bool all_solved = true;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    BatchOptions options;
    options.threads = threads;
    options.seeds = seeds;
    const auto start = std::chrono::steady_clock::now();
    const std::vector<BatchRecord> records = runner.run(instances, options);
    const double wall_ms =
        static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                std::chrono::steady_clock::now() - start)
                                .count()) /
        1e6;

    // LP work per batch is deterministic at every thread count; workspace
    // reuses and buffer growths depend on how many pool workers actually
    // ran (each worker's first solve is cold), so only the single-thread
    // row — one warm workspace for the whole batch — gates the regression
    // checker. This is where the allocations-per-solve story shows up:
    // reuses ~ solves and growths plateau once the arena fits the family.
    // The work comes from a separate untimed traced pass, so the timed
    // pass above stays untraced.
    bench.lp_counters("t" + std::to_string(threads),
                      *traced_batch_work(runner, instances, options), wall_ms,
                      /*record_metrics=*/threads == 1);

    std::size_t solved = 0;
    for (const BatchRecord& record : records) solved += record.feasible;
    all_solved = all_solved && solved == records.size();

    const std::string jsonl = records_jsonl(records);
    if (threads == 1) {
      single_ms = wall_ms;
      reference_jsonl = jsonl;
    }
    if (threads == 8) eight_ms = wall_ms;
    all_identical = all_identical && jsonl == reference_jsonl;

    table.row()
        .cell(std::int64_t{static_cast<std::int64_t>(threads)})
        .cell(instances.size())
        .cell(solved)
        .cell(wall_ms, 1)
        .cell(wall_ms > 0.0 ? 1e3 * static_cast<double>(instances.size()) /
                                  wall_ms
                            : 0.0,
              0)
        .cell(wall_ms > 0.0 ? single_ms / wall_ms : 0.0, 2);
  }
  bench.print_table("throughput",
                    "combined solver, " + std::to_string(spec.count) +
                        " mixed instances (n=12, T=10, m=2), usable CPUs: " +
                        std::to_string(cpus.usable_cpus) +
                        ", parallel capacity: " +
                        format_double(cpus.parallel_capacity, 2));
  bench.print_table("lp_counters",
                    "LP work per batch (counts deterministic; ws_reuse/"
                    "buf_growth depend on worker count, so only t1 gates)");

  const double speedup = eight_ms > 0.0 ? single_ms / eight_ms : 0.0;
  bench.metric("speedup_8_threads", speedup);
  bench.check("all instances solved", all_solved);
  bench.check("jsonl byte-identical across thread counts", all_identical);
  if (cpus.usable_cpus >= 4) {
    bench.check("8-thread throughput >= 3x single-thread", speedup >= 3.0);
  }
  bench.note(
      "timing-free JSONL is byte-identical at every thread count — each task "
      "owns its instance, seed, and record slot, so scheduling order cannot "
      "leak into the output. 8-thread speedup on this machine: " +
      format_double(speedup, 2) + "x (" + std::to_string(cpus.usable_cpus) +
      " usable CPUs, parallel capacity " +
      format_double(cpus.parallel_capacity, 2) +
      "; the >= 3x bar applies with >= 4 usable CPUs, where per-instance "
      "solves are independent and embarrassingly parallel, and a capacity "
      "well under 4 means the host, not the solver, held the speedup "
      "down).");
  return bench.finish();
}
