// Shared experiment harness for the bench_* binaries.
//
// Every experiment follows the same shape: print a banner, sweep a family
// of generated instances (usually in parallel on the shared thread pool),
// accumulate rows into one or more tables, assert self-checks, and close
// with an interpretation note. The harness owns that boilerplate so each
// bench file reduces to its instance family and metric definitions, and —
// uniformly across binaries — emits a machine-readable JSON record of
// everything it printed.
//
// Flags (parsed from main's argc/argv):
//   --json=PATH   write the JSON record to PATH ("-" for stdout; with
//                 stdout as the target the human-readable banner/tables
//                 move to stderr so stdout is pure JSON)
//
// JSON record schema:
//   {"bench": ID, "title": ..., "elapsed_ns": N,
//    "tables": {key: {"title": ..., "header": [...], "rows": [[...]]}},
//    "metrics": {name: number}, "checks": {name: bool},
//    "notes": [...], "trace": {...}}
//
// Self-checks gate the exit code: finish() returns 1 if any check failed,
// so ctest-style wrappers catch regressions without parsing tables.
#pragma once

#include <chrono>
#include <cstddef>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "trace/trace.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace calisched {

class BenchHarness {
 public:
  /// Prints the "ID: title" banner immediately.
  BenchHarness(std::string id, std::string title, int argc, char** argv);

  [[nodiscard]] const CliArgs& args() const noexcept { return args_; }

  /// Root trace for the experiment; pass into pipeline options to capture
  /// stage telemetry in the JSON record.
  [[nodiscard]] TraceContext& trace() noexcept { return trace_; }

  /// Registers (or retrieves) a table under `key`. The table prints to
  /// stdout when print_table() is called — or at finish(), in registration
  /// order, if never printed explicitly.
  Table& table(const std::string& key, std::vector<std::string> header);

  /// Prints a registered table with `title` (recorded into the JSON too).
  void print_table(const std::string& key, const std::string& title);

  /// Runs `fn(i)` for i in [0, count) on the shared thread pool, recording
  /// a "sweep" span and the case count in the trace.
  template <typename Fn>
  void sweep(std::size_t count, Fn&& fn) {
    TraceSpan span(&trace_, "sweep");
    parallel_for(default_pool(), count, fn);
    span.stop();
    trace_.add("sweep.cases", static_cast<std::int64_t>(count));
  }

  /// Records a named scalar into the JSON record (and the trace).
  void metric(const std::string& name, double value);

  /// Records one row of the shared "lp_counters" table from the revised-
  /// simplex work in `trace` (summed over every context in its tree that a
  /// solve recorded into; pass a fresh trace to the solves of one timed
  /// region) plus the wall time of that region. With `record_metrics`, the
  /// deterministic work counts (pivots, etas applied, bytes/pivot,
  /// workspace reuses, buffer growths) are also registered as gated
  /// "<label>_*" metrics, while the derived rates get "_per_s" names the
  /// regression checker treats as advisory — counts reproduce across
  /// machines, rates do not.
  void lp_counters(const std::string& label, const TraceContext& trace,
                   double elapsed_ms, bool record_metrics = true);

  /// The CPUs this process can scale onto, measured now, and recorded as
  /// the advisory metrics `hardware_cores`, `usable_cpus` and
  /// `parallel_capacity`. Speedup checks gate on `usable_cpus`; the
  /// capacity figure sits beside their verdict, so a failure on a
  /// contended host shows the host's state at the time.
  struct CpuCapacity {
    unsigned usable_cpus = 0;  ///< CPUs in this process's affinity mask
    /// Throughput of `usable_cpus` CPU-bound spinner threads over one
    /// spinner's: about usable_cpus on a quiet host, near 1 on a host that
    /// throttles this process to one core.
    double parallel_capacity = 0.0;
  };
  CpuCapacity cpu_capacity();

  /// Records a self-check. A failed check prints immediately and makes
  /// finish() return 1.
  void check(const std::string& name, bool ok);

  /// Prints a closing interpretation paragraph and records it.
  void note(const std::string& text);

  /// Flushes unprinted tables, reports failed checks, writes the JSON
  /// record when --json was given. Returns the process exit code.
  [[nodiscard]] int finish();

 private:
  struct NamedTable {
    std::string key;
    std::string title;
    Table table;
    bool printed = false;
  };

  /// Human-readable output stream: stdout normally, stderr when the JSON
  /// record targets stdout (keeps `bench --json=- | jq` workable).
  [[nodiscard]] std::ostream& human() const noexcept;

  std::string id_;
  std::string title_;
  CliArgs args_;
  bool json_to_stdout_ = false;  ///< declared after args_: derived from it
  TraceContext trace_;
  std::chrono::steady_clock::time_point start_;
  /// deque, not vector: table() hands out long-lived Table& references, so
  /// registering a later table must not relocate earlier entries.
  std::deque<NamedTable> tables_;
  std::vector<std::pair<std::string, double>> metrics_;
  std::vector<std::pair<std::string, bool>> checks_;
  std::vector<std::string> notes_;
  bool failed_ = false;
};

}  // namespace calisched
