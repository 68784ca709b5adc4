// Concurrent batch-solve driver.
//
// Shards a list of instances (or a generator spec) across a ThreadPool and
// runs one Algorithm on each, producing one BatchRecord per instance. The
// contract the tests pin down is *determinism*: records depend only on
// (algorithm, instances, per-instance limits), never on the thread count
// or scheduling order — every task owns its instance, its TraceContext,
// and its slot in the result vector, and per-instance seeds derive from
// (base seed, index) alone. The JSONL writer can exclude the only
// nondeterministic fields (elapsed time and the timing-bearing trace) so
// byte-identical output across `--threads` values is checkable.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "gen/generators.hpp"
#include "runtime/registry.hpp"
#include "trace/json.hpp"

namespace calisched {

/// Deterministic per-instance seed: a splitmix64 mix of (base_seed, index).
/// Stable across platforms and independent of execution order.
[[nodiscard]] std::uint64_t derive_instance_seed(std::uint64_t base_seed,
                                                 std::uint64_t index) noexcept;

/// A generator-backed batch: `count` instances of one family, instance i
/// generated by generate_family with seed derive_instance_seed(params.seed, i).
struct BatchSpec {
  std::string family = "mixed";  ///< any generate_family name
  std::size_t count = 8;
  GenParams params;              ///< params.seed is the *base* seed
  FamilyOptions options;
};

/// Materializes the spec; throws std::invalid_argument on an unknown
/// family. `seeds_out` (optional) receives each instance's derived seed.
[[nodiscard]] std::vector<Instance> generate_batch(
    const BatchSpec& spec, std::vector<std::uint64_t>* seeds_out = nullptr);

/// One line of solve-batch output.
struct BatchRecord {
  std::size_t index = 0;
  std::uint64_t seed = 0;  ///< generator seed; 0 for file-loaded instances
  std::string algorithm;
  SolveStatus status = SolveStatus::kOk;
  bool feasible = false;
  bool verified = false;
  std::size_t jobs = 0;
  std::size_t calibrations = 0;
  int machines = 0;
  std::int64_t speed = 1;
  /// Total calibration cost (equals `calibrations` under the unit model).
  std::int64_t total_cost = 0;
  std::string error;
  std::int64_t elapsed_ns = 0;  ///< timing; dropped when timing is excluded
  JsonValue trace;              ///< per-instance trace (null unless collected)
};

struct BatchOptions {
  /// Worker threads; 0 means hardware concurrency. Purely a throughput
  /// knob — results are identical for any value.
  std::size_t threads = 1;
  /// Wall-clock budget per instance (measured from that instance's start);
  /// zero means unlimited.
  std::chrono::nanoseconds per_instance_deadline{0};
  /// Node/state cap per instance for exact engines (exhaustion reports
  /// kLimitExceeded, never kInfeasible); zero keeps solver defaults.
  std::int64_t node_budget = 0;
  /// Shared cancellation for the whole batch; not owned, may be null.
  /// Instances finished before cancel() keep their results; the rest
  /// report kCancelled.
  const CancelToken* cancel = nullptr;
  /// Attach each instance's TraceContext JSON to its record. Traces carry
  /// span timings, so collected traces are excluded from timing-free output.
  bool collect_traces = false;
  /// Per-instance seeds recorded in the output (parallel to `instances`);
  /// may be empty (seeds recorded as 0) — purely informational.
  std::vector<std::uint64_t> seeds;
};

/// Runs one algorithm over a batch. Stateless; reusable.
class BatchRunner {
 public:
  explicit BatchRunner(const Algorithm& algorithm) : algorithm_(&algorithm) {}

  /// Records are returned in instance order regardless of thread count.
  [[nodiscard]] std::vector<BatchRecord> run(
      const std::vector<Instance>& instances,
      const BatchOptions& options = {}) const;

 private:
  const Algorithm* algorithm_;
};

/// One JSON object for one record. With include_timing = false, elapsed_ns
/// and the trace are omitted and the object is a pure function of the
/// solve's logical outcome (the bit-identical-across-threads form).
[[nodiscard]] JsonValue batch_record_json(const BatchRecord& record,
                                          bool include_timing);

/// One compact JSON object per line, in record order.
void write_batch_jsonl(std::ostream& out,
                       const std::vector<BatchRecord>& records,
                       bool include_timing);

}  // namespace calisched
