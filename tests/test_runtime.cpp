// Tests for the runtime layer: SolveStatus taxonomy, RunLimits/LimitPoller,
// the AlgorithmRegistry adapters, and the concurrent BatchRunner.
//
// The three contracts the batch driver depends on are pinned here:
//   * determinism — batch JSONL (timing excluded) is byte-identical for
//     every --threads value;
//   * deadlines — an already-expired RunLimits makes *every* registered
//     algorithm return kDeadlineExceeded promptly, before any real work;
//   * cancellation — a cancelled token stops a batch, the ThreadPool drains
//     cleanly, and the pool stays usable afterwards.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <sstream>
#include <thread>

#include "gen/generators.hpp"
#include "runtime/batch.hpp"
#include "runtime/limits.hpp"
#include "runtime/registry.hpp"
#include "runtime/status.hpp"
#include "util/thread_pool.hpp"

namespace calisched {
namespace {

GenParams small_params(std::uint64_t seed, int n = 10) {
  GenParams params;
  params.seed = seed;
  params.n = n;
  params.T = 8;
  params.machines = 2;
  params.horizon = 80;
  params.max_proc = 7;
  return params;
}

// ---------------------------------------------------------------- status --

TEST(SolveStatus, ToStringParseRoundTrip) {
  const SolveStatus all[] = {
      SolveStatus::kOk,           SolveStatus::kInfeasible,
      SolveStatus::kDeadlineExceeded, SolveStatus::kCancelled,
      SolveStatus::kNumericalFailure, SolveStatus::kLimitExceeded};
  for (const SolveStatus status : all) {
    SolveStatus parsed = SolveStatus::kNumericalFailure;
    ASSERT_TRUE(parse_solve_status(to_string(status), &parsed))
        << to_string(status);
    EXPECT_EQ(parsed, status);
  }
  SolveStatus sink = SolveStatus::kOk;
  EXPECT_FALSE(parse_solve_status("bogus", &sink));
  EXPECT_EQ(sink, SolveStatus::kOk);
}

TEST(SolveStatus, FormatFailureShapes) {
  EXPECT_EQ(format_failure(SolveStatus::kInfeasible, "", ""), "infeasible");
  EXPECT_EQ(format_failure(SolveStatus::kDeadlineExceeded, "", "lp"),
            "lp: deadline-exceeded");
  EXPECT_EQ(format_failure(SolveStatus::kInfeasible, "no room", "edf"),
            "edf: infeasible (no room)");
}

TEST(SolveStatus, LimitStatusClassification) {
  EXPECT_TRUE(is_limit_status(SolveStatus::kDeadlineExceeded));
  EXPECT_TRUE(is_limit_status(SolveStatus::kCancelled));
  EXPECT_TRUE(is_limit_status(SolveStatus::kLimitExceeded));
  EXPECT_FALSE(is_limit_status(SolveStatus::kOk));
  EXPECT_FALSE(is_limit_status(SolveStatus::kInfeasible));
}

// ---------------------------------------------------------------- limits --

TEST(RunLimits, UnlimitedByDefault) {
  const RunLimits limits = RunLimits::none();
  EXPECT_TRUE(limits.unlimited());
  EXPECT_EQ(limits.check(), SolveStatus::kOk);
  LimitPoller poller(limits);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(poller.poll(), SolveStatus::kOk);
}

TEST(RunLimits, ExpiredDeadlineStopsFirstPoll) {
  const RunLimits limits = RunLimits::deadline_after(std::chrono::nanoseconds{0});
  EXPECT_EQ(limits.check(), SolveStatus::kDeadlineExceeded);
  // Contract: the first poll always reads the clock, regardless of stride.
  LimitPoller poller(limits, 4096);
  EXPECT_EQ(poller.poll(), SolveStatus::kDeadlineExceeded);
  EXPECT_TRUE(poller.stopped());
}

TEST(RunLimits, CancellationWinsAndSticks) {
  CancelToken token;
  RunLimits limits = RunLimits::deadline_after(std::chrono::nanoseconds{0});
  limits.cancel = &token;
  token.cancel();
  EXPECT_EQ(limits.check(), SolveStatus::kCancelled);
  LimitPoller poller(limits);
  EXPECT_EQ(poller.poll(), SolveStatus::kCancelled);
  token.reset();
  // Sticky: the poller keeps its stop reason even after the token resets.
  EXPECT_EQ(poller.poll(), SolveStatus::kCancelled);
}

// -------------------------------------------------------------- registry --

TEST(AlgorithmRegistry, BuiltinNamesAndLookup) {
  const AlgorithmRegistry& registry = AlgorithmRegistry::builtin();
  EXPECT_EQ(registry.names().size(), 18u);
  for (const char* name :
       {"combined", "long", "long-speed", "short", "greedy-lazy", "per-job",
        "saturate", "bender-lazy", "exact-ise", "mm-greedy", "mm-exact",
        "mm-unit", "mm-lp-rounding", "gap-min"}) {
    const Algorithm* algorithm = registry.find(name);
    ASSERT_NE(algorithm, nullptr) << name;
    EXPECT_EQ(algorithm->name(), name);
  }
  EXPECT_EQ(registry.find("no-such-algorithm"), nullptr);
  // The differential oracles live in src/oracle/, outside the registry.
  EXPECT_EQ(registry.find("exact-ise-bnb"), nullptr);
  EXPECT_EQ(registry.find("mm-exact-bnb"), nullptr);
}

TEST(AlgorithmRegistry, DuplicateNameThrows) {
  AlgorithmRegistry registry;
  const auto& builtin = AlgorithmRegistry::builtin().all();
  registry.add(builtin.front());
  EXPECT_THROW(registry.add(builtin.front()), std::invalid_argument);
}

TEST(AlgorithmRegistry, CombinedSolvesAndVerifies) {
  const Algorithm* combined = AlgorithmRegistry::builtin().find("combined");
  ASSERT_NE(combined, nullptr);
  const Instance instance = generate_mixed(small_params(7), 0.5);
  const RunResult result = combined->run(instance);
  ASSERT_TRUE(result.feasible) << result.error;
  EXPECT_EQ(result.status, SolveStatus::kOk);
  EXPECT_TRUE(result.verified);
  EXPECT_GT(result.calibrations, 0u);
  EXPECT_GT(result.machines, 0);
}

TEST(AlgorithmRegistry, CapabilityMismatchIsInfeasibleNotAssert) {
  const AlgorithmRegistry& registry = AlgorithmRegistry::builtin();
  const Instance mixed = generate_mixed(small_params(11), 0.5);
  for (const char* name : {"long", "long-speed", "short", "bender-lazy"}) {
    const Algorithm* algorithm = registry.find(name);
    ASSERT_NE(algorithm, nullptr) << name;
    const RunResult result = algorithm->run(mixed);
    EXPECT_FALSE(result.feasible) << name;
    EXPECT_EQ(result.status, SolveStatus::kInfeasible) << name;
    EXPECT_FALSE(result.error.empty()) << name;
  }
}

// Contract (3) of the deadline taxonomy: deadline 0 returns
// kDeadlineExceeded from every registered algorithm without hanging, and
// well within the 100 ms bound (the entry check runs before any work).
TEST(AlgorithmRegistry, DeadlineZeroStopsEveryAlgorithm) {
  const Instance instance = generate_mixed(small_params(3, 12), 0.5);
  for (const auto& algorithm : AlgorithmRegistry::builtin().all()) {
    const RunLimits limits =
        RunLimits::deadline_after(std::chrono::nanoseconds{0});
    const auto started = std::chrono::steady_clock::now();
    const RunResult result = algorithm->run(instance, limits, nullptr);
    const auto elapsed = std::chrono::steady_clock::now() - started;
    EXPECT_EQ(result.status, SolveStatus::kDeadlineExceeded)
        << algorithm->name();
    EXPECT_FALSE(result.feasible) << algorithm->name();
    EXPECT_FALSE(result.error.empty()) << algorithm->name();
    EXPECT_LT(elapsed, std::chrono::milliseconds(100)) << algorithm->name();
  }
}

TEST(AlgorithmRegistry, PreCancelledTokenStopsEveryAlgorithm) {
  const Instance instance = generate_mixed(small_params(4, 12), 0.5);
  CancelToken token;
  token.cancel();
  for (const auto& algorithm : AlgorithmRegistry::builtin().all()) {
    RunLimits limits;
    limits.cancel = &token;
    const RunResult result = algorithm->run(instance, limits, nullptr);
    EXPECT_EQ(result.status, SolveStatus::kCancelled) << algorithm->name();
    EXPECT_FALSE(result.feasible) << algorithm->name();
  }
}

// ----------------------------------------------------------------- batch --

TEST(Batch, DerivedSeedsAreStableAndDistinct) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 64; ++i) {
    const std::uint64_t seed = derive_instance_seed(42, i);
    EXPECT_EQ(seed, derive_instance_seed(42, i));
    EXPECT_TRUE(seen.insert(seed).second) << "collision at index " << i;
  }
  EXPECT_NE(derive_instance_seed(42, 0), derive_instance_seed(43, 0));
}

TEST(Batch, GenerateBatchHonorsSpec) {
  BatchSpec spec;
  spec.family = "mixed";
  spec.count = 5;
  spec.params = small_params(9);
  std::vector<std::uint64_t> seeds;
  const std::vector<Instance> instances = generate_batch(spec, &seeds);
  EXPECT_EQ(instances.size(), 5u);
  ASSERT_EQ(seeds.size(), 5u);
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(seeds[i], derive_instance_seed(9, i));
  }
  spec.family = "martian";
  EXPECT_THROW(generate_batch(spec), std::invalid_argument);
}

std::string batch_jsonl(const Algorithm& algorithm,
                        const std::vector<Instance>& instances,
                        const std::vector<std::uint64_t>& seeds,
                        std::size_t threads) {
  BatchOptions options;
  options.threads = threads;
  options.seeds = seeds;
  const std::vector<BatchRecord> records =
      BatchRunner(algorithm).run(instances, options);
  std::ostringstream out;
  write_batch_jsonl(out, records, /*include_timing=*/false);
  return out.str();
}

// The tentpole determinism contract: timing-free batch output is
// byte-identical regardless of the worker-thread count.
TEST(Batch, OutputBitIdenticalAcrossThreadCounts) {
  BatchSpec spec;
  spec.family = "mixed";
  spec.count = 24;
  spec.params = small_params(17);
  std::vector<std::uint64_t> seeds;
  const std::vector<Instance> instances = generate_batch(spec, &seeds);
  const Algorithm* combined = AlgorithmRegistry::builtin().find("combined");
  ASSERT_NE(combined, nullptr);

  const std::string one = batch_jsonl(*combined, instances, seeds, 1);
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, batch_jsonl(*combined, instances, seeds, 4));
  EXPECT_EQ(one, batch_jsonl(*combined, instances, seeds, 8));
}

// Workspace-reuse determinism for the LP-heavy path: the "long" pipeline
// routes every instance through the revised simplex, and each batch worker
// reuses its thread's workspace arena between instances. Warm arenas must
// not change results — the output is byte-identical across worker counts
// AND across consecutive batches in one process (by the second run every
// per-thread arena is already grown to the family's working size, so those
// solves are pure reuse).
TEST(Batch, LpHeavyOutputBitIdenticalAcrossThreadsAndWarmArenas) {
  BatchSpec spec;
  spec.family = "long";
  spec.count = 16;
  spec.params = small_params(23);
  std::vector<std::uint64_t> seeds;
  const std::vector<Instance> instances = generate_batch(spec, &seeds);
  const Algorithm* long_pipeline = AlgorithmRegistry::builtin().find("long");
  ASSERT_NE(long_pipeline, nullptr);

  const std::string cold = batch_jsonl(*long_pipeline, instances, seeds, 1);
  EXPECT_FALSE(cold.empty());
  EXPECT_EQ(cold, batch_jsonl(*long_pipeline, instances, seeds, 4));
  EXPECT_EQ(cold, batch_jsonl(*long_pipeline, instances, seeds, 8));
  EXPECT_EQ(cold, batch_jsonl(*long_pipeline, instances, seeds, 1));
  EXPECT_EQ(cold, batch_jsonl(*long_pipeline, instances, seeds, 8));
}

TEST(Batch, TimingFieldsOnlyInTimingOutput) {
  BatchRecord record;
  record.algorithm = "combined";
  record.elapsed_ns = 123456;
  const std::string with = batch_record_json(record, true).dump(0);
  const std::string without = batch_record_json(record, false).dump(0);
  EXPECT_NE(with.find("elapsed_ns"), std::string::npos);
  EXPECT_EQ(without.find("elapsed_ns"), std::string::npos);
}

TEST(Batch, PerInstanceDeadlineReportsStatus) {
  BatchSpec spec;
  spec.count = 6;
  spec.params = small_params(23);
  const std::vector<Instance> instances = generate_batch(spec);
  const Algorithm* combined = AlgorithmRegistry::builtin().find("combined");
  ASSERT_NE(combined, nullptr);
  BatchOptions options;
  options.threads = 2;
  options.per_instance_deadline = std::chrono::nanoseconds{1};
  const std::vector<BatchRecord> records =
      BatchRunner(*combined).run(instances, options);
  ASSERT_EQ(records.size(), instances.size());
  for (const BatchRecord& record : records) {
    EXPECT_EQ(record.status, SolveStatus::kDeadlineExceeded);
    EXPECT_FALSE(record.feasible);
  }
}

TEST(Batch, CancelledTokenDrainsBatchAndPoolStaysUsable) {
  BatchSpec spec;
  spec.count = 12;
  spec.params = small_params(29);
  const std::vector<Instance> instances = generate_batch(spec);
  const Algorithm* combined = AlgorithmRegistry::builtin().find("combined");
  ASSERT_NE(combined, nullptr);

  CancelToken token;
  token.cancel();
  BatchOptions options;
  options.threads = 4;
  options.cancel = &token;
  const std::vector<BatchRecord> records =
      BatchRunner(*combined).run(instances, options);
  ASSERT_EQ(records.size(), instances.size());
  for (const BatchRecord& record : records) {
    EXPECT_EQ(record.status, SolveStatus::kCancelled) << record.index;
  }

  // The run returned, so the pool drained; a fresh run with the token
  // reset must solve normally (no poisoned state anywhere).
  token.reset();
  const std::vector<BatchRecord> rerun =
      BatchRunner(*combined).run(instances, options);
  for (const BatchRecord& record : rerun) {
    EXPECT_EQ(record.status, SolveStatus::kOk) << record.index;
    EXPECT_TRUE(record.feasible) << record.index;
  }
}

// A task flips the token mid-batch; every sibling task observes it through
// its LimitPoller, the pool drains, and wait_idle returns.
TEST(ThreadPool, DrainsCleanlyWhenTaskCancels) {
  ThreadPool pool(4);
  CancelToken token;
  std::atomic<int> stopped{0};
  constexpr int kTasks = 8;
  for (int i = 0; i < kTasks; ++i) {
    pool.submit([&token, &stopped, i] {
      if (i == 3) {
        token.cancel();
        ++stopped;
        return;
      }
      RunLimits limits;
      limits.cancel = &token;
      LimitPoller poller(limits);
      while (poller.poll() == SolveStatus::kOk) {
        std::this_thread::yield();
      }
      ++stopped;
    });
  }
  pool.wait_idle();
  EXPECT_EQ(stopped.load(), kTasks);
  EXPECT_TRUE(token.cancelled());
  // Pool is still usable after the cancellation storm.
  std::atomic<bool> ran{false};
  pool.submit([&ran] { ran = true; }).wait();
  EXPECT_TRUE(ran.load());
}

}  // namespace
}  // namespace calisched
