// The persistent solve service: a bounded, cache-fronted, deadline-aware
// request executor built on AlgorithmRegistry + ThreadPool.
//
// Lifecycle of one request:
//   submit() — admission control. A cache hit completes synchronously
//     (see below). Otherwise a request beyond `queue_capacity`
//     outstanding (admitted but unfinished) requests is rejected
//     *immediately* with a completed `rejected` outcome; the queue can
//     never grow without bound. Admitted requests get their wall-clock
//     deadline stamped here (queue wait burns budget, as a real server
//     must account it) and a Pending handle the caller can wait on.
//   worker — after the pause gate, the canonical instance hash is looked
//     up in the sharded LRU result cache (hits return the stored verified
//     outcome without running anything); misses run the algorithm under
//     RunLimits{deadline, service CancelToken} and insert the outcome into
//     the cache iff it is ok+feasible+verified.
//   shutdown(drain=true) — stop admitting, release any pause, and wait
//     for every outstanding request to finish (in-flight solves are
//     drained, never abandoned). drain=false additionally fires the
//     CancelToken so in-flight solves stop at their next limit poll.
//
// Cache fast path: submit() probes the result cache before admission
// bookkeeping; a hit completes the Pending synchronously — no queue slot,
// no worker dispatch, no pause gate. The worker-side lookup remains the
// authoritative one (a duplicate submitted while its original is still
// solving misses the fast path but hits in the worker once the original
// lands), and each request counts exactly one hit or one miss, wherever
// the decisive lookup happened.
//
// Locking: the counters (requests, accepted, rejects, cache hits/misses,
// completions) are independent relaxed atomics (each a monotone sum read
// as a snapshot), the result cache locks only the shard the instance hash
// routes to, and the
// one remaining mutex guards the pause gate + admission state. Concurrent
// connections therefore contend on nothing when traffic is cache hits in
// distinct shards. stats() snapshots are exact once in-flight requests
// have drained (every test and bench samples them that way); mid-flight
// they are a best-effort read of live counters.
//
// Latency: completions feed a fixed ring of recent samples; stats()
// reports p50/p95/p99/p999 over the window (nearest-rank, shared
// percentile_of). The ring is sized so p999 rests on >= 1000 samples
// once warm.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "runtime/registry.hpp"
#include "service/protocol.hpp"
#include "service/sharded_cache.hpp"
#include "util/thread_pool.hpp"

namespace calisched {

class TraceContext;

struct ServiceOptions {
  /// Worker threads; 0 means hardware concurrency.
  std::size_t threads = 1;
  /// Maximum admitted-but-unfinished requests; submissions beyond it are
  /// rejected immediately (explicit backpressure, never unbounded growth).
  std::size_t queue_capacity = 64;
  /// Total LRU result-cache entries across all shards; 0 disables caching.
  std::size_t cache_capacity = 128;
  /// Independently-locked cache shards (entries budget split evenly).
  /// 1 gives the exact pre-sharding semantics: one global recency list,
  /// one lock — tests that pin eviction order use it.
  std::size_t cache_shards = 8;
};

/// Consistent snapshot of the per-server counters.
struct ServiceStats {
  std::int64_t received = 0;     ///< submit() calls
  std::int64_t accepted = 0;     ///< admitted past backpressure
  std::int64_t rejected = 0;     ///< bounced: full queue or shutting down
  std::int64_t errors = 0;       ///< refused at admission (unknown algorithm)
  std::int64_t completed = 0;    ///< finished (cache hit or solved)
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  std::int64_t cache_size = 0;
  std::int64_t outstanding = 0;  ///< admitted, not yet completed
  bool paused = false;
  std::int64_t latency_p50_ns = 0;  ///< over the recent-completion window
  std::int64_t latency_p95_ns = 0;
  std::int64_t latency_p99_ns = 0;
  std::int64_t latency_p999_ns = 0;
  std::int64_t latency_samples = 0; ///< samples currently in the window
};

class SolveService {
 public:
  /// Completed-or-pending result slot for one admitted (or rejected)
  /// request. Rejections are born completed.
  class Pending {
   public:
    /// Blocks until the outcome is ready; the reference stays valid for
    /// the Pending's lifetime.
    [[nodiscard]] const SolveOutcome& wait() const;
    [[nodiscard]] bool ready() const;
    /// After ready() returned true (or on_ready fired): the outcome,
    /// without re-taking the lock path of wait().
    [[nodiscard]] const SolveOutcome& outcome() const noexcept {
      return outcome_;
    }

    /// Registers a completion hook for event-loop callers that must not
    /// block: runs exactly once, from the completing worker thread — or
    /// immediately, from the caller, when the outcome is already ready.
    /// One hook per Pending; the hook must not call back into wait() on
    /// the same Pending (it already has the outcome) and should only
    /// enqueue a wakeup.
    void on_ready(std::function<void()> hook);

   private:
    friend class SolveService;
    void complete(SolveOutcome outcome);

    mutable std::mutex mutex_;
    mutable std::condition_variable cv_;
    bool ready_ = false;
    SolveOutcome outcome_;
    std::function<void()> hook_;
  };
  using PendingPtr = std::shared_ptr<Pending>;

  /// The registry must outlive the service.
  SolveService(const AlgorithmRegistry& registry, ServiceOptions options);
  /// Graceful: equivalent to shutdown(/*drain=*/true).
  ~SolveService();

  SolveService(const SolveService&) = delete;
  SolveService& operator=(const SolveService&) = delete;

  /// Never blocks. The returned handle is already completed when the
  /// request was rejected (full queue, shutdown in progress, unknown
  /// algorithm) or served by the cache fast path; otherwise it completes
  /// when a worker finishes.
  [[nodiscard]] PendingPtr submit(const ServiceRequest& request);

  /// Holds workers before they pick up their next request (admission and
  /// the bounded queue keep operating — this is how backpressure is
  /// exercised deterministically). resume() releases them. Note the cache
  /// fast path completes hits even while paused: pause gates *work*, and
  /// a hit runs nothing.
  void pause();
  void resume();

  /// Stops admission and waits for all outstanding requests to finish.
  /// With drain=false the service CancelToken fires first, so in-flight
  /// solves stop at their next poll instead of running to completion.
  /// Idempotent; implicitly resumes a paused service.
  void shutdown(bool drain = true);

  [[nodiscard]] ServiceStats stats() const;
  /// Writes the stats() snapshot as "service.*" counters on `trace`
  /// (null-safe).
  void export_stats(TraceContext* trace) const;

  [[nodiscard]] const AlgorithmRegistry& registry() const noexcept {
    return *registry_;
  }
  [[nodiscard]] const ServiceOptions& options() const noexcept {
    return options_;
  }

 private:
  /// Ring size: p999 needs >= 1000 samples to be more than a max.
  static constexpr std::size_t kLatencyWindow = 4096;

  void execute(const std::shared_ptr<Pending>& pending, ServiceRequest request,
               RunLimits limits);
  void record_completion(std::int64_t elapsed_ns);
  [[nodiscard]] static PendingPtr completed(SolveOutcome outcome);

  const AlgorithmRegistry* registry_;
  ServiceOptions options_;

  /// Guards only the pause gate and the accepting flag; counters and the
  /// cache are off this mutex entirely.
  mutable std::mutex mutex_;
  std::condition_variable pause_cv_;
  bool paused_ = false;
  std::atomic<bool> accepting_{true};

  std::atomic<std::int64_t> received_{0};
  std::atomic<std::int64_t> rejected_{0};
  std::atomic<std::int64_t> errors_{0};
  std::atomic<std::int64_t> completed_{0};
  std::atomic<std::int64_t> outstanding_{0};
  std::atomic<std::int64_t> cache_hits_{0};
  std::atomic<std::int64_t> cache_misses_{0};

  /// Ring of recent completion latencies feeding the percentile snapshot.
  /// Slot writes and the monotone fill counter are relaxed atomics — a
  /// stats() read races only with nanosecond-count stores, never with a
  /// resize.
  std::array<std::atomic<std::int64_t>, kLatencyWindow> latency_window_{};
  std::atomic<std::int64_t> latency_count_{0};

  ShardedLruCache<std::string, SolveOutcome> cache_;

  CancelToken abort_;
  /// Last member: workers touch everything above, so they must die first.
  ThreadPool pool_;
};

}  // namespace calisched
