#include "service/service.hpp"

#include <algorithm>
#include <utility>

#include "service/instance_hash.hpp"
#include "trace/trace.hpp"
#include "util/percentile.hpp"

namespace calisched {

namespace {

/// Cache key: algorithm name + canonical instance hash + node budget. The
/// algorithm is part of the key because different algorithms legitimately
/// return different (all verified) schedules for one instance; the node
/// budget is part of it because a budget changes whether an exact engine
/// certifies at all, so outcomes across budgets must not shadow each other.
/// The raw hash is returned too: the sharded cache routes on its prefix.
std::string cache_key(const ServiceRequest& request, std::uint64_t hash) {
  char hex[17];
  std::uint64_t rest = hash;
  for (int i = 15; i >= 0; --i) {
    hex[i] = "0123456789abcdef"[rest & 0xf];
    rest >>= 4;
  }
  hex[16] = '\0';
  return request.algorithm + '#' + hex + '#' +
         std::to_string(request.node_budget);
}

/// Fits a cached outcome to the request it now answers. Instances that
/// differ only in an implicit vs explicit unit(T) table share one entry by
/// design (canonical_instance_hash), so the entry's schedule carries the
/// first requester's table; the response must carry this request's, or
/// its calibration shape ([m,s] vs [m,s,type]) would depend on cache
/// history.
void serve_cached(SolveOutcome& outcome, const ServiceRequest& request) {
  outcome.schedule.cal = request.instance.cal;
}

}  // namespace

// ---------------------------------------------------------------- Pending --

const SolveOutcome& SolveService::Pending::wait() const {
  std::unique_lock lock(mutex_);
  cv_.wait(lock, [this] { return ready_; });
  return outcome_;
}

bool SolveService::Pending::ready() const {
  std::scoped_lock lock(mutex_);
  return ready_;
}

void SolveService::Pending::on_ready(std::function<void()> hook) {
  {
    std::scoped_lock lock(mutex_);
    if (!ready_) {
      hook_ = std::move(hook);
      return;
    }
  }
  // Already completed: run the hook from the registering thread, outside
  // the lock (it typically re-enters an event-loop inbox).
  hook();
}

void SolveService::Pending::complete(SolveOutcome outcome) {
  std::function<void()> hook;
  {
    std::scoped_lock lock(mutex_);
    outcome_ = std::move(outcome);
    ready_ = true;
    hook = std::move(hook_);
  }
  cv_.notify_all();
  if (hook) hook();
}

// ----------------------------------------------------------- SolveService --

SolveService::SolveService(const AlgorithmRegistry& registry,
                           ServiceOptions options)
    : registry_(&registry),
      options_(options),
      cache_(options.cache_capacity,
             options.cache_shards == 0 ? 1 : options.cache_shards),
      pool_(options.threads) {}

SolveService::~SolveService() { shutdown(/*drain=*/true); }

SolveService::PendingPtr SolveService::completed(SolveOutcome outcome) {
  auto pending = std::make_shared<Pending>();
  pending->complete(std::move(outcome));
  return pending;
}

SolveService::PendingPtr SolveService::submit(const ServiceRequest& request) {
  // Deadline stamped at admission: time spent waiting in the queue burns
  // the request's budget, so a flooded server fails queued requests fast
  // instead of solving stale ones. timeout_ms < 0 means the field was
  // absent (no deadline); any value >= 0 — including 0 — stamps one, and
  // deadline_after treats a zero budget as already expired.
  RunLimits limits;
  if (request.timeout_ms >= 0) {
    limits = RunLimits::deadline_after(std::chrono::milliseconds(request.timeout_ms));
  }
  limits.cancel = &abort_;
  limits.node_budget = request.node_budget;

  received_.fetch_add(1, std::memory_order_relaxed);
  SolveOutcome bounced;
  bounced.rejected = true;
  bounced.jobs = request.instance.size();
  if (!accepting_.load(std::memory_order_acquire)) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    fail_result(bounced, SolveStatus::kCancelled, "service is shutting down",
                "service");
    return completed(std::move(bounced));
  }

  // An already-expired deadline completes synchronously — before the cache
  // probe, because a cached answer to a request whose budget was spent
  // before it arrived would make "timeout_ms":0 responses depend on cache
  // state, which the response-stream determinism contract forbids.
  if (const SolveStatus expired = limits.check(); expired != SolveStatus::kOk) {
    completed_.fetch_add(1, std::memory_order_relaxed);
    record_completion(0);
    SolveOutcome out;
    out.jobs = request.instance.size();
    fail_result(out, expired, {}, "service");
    return completed(std::move(out));
  }

  // Cache fast path: a hit is a completed request — no queue slot, no
  // worker hop, no pause gate (a hit runs nothing, so there is nothing to
  // hold). On a miss nothing is counted here; the worker-side lookup is
  // the one that decides hit-or-miss for queued requests, because the
  // cache may fill between admission and execution.
  const auto fast_started = std::chrono::steady_clock::now();
  const std::uint64_t hash = canonical_instance_hash(request.instance);
  const std::string key = cache_key(request, hash);
  {
    SolveOutcome cached;
    if (cache_.get(hash, key, &cached)) {
      serve_cached(cached, request);
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      completed_.fetch_add(1, std::memory_order_relaxed);
      record_completion(std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - fast_started)
                            .count());
      return completed(std::move(cached));
    }
  }

  const std::int64_t prior =
      outstanding_.fetch_add(1, std::memory_order_acq_rel);
  if (prior >= static_cast<std::int64_t>(options_.queue_capacity)) {
    outstanding_.fetch_sub(1, std::memory_order_acq_rel);
    rejected_.fetch_add(1, std::memory_order_relaxed);
    fail_result(bounced, SolveStatus::kLimitExceeded,
                "queue full (capacity " +
                    std::to_string(options_.queue_capacity) + ")",
                "service");
    return completed(std::move(bounced));
  }
  if (registry_->find(request.algorithm) == nullptr) {
    outstanding_.fetch_sub(1, std::memory_order_acq_rel);
    errors_.fetch_add(1, std::memory_order_relaxed);
    bounced.rejected = false;  // a client error, not backpressure
    fail_result(bounced, SolveStatus::kInfeasible,
                "unknown algorithm '" + request.algorithm + "'", "service");
    return completed(std::move(bounced));
  }

  auto pending = std::make_shared<Pending>();
  pool_.submit([this, pending, request, limits] {
    execute(pending, request, limits);
  });
  return pending;
}

void SolveService::execute(const std::shared_ptr<Pending>& pending,
                           ServiceRequest request, RunLimits limits) {
  {
    // Pause gate: held workers park here; shutdown() clears the flag.
    std::unique_lock lock(mutex_);
    pause_cv_.wait(lock, [this] { return !paused_; });
  }
  const auto started = std::chrono::steady_clock::now();
  const std::uint64_t hash = canonical_instance_hash(request.instance);
  const std::string key = cache_key(request, hash);

  SolveOutcome outcome;
  const bool hit = cache_.get(hash, key, &outcome);
  if (hit) {
    serve_cached(outcome, request);
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
  } else {
    cache_misses_.fetch_add(1, std::memory_order_relaxed);
    const Algorithm* algorithm = registry_->find(request.algorithm);
    const RunResult result = algorithm->run(request.instance, limits, nullptr);
    outcome.status = result.status;
    outcome.feasible = result.feasible;
    outcome.verified = result.verified;
    outcome.jobs = request.instance.size();
    outcome.calibrations = result.calibrations;
    outcome.machines = result.machines;
    outcome.speed = result.speed;
    outcome.total_cost = result.total_cost;
    outcome.error = result.error;
    outcome.schedule = result.schedule;
    // Only verified feasible results are cached: a limit-stopped or
    // infeasible outcome may be transient (tighter deadline, cancelled
    // batch) and must not shadow a future honest solve.
    if (outcome.status == SolveStatus::kOk && outcome.feasible &&
        outcome.verified) {
      cache_.put(hash, key, outcome);
    }
  }

  const std::int64_t elapsed_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - started)
          .count();
  outstanding_.fetch_sub(1, std::memory_order_acq_rel);
  completed_.fetch_add(1, std::memory_order_relaxed);
  record_completion(elapsed_ns);
  pending->complete(std::move(outcome));
}

void SolveService::record_completion(std::int64_t elapsed_ns) {
  const std::int64_t slot =
      latency_count_.fetch_add(1, std::memory_order_relaxed);
  latency_window_[static_cast<std::size_t>(slot) % kLatencyWindow].store(
      elapsed_ns, std::memory_order_relaxed);
}

void SolveService::pause() {
  std::scoped_lock lock(mutex_);
  paused_ = true;
}

void SolveService::resume() {
  {
    std::scoped_lock lock(mutex_);
    paused_ = false;
  }
  pause_cv_.notify_all();
}

void SolveService::shutdown(bool drain) {
  {
    std::scoped_lock lock(mutex_);
    accepting_.store(false, std::memory_order_release);
    paused_ = false;
    if (!drain) abort_.cancel();
  }
  pause_cv_.notify_all();
  pool_.wait_idle();
}

ServiceStats SolveService::stats() const {
  ServiceStats stats;
  stats.received = received_.load(std::memory_order_relaxed);
  stats.rejected = rejected_.load(std::memory_order_relaxed);
  stats.errors = errors_.load(std::memory_order_relaxed);
  stats.accepted = stats.received - stats.rejected - stats.errors;
  stats.completed = completed_.load(std::memory_order_relaxed);
  stats.outstanding = outstanding_.load(std::memory_order_relaxed);
  stats.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  stats.cache_misses = cache_misses_.load(std::memory_order_relaxed);
  stats.cache_size = static_cast<std::int64_t>(cache_.size());
  {
    std::scoped_lock lock(mutex_);
    stats.paused = paused_;
  }
  const std::int64_t filled =
      std::min(latency_count_.load(std::memory_order_relaxed),
               static_cast<std::int64_t>(kLatencyWindow));
  std::vector<std::int64_t> window;
  window.reserve(static_cast<std::size_t>(filled));
  for (std::int64_t i = 0; i < filled; ++i) {
    window.push_back(latency_window_[static_cast<std::size_t>(i)].load(
        std::memory_order_relaxed));
  }
  const LatencyPercentiles latency = latency_percentiles(std::move(window));
  stats.latency_samples = filled;
  stats.latency_p50_ns = latency.p50_ns;
  stats.latency_p95_ns = latency.p95_ns;
  stats.latency_p99_ns = latency.p99_ns;
  stats.latency_p999_ns = latency.p999_ns;
  return stats;
}

void SolveService::export_stats(TraceContext* trace) const {
  if (trace == nullptr) return;
  const ServiceStats stats = this->stats();
  trace->set("service.requests", stats.received);
  trace->set("service.accepted", stats.accepted);
  trace->set("service.rejected", stats.rejected);
  trace->set("service.errors", stats.errors);
  trace->set("service.completed", stats.completed);
  trace->set("service.outstanding", stats.outstanding);
  trace->set("service.cache.hits", stats.cache_hits);
  trace->set("service.cache.misses", stats.cache_misses);
  trace->set("service.cache.size", stats.cache_size);
  trace->set("service.latency.p50_ns", stats.latency_p50_ns);
  trace->set("service.latency.p95_ns", stats.latency_p95_ns);
  trace->set("service.latency.p99_ns", stats.latency_p99_ns);
  trace->set("service.latency.p999_ns", stats.latency_p999_ns);
  trace->set("service.latency.samples", stats.latency_samples);
}

}  // namespace calisched
