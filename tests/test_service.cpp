// Tests for the persistent solve service (src/service/): canonical
// instance hashing, the LRU result cache, bounded-queue backpressure,
// per-request deadlines, graceful shutdown, and the NDJSON front ends.
//
// The service-level contracts pinned here mirror the batch driver's:
//   * the cache key is invariant under job permutation and separates
//     near-identical instances;
//   * the stdio response stream is byte-identical at 1/4/8 worker threads
//     (responses are ordered by request arrival and carry no timing);
//   * a full queue answers with a reject status, deterministically (the
//     pause control holds workers so admission is the only moving part);
//   * malformed requests get structured error responses, never a crash.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gen/generators.hpp"
#include "service/instance_hash.hpp"
#include "service/loadgen.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/service.hpp"
#include "service/sharded_cache.hpp"
#include "util/rng.hpp"

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

ServiceRequest solve_request(Instance instance, std::string algorithm = "combined") {
  ServiceRequest request;
  request.type = RequestType::kSolve;
  request.algorithm = std::move(algorithm);
  request.instance = std::move(instance);
  return request;
}

// ---------------------------------------------------------- InstanceHash --

TEST(InstanceHash, InvariantUnderJobPermutation) {
  Instance instance = generate_mixed(small_params(5, 14), 0.5);
  const std::uint64_t reference = canonical_instance_hash(instance);
  Rng rng(99);
  for (int round = 0; round < 20; ++round) {
    rng.shuffle(instance.jobs);
    EXPECT_EQ(canonical_instance_hash(instance), reference) << round;
  }
}

TEST(InstanceHash, SeparatesNearIdenticalInstances) {
  const Instance base = generate_mixed(small_params(6, 12), 0.5);
  const std::uint64_t reference = canonical_instance_hash(base);

  Instance tweaked = base;
  tweaked.jobs[3].proc += 1;
  EXPECT_NE(canonical_instance_hash(tweaked), reference) << "proc nudge";

  tweaked = base;
  tweaked.jobs[0].deadline += 1;
  EXPECT_NE(canonical_instance_hash(tweaked), reference) << "deadline nudge";

  tweaked = base;
  tweaked.machines += 1;
  EXPECT_NE(canonical_instance_hash(tweaked), reference) << "machines";

  tweaked = base;
  tweaked.T += 1;
  EXPECT_NE(canonical_instance_hash(tweaked), reference) << "T";

  tweaked = base;
  tweaked.jobs.pop_back();
  EXPECT_NE(canonical_instance_hash(tweaked), reference) << "dropped job";

  // A duplicated job must not cancel out of the fold.
  tweaked = base;
  tweaked.jobs.push_back(tweaked.jobs[0]);
  EXPECT_NE(canonical_instance_hash(tweaked), reference) << "duplicated job";
}

TEST(InstanceHash, FoldsTheEffectiveCalibrationModel) {
  // The cache key hashes the *resolved* model: the implicit unit table and
  // the explicit {T, 1, 0} table are interchangeable everywhere else, so
  // they must share cache entries — while any substantive change to a type
  // (cost, delay, length, or an extra type) must separate.
  const Instance base = generate_mixed(small_params(6, 12), 0.5);
  const std::uint64_t reference = canonical_instance_hash(base);

  Instance tweaked = base;
  tweaked.cal = CalibrationModel::unit(base.T);
  EXPECT_EQ(canonical_instance_hash(tweaked), reference) << "explicit unit";

  tweaked.cal.types[0].cost = 2;
  EXPECT_NE(canonical_instance_hash(tweaked), reference) << "cost nudge";

  tweaked = base;
  tweaked.cal = CalibrationModel::unit(base.T);
  tweaked.cal.types[0].activation_delay = 1;
  EXPECT_NE(canonical_instance_hash(tweaked), reference) << "delay nudge";

  tweaked = base;
  tweaked.cal = CalibrationModel::unit(base.T);
  tweaked.cal.types.push_back({2 * base.T, 3, 0});
  const std::uint64_t two_types = canonical_instance_hash(tweaked);
  EXPECT_NE(two_types, reference) << "extra type";

  // The table is ordered (type ids are semantic): swapping entries is a
  // different instance.
  std::swap(tweaked.cal.types[0], tweaked.cal.types[1]);
  EXPECT_NE(canonical_instance_hash(tweaked), two_types) << "type order";
}

TEST(InstanceHash, DistinctAcrossGeneratedFamily) {
  // 64 generated instances; any hash collision here would be a red flag
  // for the fold's diffusion.
  std::set<std::uint64_t> seen;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    const Instance instance = generate_mixed(small_params(seed, 10), 0.5);
    EXPECT_TRUE(seen.insert(canonical_instance_hash(instance)).second)
        << "collision at seed " << seed;
  }
}

// -------------------------------------------------------------- LruCache --
// LRU semantics of one cache shard: ShardedLruCache(capacity, 1) is the
// service's cache with exact capacity-wide recency. Keys double as hashes.

TEST(LruCache, EvictsLeastRecentlyUsed) {
  ShardedLruCache<int, std::string> cache(2, 1);
  cache.put(1, 1, "a");
  cache.put(2, 2, "b");
  cache.put(3, 3, "c");  // evicts 1
  std::string value;
  EXPECT_FALSE(cache.get(1, 1, &value));
  ASSERT_TRUE(cache.get(2, 2, &value));
  EXPECT_EQ(value, "b");
  EXPECT_EQ(cache.size(), 2u);
}

TEST(LruCache, GetRefreshesRecency) {
  ShardedLruCache<int, int> cache(2, 1);
  cache.put(1, 1, 10);
  cache.put(2, 2, 20);
  int value = 0;
  EXPECT_TRUE(cache.get(1, 1, &value));  // 1 becomes most-recent
  cache.put(3, 3, 30);                    // evicts 2, not 1
  EXPECT_FALSE(cache.get(2, 2, &value));
  // Recency order is now 3, 1 (get(2) missed and promoted nothing), so the
  // next put evicts 1; a get(1) here would have made it evict 3 instead.
  cache.put(4, 4, 40);
  EXPECT_FALSE(cache.get(1, 1, &value));
  EXPECT_TRUE(cache.get(3, 3, &value));
  EXPECT_EQ(value, 30);
  EXPECT_TRUE(cache.get(4, 4, &value));
  EXPECT_EQ(cache.size(), 2u);
}

TEST(LruCache, PutOverwritesInPlace) {
  ShardedLruCache<int, int> cache(2, 1);
  cache.put(1, 1, 10);
  cache.put(1, 1, 11);
  EXPECT_EQ(cache.size(), 1u);
  int value = 0;
  ASSERT_TRUE(cache.get(1, 1, &value));
  EXPECT_EQ(value, 11);
}

TEST(LruCache, CapacityZeroDisables) {
  ShardedLruCache<int, int> cache(0, 1);
  cache.put(1, 1, 10);
  int value = 0;
  EXPECT_FALSE(cache.get(1, 1, &value));
  EXPECT_EQ(cache.size(), 0u);
}

// ---------------------------------------------------------- SolveService --

TEST(SolveService, SolvesAndVerifies) {
  ServiceOptions options;
  options.threads = 2;
  SolveService service(AlgorithmRegistry::builtin(), options);
  const Instance instance = generate_mixed(small_params(7), 0.5);
  const SolveOutcome outcome = service.submit(solve_request(instance))->wait();
  EXPECT_EQ(outcome.status, SolveStatus::kOk);
  ASSERT_TRUE(outcome.feasible) << outcome.error;
  EXPECT_TRUE(outcome.verified);
  EXPECT_GT(outcome.calibrations, 0u);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.received, 1);
  EXPECT_EQ(stats.completed, 1);
  EXPECT_EQ(stats.cache_misses, 1);
}

TEST(SolveService, PermutedDuplicateServedFromCache) {
  ServiceOptions options;
  options.threads = 1;
  SolveService service(AlgorithmRegistry::builtin(), options);
  Instance instance = generate_mixed(small_params(8), 0.5);
  const SolveOutcome first = service.submit(solve_request(instance))->wait();
  ASSERT_TRUE(first.feasible) << first.error;

  Rng rng(4);
  rng.shuffle(instance.jobs);
  const SolveOutcome second = service.submit(solve_request(instance))->wait();
  EXPECT_EQ(second.status, SolveStatus::kOk);
  EXPECT_EQ(second.calibrations, first.calibrations);
  EXPECT_EQ(second.machines, first.machines);
  EXPECT_TRUE(second.verified);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache_hits, 1);
  EXPECT_EQ(stats.cache_misses, 1);
  EXPECT_EQ(stats.cache_size, 1);
}

TEST(SolveService, CalibrationModelDiscriminatesCacheEntries) {
  // Implicit unit table and explicit unit(T) hash alike, so the second
  // submit is a cache hit; a changed type cost is a different instance
  // and must miss. The cost-model solver path also threads total_cost
  // through the outcome.
  ServiceOptions options;
  options.threads = 1;
  SolveService service(AlgorithmRegistry::builtin(), options);
  GenParams params = small_params(10, 6);
  params.machines = 1;
  params.T = 5;
  params.max_proc = 4;
  params.horizon = 40;
  Instance instance = generate_mixed(params, 0.5);
  const SolveOutcome implicit_unit =
      service.submit(solve_request(instance, "dp-calib-cost"))->wait();
  ASSERT_TRUE(implicit_unit.feasible) << implicit_unit.error;
  EXPECT_EQ(implicit_unit.total_cost,
            static_cast<std::int64_t>(implicit_unit.calibrations));

  instance.cal = CalibrationModel::unit(instance.T);
  const SolveOutcome explicit_unit =
      service.submit(solve_request(instance, "dp-calib-cost"))->wait();
  EXPECT_EQ(explicit_unit.total_cost, implicit_unit.total_cost);
  EXPECT_EQ(service.stats().cache_hits, 1);

  // Tripling the type cost is a different instance (cache miss), and the
  // exact DP's optimum simply scales: same calibrations, triple the cost.
  instance.cal.types[0].cost = 3;
  const SolveOutcome pricier =
      service.submit(solve_request(instance, "dp-calib-cost"))->wait();
  EXPECT_EQ(service.stats().cache_hits, 1);
  EXPECT_EQ(service.stats().cache_misses, 2);
  ASSERT_TRUE(pricier.feasible) << pricier.error;
  EXPECT_EQ(pricier.total_cost, 3 * implicit_unit.total_cost);
}

TEST(SolveService, DifferentAlgorithmMissesCache) {
  ServiceOptions options;
  options.threads = 1;
  SolveService service(AlgorithmRegistry::builtin(), options);
  const Instance instance = generate_mixed(small_params(9), 0.5);
  (void)service.submit(solve_request(instance, "combined"))->wait();
  (void)service.submit(solve_request(instance, "per-job"))->wait();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache_hits, 0);
  EXPECT_EQ(stats.cache_misses, 2);
}

TEST(SolveService, FullQueueRejectsDeterministically) {
  ServiceOptions options;
  options.threads = 1;
  options.queue_capacity = 2;
  SolveService service(AlgorithmRegistry::builtin(), options);
  service.pause();  // hold workers: admission is the only moving part

  const Instance instance = generate_mixed(small_params(10), 0.5);
  auto first = service.submit(solve_request(instance));
  auto second = service.submit(solve_request(instance));
  auto third = service.submit(solve_request(instance));

  ASSERT_TRUE(third->ready());  // rejected synchronously, never queued
  const SolveOutcome& bounced = third->wait();
  EXPECT_TRUE(bounced.rejected);
  EXPECT_EQ(bounced.status, SolveStatus::kLimitExceeded);
  EXPECT_NE(bounced.error.find("queue full"), std::string::npos)
      << bounced.error;

  service.resume();
  EXPECT_TRUE(first->wait().feasible);
  EXPECT_TRUE(second->wait().feasible);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.rejected, 1);
  EXPECT_EQ(stats.accepted, 2);
  EXPECT_EQ(stats.completed, 2);
  EXPECT_EQ(stats.outstanding, 0);
}

TEST(SolveService, DeadlineStampedAtAdmission) {
  ServiceOptions options;
  options.threads = 1;
  SolveService service(AlgorithmRegistry::builtin(), options);
  service.pause();
  ServiceRequest request = solve_request(generate_mixed(small_params(11), 0.5));
  request.timeout_ms = 5;
  auto pending = service.submit(request);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  service.resume();
  const SolveOutcome& outcome = pending->wait();
  EXPECT_EQ(outcome.status, SolveStatus::kDeadlineExceeded);
  EXPECT_FALSE(outcome.feasible);

  // A limit-stopped outcome must not poison the cache: the same instance
  // without a deadline (-1 = field absent) solves honestly.
  request.timeout_ms = -1;
  const SolveOutcome retry = service.submit(request)->wait();
  EXPECT_TRUE(retry.feasible) << retry.error;
  EXPECT_EQ(service.stats().cache_hits, 0);
}

TEST(SolveService, ExplicitZeroTimeoutExpiresSynchronously) {
  // An explicit "timeout_ms":0 is an already-expired deadline, not "no
  // deadline": the request completes synchronously with status "deadline"
  // and runs no solver. Regression test — the old code treated 0 as the
  // absent-field sentinel and solved the instance honestly.
  ServiceOptions options;
  options.threads = 1;
  SolveService service(AlgorithmRegistry::builtin(), options);
  service.pause();  // workers held: a synchronous answer cannot come from one
  ServiceRequest request = solve_request(generate_mixed(small_params(17), 0.5));
  request.timeout_ms = 0;
  auto pending = service.submit(request);
  ASSERT_TRUE(pending->ready());  // never queued, never touched a worker
  const SolveOutcome& outcome = pending->wait();
  EXPECT_EQ(outcome.status, SolveStatus::kDeadlineExceeded);
  EXPECT_FALSE(outcome.feasible);
  EXPECT_FALSE(outcome.rejected);  // completed, not backpressure

  // The expired answer is position-independent: it must not have probed or
  // seeded the cache, so the honest solve afterwards is a miss that solves.
  service.resume();
  request.timeout_ms = -1;
  const SolveOutcome honest = service.submit(request)->wait();
  EXPECT_TRUE(honest.feasible) << honest.error;
  EXPECT_EQ(service.stats().cache_hits, 0);

  // And once cached, "timeout_ms":0 still answers "deadline" — the probe
  // must not be short-circuited by a hit.
  request.timeout_ms = 0;
  const SolveOutcome again = service.submit(request)->wait();
  EXPECT_EQ(again.status, SolveStatus::kDeadlineExceeded);
}

TEST(SolveService, UnknownAlgorithmIsClientError) {
  SolveService service(AlgorithmRegistry::builtin(), {});
  const SolveOutcome outcome =
      service
          .submit(solve_request(generate_mixed(small_params(12), 0.5), "nope"))
          ->wait();
  EXPECT_FALSE(outcome.feasible);
  EXPECT_FALSE(outcome.rejected);
  EXPECT_NE(outcome.error.find("unknown algorithm"), std::string::npos);
  EXPECT_EQ(service.stats().errors, 1);
  EXPECT_EQ(service.stats().rejected, 0);
}

TEST(SolveService, OracleNamesAreUnknownAlgorithms) {
  // The branch-and-bound oracles are test-and-bench code, not registry
  // entries: a request naming one is refused like any unknown name.
  SolveService service(AlgorithmRegistry::builtin(), {});
  const SolveOutcome outcome =
      service
          .submit(solve_request(generate_mixed(small_params(12), 0.5),
                                "mm-exact-bnb"))
          ->wait();
  EXPECT_FALSE(outcome.feasible);
  EXPECT_FALSE(outcome.rejected);
  EXPECT_NE(outcome.error.find("unknown algorithm 'mm-exact-bnb'"),
            std::string::npos);
  EXPECT_EQ(service.stats().errors, 1);
}

TEST(SolveService, ShutdownDrainsAndRefusesNewWork) {
  ServiceOptions options;
  options.threads = 2;
  SolveService service(AlgorithmRegistry::builtin(), options);
  std::vector<SolveService::PendingPtr> pending;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    pending.push_back(
        service.submit(solve_request(generate_mixed(small_params(seed), 0.5))));
  }
  service.shutdown(/*drain=*/true);
  for (const auto& p : pending) {
    ASSERT_TRUE(p->ready());
    EXPECT_TRUE(p->wait().feasible) << p->wait().error;
  }
  const SolveOutcome late =
      service.submit(solve_request(generate_mixed(small_params(99), 0.5)))
          ->wait();
  EXPECT_TRUE(late.rejected);
  EXPECT_EQ(late.status, SolveStatus::kCancelled);
}

TEST(SolveService, AbortShutdownCancelsInFlight) {
  ServiceOptions options;
  options.threads = 1;
  SolveService service(AlgorithmRegistry::builtin(), options);
  service.pause();
  auto pending =
      service.submit(solve_request(generate_mixed(small_params(13), 0.5)));
  service.shutdown(/*drain=*/false);  // fires the CancelToken, then drains
  const SolveOutcome& outcome = pending->wait();
  EXPECT_EQ(outcome.status, SolveStatus::kCancelled);
}

// ------------------------------------------------------------- protocol --

TEST(ServiceProtocol, ParseRejectsMalformedShapes) {
  EXPECT_FALSE(parse_request("not json").ok);
  EXPECT_FALSE(parse_request("[1,2]").ok);
  EXPECT_FALSE(parse_request("{\"type\":42}").ok);
  EXPECT_FALSE(parse_request("{\"type\":\"warp\"}").ok);
  EXPECT_FALSE(parse_request("{\"type\":\"solve\"}").ok);
  const ParsedRequest bad_job = parse_request(
      "{\"type\":\"solve\",\"instance\":{\"machines\":1,\"T\":4,"
      "\"jobs\":[[0,0,4]]}}");
  EXPECT_FALSE(bad_job.ok);
  EXPECT_NE(bad_job.error.find("job"), std::string::npos);
  const ParsedRequest bad_timeout = parse_request(
      "{\"type\":\"solve\",\"timeout_ms\":-3,\"instance\":{\"machines\":1,"
      "\"T\":4,\"jobs\":[[0,0,4,2]]}}");
  EXPECT_FALSE(bad_timeout.ok);
  EXPECT_NE(bad_timeout.error.find("timeout_ms"), std::string::npos);
}

TEST(ServiceProtocol, TimeoutAbsentAndZeroAreDistinct) {
  // Absent "timeout_ms" parses to the -1 sentinel (no deadline); an
  // explicit 0 survives as 0 (already-expired deadline). Regression test —
  // the old decoder used 0 for both, making "timeout_ms":0 unexpressable.
  const ParsedRequest absent = parse_request(
      "{\"type\":\"solve\",\"instance\":{\"machines\":1,\"T\":4,"
      "\"jobs\":[[0,0,4,2]]}}");
  ASSERT_TRUE(absent.ok) << absent.error;
  EXPECT_EQ(absent.request.timeout_ms, -1);
  const ParsedRequest zero = parse_request(
      "{\"type\":\"solve\",\"timeout_ms\":0,\"instance\":{\"machines\":1,"
      "\"T\":4,\"jobs\":[[0,0,4,2]]}}");
  ASSERT_TRUE(zero.ok) << zero.error;
  EXPECT_EQ(zero.request.timeout_ms, 0);
}

TEST(ServiceProtocol, ParseRecoversIdFromBadRequests) {
  const ParsedRequest parsed = parse_request("{\"id\":\"r7\",\"type\":\"warp\"}");
  EXPECT_FALSE(parsed.ok);
  ASSERT_TRUE(parsed.id.is_string());
  EXPECT_EQ(parsed.id.as_string(), "r7");
}

TEST(ServiceProtocol, InstanceJsonRoundTripsThroughParse) {
  const Instance instance = generate_mixed(small_params(21), 0.5);
  JsonValue::Object request;
  request.emplace_back("type", JsonValue("solve"));
  request.emplace_back("instance", instance_to_json(instance));
  const ParsedRequest parsed = parse_request(JsonValue(request).dump(0));
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.request.instance.machines, instance.machines);
  EXPECT_EQ(parsed.request.instance.T, instance.T);
  ASSERT_EQ(parsed.request.instance.jobs.size(), instance.jobs.size());
  EXPECT_EQ(canonical_instance_hash(parsed.request.instance),
            canonical_instance_hash(instance));
}

TEST(ServiceProtocol, CaltypesRoundTripAndRejectMalformed) {
  Instance instance = generate_mixed(small_params(23, 8), 0.5);
  instance.cal.types = {{instance.T, 2, 0}, {2 * instance.T, 5, 1}};
  JsonValue::Object request;
  request.emplace_back("type", JsonValue("solve"));
  request.emplace_back("instance", instance_to_json(instance));
  const std::string line = JsonValue(request).dump(0);
  EXPECT_NE(line.find("\"caltypes\""), std::string::npos);
  const ParsedRequest parsed = parse_request(line);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.request.instance.cal, instance.cal);
  EXPECT_EQ(canonical_instance_hash(parsed.request.instance),
            canonical_instance_hash(instance));

  // Unit-model instances emit no caltypes field at all (wire compat).
  instance.cal.types.clear();
  EXPECT_EQ(instance_to_json(instance).dump(0).find("caltypes"),
            std::string::npos);

  const ParsedRequest bad = parse_request(
      "{\"type\":\"solve\",\"instance\":{\"machines\":1,\"T\":4,"
      "\"caltypes\":[[4,1]],\"jobs\":[[0,0,8,2]]}}");
  EXPECT_FALSE(bad.ok);
  EXPECT_NE(bad.error.find("caltype"), std::string::npos);
}

// ----------------------------------------------------------- stdio serve --

std::string serve_script(const std::string& input, std::size_t threads,
                         ServeReport* report = nullptr,
                         std::size_t queue_capacity = 64) {
  ServiceOptions options;
  options.threads = threads;
  options.queue_capacity = queue_capacity;
  std::istringstream in(input);
  std::ostringstream out;
  EXPECT_EQ(run_stdio_server(AlgorithmRegistry::builtin(), options, in, out,
                             report),
            0);
  return out.str();
}

std::string solve_line(const Instance& instance, int id,
                       const std::string& algorithm = "combined") {
  JsonValue::Object request;
  request.emplace_back("type", JsonValue("solve"));
  request.emplace_back("id", JsonValue(std::int64_t{id}));
  request.emplace_back("algo", JsonValue(algorithm));
  request.emplace_back("instance", instance_to_json(instance));
  return JsonValue(std::move(request)).dump(0) + "\n";
}

TEST(ServeStdio, ResponsesByteIdenticalAcrossThreadCounts) {
  // The serve-mode analogue of the PR 3/4 determinism pattern: solve
  // responses carry no timing and are written in request order, so the
  // whole stream is byte-identical at any worker-thread count — including
  // a malformed line, an unknown algorithm, and permuted duplicates whose
  // cache fate may differ between runs.
  std::string input;
  int id = 0;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    input += solve_line(generate_mixed(small_params(seed), 0.5), id++);
  }
  input += "{\"id\":100,\"type\":\"solve\"}\n";  // missing instance
  input += solve_line(generate_mixed(small_params(2), 0.5), id++);  // duplicate
  Instance permuted = generate_mixed(small_params(3), 0.5);
  Rng rng(1);
  rng.shuffle(permuted.jobs);
  input += solve_line(permuted, id++);  // permuted duplicate
  input += solve_line(generate_mixed(small_params(7), 0.5), id++, "nope");

  const std::string one = serve_script(input, 1);
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, serve_script(input, 4));
  EXPECT_EQ(one, serve_script(input, 8));
  // Sanity: one response line per request line.
  EXPECT_EQ(static_cast<int>(std::count(one.begin(), one.end(), '\n')), id + 1);
}

TEST(ServeStdio, MalformedLinesGetStructuredErrors) {
  ServeReport report;
  const std::string output = serve_script(
      "garbage\n{\"type\":\"ping\",\"id\":\"p\"}\n{}\n", 2, &report);
  EXPECT_EQ(report.lines, 3);
  EXPECT_EQ(report.malformed, 2);
  std::istringstream lines(output);
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_NE(line.find("\"type\":\"error\""), std::string::npos) << line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_NE(line.find("\"op\":\"ping\""), std::string::npos) << line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_NE(line.find("\"type\":\"error\""), std::string::npos) << line;
}

TEST(ServeStdio, PauseFillRejectResumeIsDeterministic) {
  // With workers paused, the bounded queue fills in request order: the
  // first two solves are admitted, the third bounces with a reject
  // response, and resume lets the admitted ones finish. Every byte of
  // this conversation is deterministic.
  const Instance instance = generate_mixed(small_params(30), 0.5);
  std::string input = "{\"type\":\"pause\",\"id\":\"hold\"}\n";
  input += solve_line(instance, 1);
  Instance other = generate_mixed(small_params(31), 0.5);
  input += solve_line(other, 2);
  input += solve_line(generate_mixed(small_params(32), 0.5), 3);  // bounced
  input += "{\"type\":\"resume\",\"id\":\"go\"}\n";
  input += "{\"type\":\"stats\",\"id\":\"s\"}\n";

  ServeReport report;
  const std::string output =
      serve_script(input, 1, &report, /*queue_capacity=*/2);
  std::vector<std::string> lines;
  std::istringstream stream(output);
  for (std::string line; std::getline(stream, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 6u);
  EXPECT_NE(lines[0].find("\"op\":\"pause\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"status\":\"ok\""), std::string::npos) << lines[1];
  EXPECT_NE(lines[2].find("\"status\":\"ok\""), std::string::npos) << lines[2];
  EXPECT_NE(lines[3].find("\"type\":\"reject\""), std::string::npos) << lines[3];
  EXPECT_NE(lines[3].find("queue full"), std::string::npos) << lines[3];
  EXPECT_NE(lines[4].find("\"op\":\"resume\""), std::string::npos);
  EXPECT_NE(lines[5].find("\"rejected\":1"), std::string::npos) << lines[5];
  EXPECT_NE(lines[5].find("\"completed\":2"), std::string::npos) << lines[5];
}

TEST(ServeStdio, StatsReportsCacheHitsForDuplicates) {
  const Instance instance = generate_mixed(small_params(33), 0.5);
  std::string input = solve_line(instance, 1);
  Instance permuted = instance;
  Rng rng(8);
  rng.shuffle(permuted.jobs);
  input += solve_line(permuted, 2);
  input += solve_line(instance, 3);
  input += "{\"type\":\"stats\",\"id\":\"s\"}\n";
  input += "{\"type\":\"shutdown\",\"id\":\"bye\"}\n";
  input += solve_line(instance, 4);  // after shutdown: never read

  ServeReport report;
  const std::string output = serve_script(input, 1, &report);
  EXPECT_TRUE(report.shutdown_requested);
  EXPECT_EQ(report.lines, 5);  // the post-shutdown line was not consumed
  EXPECT_NE(output.find("\"cache_hits\":2"), std::string::npos) << output;
  EXPECT_NE(output.find("\"op\":\"shutdown\""), std::string::npos);
}

TEST(ServeStdio, ScheduleAttachedOnRequest) {
  const Instance instance = generate_mixed(small_params(34), 0.5);
  JsonValue::Object request;
  request.emplace_back("type", JsonValue("solve"));
  request.emplace_back("id", JsonValue(1));
  request.emplace_back("schedule", JsonValue(true));
  request.emplace_back("instance", instance_to_json(instance));
  const std::string output =
      serve_script(JsonValue(std::move(request)).dump(0) + "\n", 1);
  EXPECT_NE(output.find("\"schedule\":{"), std::string::npos) << output;
  EXPECT_NE(output.find("\"calibrations\":["), std::string::npos) << output;
}

// ------------------------------------------------------------- TCP serve --

class TcpClient {
 public:
  explicit TcpClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    address.sin_port = htons(static_cast<std::uint16_t>(port));
    connected_ = ::connect(fd_, reinterpret_cast<const sockaddr*>(&address),
                           sizeof address) == 0;
  }
  ~TcpClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  [[nodiscard]] bool connected() const { return connected_; }

  void send(const std::string& text) {
    const char* data = text.data();
    std::size_t remaining = text.size();
    while (remaining > 0) {
      const ssize_t written = ::write(fd_, data, remaining);
      ASSERT_GT(written, 0);
      data += written;
      remaining -= static_cast<std::size_t>(written);
    }
  }

  /// Reads until `lines` newline-terminated responses have arrived.
  [[nodiscard]] std::vector<std::string> read_lines(std::size_t lines) {
    std::vector<std::string> result;
    std::string current;
    char buffer[4096];
    while (result.size() < lines) {
      const ssize_t count = ::read(fd_, buffer, sizeof buffer);
      if (count <= 0) break;
      for (ssize_t i = 0; i < count; ++i) {
        if (buffer[i] == '\n') {
          result.push_back(current);
          current.clear();
        } else {
          current.push_back(buffer[i]);
        }
      }
    }
    return result;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

TEST(ServeTcp, SolvesOverLoopbackAndShutsDownCleanly) {
  ServiceOptions options;
  // One worker serializes the two solves, so the duplicate's cache hit is
  // deterministic (two workers could run both before either is cached).
  options.threads = 1;
  SolveService service(AlgorithmRegistry::builtin(), options);
  TcpServer server(service);
  const int port = server.start(0);  // ephemeral
  ASSERT_GT(port, 0);
  std::thread serving([&server] { server.serve(); });

  {
    TcpClient client(port);
    ASSERT_TRUE(client.connected());
    const Instance instance = generate_mixed(small_params(40), 0.5);
    client.send(solve_line(instance, 1));
    client.send(solve_line(instance, 2));  // cache hit
    client.send("{\"type\":\"stats\",\"id\":\"s\"}\n");
    client.send("{\"type\":\"shutdown\",\"id\":\"bye\"}\n");
    const std::vector<std::string> lines = client.read_lines(4);
    ASSERT_EQ(lines.size(), 4u);
    EXPECT_NE(lines[0].find("\"status\":\"ok\""), std::string::npos) << lines[0];
    // Identical payloads modulo the echoed id ({"id":1, vs {"id":2,).
    ASSERT_GT(lines[0].size(), 8u);
    ASSERT_GT(lines[1].size(), 8u);
    EXPECT_EQ(lines[0].substr(8), lines[1].substr(8))
        << "duplicate response differs";
    EXPECT_NE(lines[2].find("\"cache_hits\":1"), std::string::npos) << lines[2];
    EXPECT_NE(lines[3].find("\"op\":\"shutdown\""), std::string::npos);
  }

  serving.join();  // the shutdown request stopped the accept loop
  service.shutdown(/*drain=*/true);
  EXPECT_EQ(service.stats().cache_hits, 1);
}

// -------------------------------------------------------------- loadgen --

TEST(LoadGen, PoissonArrivalsArePerConnectionStreams) {
  LoadGenOptions options;
  options.pacing = LoadGenOptions::Pacing::kPoisson;
  options.rate = 50'000.0;
  options.requests = 64;
  options.seed = 9;

  // Regression: the old generator drew every gap from one global RNG, so
  // the connection count had no effect on the arrival schedule and each
  // connection's process was a correlated slice of the same stream. With
  // per-connection seeding the count is part of the draw.
  options.connections = 1;
  const std::vector<std::int64_t> one = build_arrival_offsets(options);
  options.connections = 2;
  const std::vector<std::int64_t> two = build_arrival_offsets(options);
  ASSERT_EQ(one.size(), two.size());
  EXPECT_NE(one, two);

  // Deterministic per seed; a different seed moves the schedule.
  EXPECT_EQ(two, build_arrival_offsets(options));
  options.seed = 10;
  EXPECT_NE(two, build_arrival_offsets(options));
  options.seed = 9;

  // The two connections see different schedules: their gap sequences are
  // independent streams, each nondecreasing in its own send order.
  std::vector<std::int64_t> gaps[2];
  std::int64_t last[2] = {0, 0};
  for (std::size_t i = 0; i < two.size(); ++i) {
    const std::size_t c = i % 2;
    EXPECT_GE(two[i], last[c]) << "connection " << c << " regressed at " << i;
    gaps[c].push_back(two[i] - last[c]);
    last[c] = two[i];
  }
  EXPECT_NE(gaps[0], gaps[1]);
}

TEST(LoadGen, FixedPacingAndFloodAreUnchanged) {
  LoadGenOptions options;
  options.connections = 4;
  options.requests = 10;
  options.rate = 0.0;  // flood: everything at t0
  EXPECT_EQ(build_arrival_offsets(options),
            std::vector<std::int64_t>(10, 0));

  options.rate = 1000.0;  // 1ms spacing, globally monotone
  options.pacing = LoadGenOptions::Pacing::kFixed;
  const std::vector<std::int64_t> fixed = build_arrival_offsets(options);
  ASSERT_EQ(fixed.size(), 10u);
  for (std::size_t i = 0; i < fixed.size(); ++i) {
    EXPECT_EQ(fixed[i], static_cast<std::int64_t>(i + 1) * 1'000'000);
  }
}

}  // namespace
}  // namespace calisched
