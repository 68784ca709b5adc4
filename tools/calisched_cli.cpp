// calisched — command-line front end.
//
// Usage:
//   calisched <instance-file> [--algo=NAME] [--gantt] [--csv] [--quiet]
//             [--save-schedule=FILE] [--trace-json=FILE] [--node-budget=N]
//   calisched --generate=FAMILY [--seed=N --n=N --T=N --machines=N
//             --horizon=N --max-proc=N] [family flags] [--out=FILE]
//   calisched solve-batch [instance-files...] [--algo=NAME] [--threads=N]
//             [--timeout-ms=N] [--node-budget=N] [--out=FILE] [--no-timing]
//             [--trace]
//             [--family=F --count=N --seed=N --n=N --T=N --machines=N ...]
//   calisched serve (--stdio | --port=P) [--threads=N] [--queue-capacity=N]
//             [--cache-capacity=N] [--cache-shards=N]
//             [--server=epoll|threads] [--io-threads=N] [--backlog=N]
//   calisched replay <instance-file> [--algo=online-edf] [--schedule]
//
// Every mode reads all of its flags before doing any work; a flag the mode
// does not define is an error (exit 2, naming the flag).
//
// The single-instance path runs one algorithm from AlgorithmRegistry::
// builtin() (the registry lists every name and what each one requires) and
// prints a summary, an optional ASCII Gantt chart, and optional CSV. The
// registry adapter verifies the schedule independently before reporting it
// feasible; that pass is the one check. MM boxes (mm-*) and gap-min report a
// machine or block count rather than a schedule, so they run only under
// solve-batch. --node-budget=N caps the exact solvers' node/state count
// (exhaustion reports "limit-exceeded", never "infeasible"); 0 keeps each
// solver's default. --trace-json=FILE writes the solve's full stage trace
// (per-stage spans, counters, LP/MM telemetry, schedule stats) as JSON; FILE
// of "-" means stdout.
//
// --generate writes one instance of a gen/generators.hpp family (see
// generate_family) to --out or stdout. The family flags are --long-fraction
// (mixed), --max-window (unit), --bursts (clustered, online-burst),
// --burst-span and --long-windows (clustered), and --mean-gap
// (online-poisson); 0 means the family's default.
//
// solve-batch runs one registered algorithm over many instances concurrently
// and writes one JSON record per instance (JSONL). Instances come from the
// positional files, or — when none are given — from the generator flags
// (same as --generate, with --family naming the family, plus --count;
// instance i uses a seed derived from --seed and i, and --generate with that
// seed rebuilds it). Results are deterministic: the output is byte-identical
// for every --threads value once --no-timing drops the elapsed-time fields.
// --timeout-ms is a per-instance wall-clock deadline (records report status
// "deadline-exceeded" when it fires).
//
// serve starts the persistent solve service (see src/service/): newline-
// delimited JSON requests in, one response line per request, in request
// order. --stdio speaks over stdin/stdout (the response stream is byte-
// identical for any --threads value); --port=P listens on 127.0.0.1:P
// (0 picks a free port, printed to stderr). The TCP front end is the
// nonblocking epoll event loop by default (--io-threads event-loop
// threads, --backlog listen() backlog, <= 0 meaning SOMAXCONN);
// --server=threads selects the legacy thread-per-connection accept loop.
// Both produce byte-identical response streams. The service runs every
// request through the algorithm registry behind a bounded queue
// (--queue-capacity, full queue => "reject" response, never unbounded
// growth) and a sharded LRU result cache (--cache-capacity total entries
// over --cache-shards independently locked shards) keyed by a canonical
// instance hash, so permuted copies of one instance hit the same entry.
// Request deadlines (timeout_ms) map onto RunLimits; a "stats" request
// reports requests/rejects/cache hits/latency percentiles (p50 to p999);
// "shutdown" drains in-flight solves and exits cleanly. See DESIGN.md
// sections 11 and 14 for the protocol and the event loop.
//
// replay feeds the instance through the online-arrival simulator (each job
// becomes known at its release time) and prints the schedule-delta stream:
// one NDJSON "delta" line per advancement — byte-identical to what a
// `subscribe` session over serve streams for the same trace — followed by
// one "result" line (--schedule attaches the full committed schedule).
// The replay is deterministic: the same instance prints the same bytes on
// every run. Exit status 0 when the online run is feasible, 1 when the
// heuristic lost a job (the stream and result line are still printed).
#include <fstream>
#include <iostream>
#include <optional>
#include <string_view>

#include "baselines/calibration_bounds.hpp"
#include "core/schedule_io.hpp"
#include "gen/generators.hpp"
#include "online/online.hpp"
#include "report/ascii_gantt.hpp"
#include "report/stats.hpp"
#include "runtime/batch.hpp"
#include "service/epoll_server.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "trace/trace.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace calisched;

/// Call after a mode has read every flag it defines: whatever is left was
/// not read, so the mode does not take it.
bool has_unknown_flags(const CliArgs& args, std::string_view mode) {
  const std::vector<std::string> unknown = args.unused();
  for (const std::string& flag : unknown) {
    std::cerr << "error: unknown flag --" << flag << " for " << mode << '\n';
  }
  return !unknown.empty();
}

/// Registry lookup shared by every mode that takes --algo; reports an
/// unknown name together with the registered ones.
const Algorithm* find_algorithm(const std::string& name) {
  const AlgorithmRegistry& registry = AlgorithmRegistry::builtin();
  const Algorithm* algorithm = registry.find(name);
  if (!algorithm) {
    std::cerr << "unknown algorithm '" << name << "'; registered:";
    for (const std::string& known : registry.names()) std::cerr << ' ' << known;
    std::cerr << '\n';
  }
  return algorithm;
}

std::optional<Instance> load_instance(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    std::cerr << "cannot read " << path << '\n';
    return std::nullopt;
  }
  try {
    return read_instance(file);
  } catch (const std::exception& error) {
    std::cerr << path << ": " << error.what() << '\n';
    return std::nullopt;
  }
}

/// Opens `path` and hands the stream to `write`; false (after a message)
/// when the file cannot be opened.
template <class Write>
bool write_file(const std::string& path, Write&& write) {
  std::ofstream file(path);
  if (!file) {
    std::cerr << "cannot open " << path << " for writing\n";
    return false;
  }
  write(file);
  return true;
}

struct GeneratorFlags {
  GenParams params;
  FamilyOptions options;
};

/// The generator flags --generate and solve-batch share.
GeneratorFlags read_generator_flags(const CliArgs& args) {
  GeneratorFlags flags;
  GenParams& params = flags.params;
  params.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  params.n = static_cast<int>(args.get_int("n", 12));
  params.T = args.get_int("T", 10);
  params.machines = static_cast<int>(args.get_int("machines", 2));
  params.horizon = args.get_int("horizon", 10 * params.T);
  params.max_proc = args.get_int("max-proc", params.T);
  FamilyOptions& options = flags.options;
  options.long_fraction = args.get_double("long-fraction", 0.5);
  options.max_window = args.get_int("max-window", 0);
  options.bursts = static_cast<int>(args.get_int("bursts", 0));
  options.burst_span = args.get_int("burst-span", 0);
  options.long_windows = args.get_bool("long-windows", false);
  options.mean_gap = args.get_double("mean-gap", 0.0);
  return flags;
}

int generate_mode(const CliArgs& args) {
  const std::string family = args.get("generate", "mixed");
  const GeneratorFlags flags = read_generator_flags(args);
  const std::string out = args.get("out", "");
  if (has_unknown_flags(args, "--generate")) return 2;

  const Instance instance =
      generate_family(family, flags.params, flags.options);
  if (out.empty()) {
    write_instance(std::cout, instance);
    return 0;
  }
  if (!write_file(out, [&](std::ostream& file) {
        write_instance(file, instance);
      })) {
    return 2;
  }
  std::cout << "wrote " << instance.size() << " jobs to " << out << '\n';
  return 0;
}

int solve_batch_mode(const CliArgs& args) {
  const std::string algo = args.get("algo", "combined");
  BatchOptions options;
  options.threads = static_cast<std::size_t>(args.get_int("threads", 1));
  const std::int64_t timeout_ms = args.get_int("timeout-ms", 0);
  if (timeout_ms > 0) {
    options.per_instance_deadline = std::chrono::milliseconds(timeout_ms);
  }
  options.node_budget = args.get_int("node-budget", 0);
  options.collect_traces = args.get_bool("trace", false);
  const bool include_timing = !args.get_bool("no-timing", false);
  const std::string out_path = args.get("out", "");
  // Generator flags belong to solve-batch only when no files are given.
  const std::vector<std::string> files(args.positional().begin() + 1,
                                       args.positional().end());
  BatchSpec spec;
  if (files.empty()) {
    spec.family = args.get("family", "mixed");
    spec.count = static_cast<std::size_t>(args.get_int("count", 32));
    const GeneratorFlags flags = read_generator_flags(args);
    spec.params = flags.params;
    spec.options = flags.options;
  }
  const char* mode =
      files.empty() ? "solve-batch" : "solve-batch with instance files";
  if (has_unknown_flags(args, mode)) return 2;
  const Algorithm* algorithm = find_algorithm(algo);
  if (!algorithm) return 2;

  std::vector<Instance> instances;
  if (files.empty()) instances = generate_batch(spec, &options.seeds);
  for (const std::string& path : files) {
    std::optional<Instance> instance = load_instance(path);
    if (!instance) return 2;
    instances.push_back(std::move(*instance));
  }

  const std::vector<BatchRecord> records =
      BatchRunner(*algorithm).run(instances, options);

  if (out_path.empty() || out_path == "-") {
    write_batch_jsonl(std::cout, records, include_timing);
  } else {
    if (!write_file(out_path, [&](std::ostream& out) {
          write_batch_jsonl(out, records, include_timing);
        })) {
      return 2;
    }
    std::cout << "wrote " << records.size() << " records to " << out_path
              << '\n';
  }

  std::size_t solved = 0;
  std::size_t limited = 0;
  for (const BatchRecord& record : records) {
    if (record.feasible) ++solved;
    if (is_limit_status(record.status)) ++limited;
  }
  std::cerr << "solve-batch: " << algo << " on " << records.size()
            << " instances, " << solved << " solved, " << limited
            << " limit-stopped\n";
  return 0;
}

int serve_mode(const CliArgs& args) {
  ServiceOptions options;
  options.threads = static_cast<std::size_t>(args.get_int("threads", 1));
  options.queue_capacity =
      static_cast<std::size_t>(args.get_int("queue-capacity", 64));
  options.cache_capacity =
      static_cast<std::size_t>(args.get_int("cache-capacity", 128));
  options.cache_shards =
      static_cast<std::size_t>(args.get_int("cache-shards", 8));
  const bool stdio = args.get_bool("stdio", false);
  const std::int64_t port = args.get_int("port", -1);
  const std::int64_t backlog = args.get_int("backlog", 0);
  const std::string backend = args.get("server", "epoll");
  const std::size_t io_threads =
      static_cast<std::size_t>(args.get_int("io-threads", 1));
  if (has_unknown_flags(args, "serve")) return 2;
  if (!stdio && port < 0) {
    std::cerr << "serve needs --stdio or --port=P\n";
    return 2;
  }
  if (backend != "epoll" && backend != "threads") {
    std::cerr << "unknown server '" << backend << "' (epoll|threads)\n";
    return 2;
  }

  if (stdio) {
    ServeReport report;
    const int code = run_stdio_server(AlgorithmRegistry::builtin(), options,
                                      std::cin, std::cout, &report);
    std::cerr << "serve: " << report.lines << " request(s), "
              << report.malformed << " malformed, "
              << (report.shutdown_requested ? "shutdown requested"
                                            : "input closed")
              << '\n';
    return code;
  }

  SolveService service(AlgorithmRegistry::builtin(), options);
  if (backend == "epoll") {
    EpollServerOptions server_options;
    server_options.port = static_cast<int>(port);
    server_options.backlog = static_cast<int>(backlog);
    server_options.io_threads = io_threads;
    EpollServer server(service, server_options);
    try {
      server.start();
    } catch (const std::exception& error) {
      std::cerr << error.what() << '\n';
      return 2;
    }
    std::cerr << "serve: listening on 127.0.0.1:" << server.port()
              << " (epoll, " << io_threads << " io thread(s), "
              << options.threads << " worker thread(s), queue "
              << options.queue_capacity << ", cache " << options.cache_capacity
              << "x" << options.cache_shards << " shard(s))\n";
    server.serve();
  } else {
    TcpServer server(service);
    try {
      server.start(static_cast<int>(port), static_cast<int>(backlog));
    } catch (const std::exception& error) {
      std::cerr << error.what() << '\n';
      return 2;
    }
    std::cerr << "serve: listening on 127.0.0.1:" << server.port()
              << " (thread-per-connection, " << options.threads
              << " worker thread(s), queue " << options.queue_capacity
              << ", cache " << options.cache_capacity << ")\n";
    server.serve();
  }
  service.shutdown(/*drain=*/true);
  const ServiceStats stats = service.stats();
  std::cerr << "serve: " << stats.received << " request(s), "
            << stats.cache_hits << " cache hit(s), " << stats.rejected
            << " reject(s)\n";
  return 0;
}

int replay_mode(const CliArgs& args) {
  const std::string algo = args.get("algo", "online-edf");
  const bool want_schedule = args.get_bool("schedule", false);
  if (has_unknown_flags(args, "replay")) return 2;
  const std::vector<std::string>& positional = args.positional();
  if (positional.size() < 2) {
    std::cerr << "replay needs an instance file\n";
    return 2;
  }
  const std::optional<Instance> instance = load_instance(positional[1]);
  if (!instance) return 2;

  const ArrivalTrace trace = ArrivalTrace::from_instance(*instance);
  const OnlineResult result = simulate_trace(algo, trace);
  // The stream a subscribe client would see for the same trace, byte for
  // byte: one delta line per advancement (null id — replay has no request
  // ids), then the result line a finalize would answer with.
  const bool unit_model = trace.cal.empty();
  for (const ScheduleDelta& delta : result.deltas) {
    std::cout << dump_response(make_delta_response(JsonValue(), delta.time,
                                                   delta.calibrations,
                                                   delta.jobs, unit_model))
              << '\n';
  }
  SolveOutcome outcome;
  outcome.status =
      result.feasible ? SolveStatus::kOk : SolveStatus::kInfeasible;
  outcome.feasible = result.feasible;
  outcome.verified = result.feasible;  // finish() ran the verifier
  outcome.jobs = result.schedule.jobs.size();
  outcome.calibrations = result.schedule.num_calibrations();
  outcome.machines = result.schedule.machines;
  outcome.speed = result.schedule.speed;
  outcome.total_cost = result.schedule.total_cost();
  outcome.error = result.error;
  outcome.schedule = result.schedule;
  std::cout << dump_response(
                   make_result_response(JsonValue(), outcome, want_schedule))
            << '\n';
  std::cerr << "replay: " << algo << " over " << trace.events.size()
            << " arrival(s), " << result.events << " event(s), "
            << result.alarms << " alarm(s), "
            << (result.feasible ? "feasible" : "infeasible: " + result.error)
            << '\n';
  return result.feasible ? 0 : 1;
}

void print_csv(const Instance& instance, const Schedule& schedule) {
  Table csv({"kind", "machine", "start", "length"});
  for (const Calibration& cal : schedule.calibrations) {
    csv.row()
        .cell("calibration")
        .cell(std::int64_t{cal.machine})
        .cell(cal.start)
        .cell(schedule.available_end_ticks(cal) -
              schedule.available_start_ticks(cal));
  }
  for (const ScheduledJob& sj : schedule.jobs) {
    csv.row()
        .cell("job" + std::to_string(sj.job))
        .cell(std::int64_t{sj.machine})
        .cell(sj.start)
        .cell(schedule.job_duration_ticks(instance.job_by_id(sj.job).proc));
  }
  std::cout << '\n';
  csv.print_csv(std::cout);
}

int solve_mode(const CliArgs& args) {
  const std::string algo = args.get("algo", "combined");
  const bool gantt = args.get_bool("gantt", false);
  const bool csv = args.get_bool("csv", false);
  const bool quiet = args.get_bool("quiet", false);
  const std::string save_path = args.get("save-schedule", "");
  // A bare --trace-json (parsed as "true") and "-" both mean stdout.
  const bool want_trace = args.has("trace-json");
  const std::string trace_path = args.get("trace-json", "");
  RunLimits limits;
  limits.node_budget = args.get_int("node-budget", 0);
  if (has_unknown_flags(args, "calisched FILE")) return 2;

  if (args.positional().empty()) {
    std::cerr << "usage: calisched <instance-file> [--algo=NAME] [--gantt] "
                 "[--csv]\n       calisched --generate=FAMILY --out=FILE\n"
                 "       calisched solve-batch [files...] [--algo=NAME] "
                 "[--threads=N] [--timeout-ms=N]\n"
                 "       calisched serve (--stdio | --port=P) [--threads=N]\n"
                 "       calisched replay <instance-file> "
                 "[--algo=online-edf] [--schedule]\n";
    return 2;
  }
  const Algorithm* algorithm = find_algorithm(algo);
  if (!algorithm) return 2;
  if (!algorithm->capabilities().produces_ise_schedule) {
    std::cerr << algo << " reports a count, not a schedule; run it with "
                 "`calisched solve-batch FILE --algo="
              << algo << "`\n";
    return 2;
  }
  const std::optional<Instance> loaded = load_instance(args.positional()[0]);
  if (!loaded) return 2;
  const Instance& instance = *loaded;

  TraceContext trace(algo == "combined" ? "solve_ise" : algo);
  trace.note("algorithm", algo);
  TraceSpan solve_span(&trace, "solve");
  const RunResult result =
      algorithm->run(instance, limits, want_trace ? &trace : nullptr);
  solve_span.stop();
  if (!result.feasible) {
    std::cerr << result.error << '\n';  // "<stage>: <status> (<detail>)"
    return 1;
  }

  const Schedule& schedule = result.schedule;
  const ScheduleStats stats = compute_stats(instance, schedule);
  if (want_trace) {
    record_stats(stats, &trace);
    if (trace_path.empty() || trace_path == "-" || trace_path == "true") {
      std::cout << trace.json() << '\n';
    } else if (!write_file(trace_path, [&](std::ostream& file) {
                 file << trace.json() << '\n';
               })) {
      return 2;
    }
  }
  if (!quiet) {
    std::cout << "algorithm        : " << algo << '\n'
              << "jobs             : " << instance.size() << '\n'
              << "calibrations     : " << stats.calibrations;
    if (instance.is_unit_model()) {
      // The load/coloring bound assumes unit-length calibrations; it is
      // meaningless (and possibly above the optimum) under a type table.
      std::cout << "  (lower bound " << calibration_lower_bound(instance)
                << ")\n";
    } else {
      std::cout << '\n'
                << "total cost       : " << result.total_cost << '\n';
    }
    std::cout << "machines used    : " << stats.machines_used << '\n'
              << "speed            : " << result.speed << '\n'
              << "utilization      : " << format_double(stats.utilization, 3)
              << '\n'
              << "verified         : ok\n";
  }
  if (gantt) std::cout << '\n' << render_schedule(instance, schedule);
  if (!save_path.empty()) {
    if (!write_file(save_path, [&](std::ostream& out) {
          write_schedule(out, schedule);
        })) {
      return 2;
    }
    std::cout << "schedule saved to " << save_path << '\n';
  }
  if (csv) print_csv(instance, schedule);
  return 0;
}

int run_cli(int argc, char** argv) {
  const CliArgs args(argc, argv);
  if (args.has("generate")) return generate_mode(args);
  const std::string mode =
      args.positional().empty() ? "" : args.positional()[0];
  if (mode == "solve-batch") return solve_batch_mode(args);
  if (mode == "serve") return serve_mode(args);
  if (mode == "replay") return replay_mode(args);
  return solve_mode(args);
}

}  // namespace

int main(int argc, char** argv) {
  // Flag errors (malformed values, bare '--', an unknown generator family)
  // are user errors, not crashes: CliArgs accessors and generate_family
  // throw std::invalid_argument naming the flag or value.
  try {
    return run_cli(argc, argv);
  } catch (const std::invalid_argument& error) {
    std::cerr << "error: " << error.what() << '\n';
    return 2;
  }
}
