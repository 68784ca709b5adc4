#include "harness.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <thread>
#include <vector>

#include <sched.h>

#include "trace/json.hpp"

namespace calisched {

namespace {
[[nodiscard]] bool targets_stdout(const std::string& path) {
  return path.empty() || path == "-" || path == "true";
}

/// Revised-simplex work summed over a trace tree.
struct LpWork {
  std::int64_t solves = 0;
  std::int64_t pivots = 0;
  std::int64_t etas_applied = 0;
  std::int64_t entries_streamed = 0;  ///< eta + pricing nonzeros
  std::int64_t refactorizations = 0;
  std::int64_t workspace_reuses = 0;
  std::int64_t buffer_growths = 0;
};

/// Adds every context a revised solve recorded into (the ones carrying a
/// `solves` counter), so a trace passed straight to SimplexOptions and a
/// pipeline trace with nested "simplex" children both sum correctly.
void sum_lp_work(const TraceContext& context, LpWork& work) {
  if (context.has_counter("solves")) {
    work.solves += context.counter("solves");
    work.pivots += context.counter("pivots.phase1") +
                   context.counter("pivots.phase2") +
                   context.counter("pivots.expel");
    work.etas_applied += context.counter("eta.applied");
    work.entries_streamed +=
        context.counter("eta.entries") + context.counter("pricing.entries");
    work.refactorizations += context.counter("refactor.count");
    work.workspace_reuses += context.counter("workspace.reused");
    work.buffer_growths += context.counter("workspace.grown");
  }
  for (const auto& child : context.children()) sum_lp_work(*child, work);
}

/// CPUs in this process's affinity mask; hardware_concurrency() if the
/// mask cannot be read. A cpuset that withholds CPUs shows here, while
/// hardware_concurrency() counts every CPU of the host.
[[nodiscard]] unsigned usable_cpus() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&mask)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Spinner iterations `threads` CPU-bound threads complete together in a
/// fixed wall-clock slice.
[[nodiscard]] std::uint64_t spin_iterations(unsigned threads) {
  constexpr auto kSlice = std::chrono::milliseconds(100);
  std::atomic<bool> go{false};
  std::atomic<std::uint64_t> total{0};
  std::vector<std::thread> spinners;
  spinners.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    spinners.emplace_back([&, i] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const auto stop = std::chrono::steady_clock::now() + kSlice;
      std::uint64_t state = 0x9e3779b97f4a7c15ULL + i;
      std::uint64_t done = 0;
      while (std::chrono::steady_clock::now() < stop) {
        for (int k = 0; k < 4096; ++k) {  // xorshift64: pure ALU work
          state ^= state << 13;
          state ^= state >> 7;
          state ^= state << 17;
        }
        done += 4096;
      }
      total.fetch_add(done + (state & 1), std::memory_order_relaxed);
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& spinner : spinners) spinner.join();
  return total.load();
}
}  // namespace

BenchHarness::CpuCapacity BenchHarness::cpu_capacity() {
  // At most 64 spinners, whatever the mask says: enough to see any
  // speedup check's thread count, never a thread storm.
  constexpr unsigned kMaxSpinners = 64;
  CpuCapacity capacity;
  capacity.usable_cpus = usable_cpus();
  const std::uint64_t one = spin_iterations(1);
  const std::uint64_t many =
      spin_iterations(std::min(capacity.usable_cpus, kMaxSpinners));
  capacity.parallel_capacity =
      one > 0 ? static_cast<double>(many) / static_cast<double>(one) : 0.0;
  metric("hardware_cores",
         static_cast<double>(std::thread::hardware_concurrency()));
  metric("usable_cpus", static_cast<double>(capacity.usable_cpus));
  metric("parallel_capacity", capacity.parallel_capacity);
  return capacity;
}

BenchHarness::BenchHarness(std::string id, std::string title, int argc,
                           char** argv)
    : id_(std::move(id)),
      title_(std::move(title)),
      args_(argc, argv),
      json_to_stdout_(args_.has("json") && targets_stdout(args_.get("json", ""))),
      trace_(id_),
      start_(std::chrono::steady_clock::now()) {
  human() << id_ << ": " << title_ << "\n\n";
}

std::ostream& BenchHarness::human() const noexcept {
  return json_to_stdout_ ? std::cerr : std::cout;
}

Table& BenchHarness::table(const std::string& key,
                           std::vector<std::string> header) {
  for (NamedTable& entry : tables_) {
    if (entry.key == key) return entry.table;
  }
  tables_.push_back({key, "", Table(std::move(header)), false});
  return tables_.back().table;
}

void BenchHarness::print_table(const std::string& key,
                               const std::string& title) {
  for (NamedTable& entry : tables_) {
    if (entry.key != key) continue;
    entry.title = title;
    entry.table.print(human(), title);
    entry.printed = true;
    return;
  }
}

void BenchHarness::metric(const std::string& name, double value) {
  metrics_.emplace_back(name, value);
  trace_.set_value(name, value);
}

void BenchHarness::lp_counters(const std::string& label,
                               const TraceContext& trace, double elapsed_ms,
                               bool record_metrics) {
  LpWork delta;
  sum_lp_work(trace, delta);
  Table& counters = table(
      "lp_counters", {"case", "solves", "pivots", "refactors", "pivots_per_s",
                      "etas_per_s", "bytes_per_pivot", "ws_reuse", "buf_growth"});
  const double seconds = elapsed_ms / 1e3;
  const double pivots_per_s =
      seconds > 0.0 ? static_cast<double>(delta.pivots) / seconds : 0.0;
  const double etas_per_s =
      seconds > 0.0 ? static_cast<double>(delta.etas_applied) / seconds : 0.0;
  // Every streamed entry is one (value, row index) pair from a nonzero pool.
  constexpr std::int64_t kEntryBytes =
      static_cast<std::int64_t>(sizeof(double) + sizeof(int));
  const double bytes_per_pivot =
      delta.pivots > 0
          ? static_cast<double>(delta.entries_streamed * kEntryBytes) /
                static_cast<double>(delta.pivots)
          : 0.0;
  counters.row()
      .cell(label)
      .cell(delta.solves)
      .cell(delta.pivots)
      .cell(delta.refactorizations)
      .cell(pivots_per_s, 0)
      .cell(etas_per_s, 0)
      .cell(bytes_per_pivot, 1)
      .cell(delta.workspace_reuses)
      .cell(delta.buffer_growths);
  if (!record_metrics) return;
  metric(label + "_pivots", static_cast<double>(delta.pivots));
  metric(label + "_etas_applied", static_cast<double>(delta.etas_applied));
  metric(label + "_bytes_per_pivot", bytes_per_pivot);
  metric(label + "_workspace_reuses",
         static_cast<double>(delta.workspace_reuses));
  metric(label + "_buffer_growths", static_cast<double>(delta.buffer_growths));
  metric(label + "_pivots_per_s", pivots_per_s);
  metric(label + "_etas_per_s", etas_per_s);
}

void BenchHarness::check(const std::string& name, bool ok) {
  checks_.emplace_back(name, ok);
  if (!ok) {
    failed_ = true;
    human() << "CHECK FAILED: " << name << '\n';
  }
}

void BenchHarness::note(const std::string& text) {
  notes_.push_back(text);
  human() << '\n' << text << '\n';
}

int BenchHarness::finish() {
  for (NamedTable& entry : tables_) {
    if (!entry.printed) {
      entry.table.print(human(), entry.title);
      entry.printed = true;
    }
  }
  const auto elapsed = std::chrono::steady_clock::now() - start_;
  trace_.record_span(
      "bench",
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());

  const std::string json_path = args_.get("json", "");
  if (args_.has("json")) {
    JsonValue::Object record;
    record.emplace_back("bench", JsonValue(id_));
    record.emplace_back("title", JsonValue(title_));
    record.emplace_back(
        "elapsed_ns",
        JsonValue(static_cast<std::int64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                .count())));
    JsonValue::Object tables;
    for (const NamedTable& entry : tables_) {
      JsonValue::Object table_json;
      table_json.emplace_back("title", JsonValue(entry.title));
      JsonValue::Array header;
      for (const std::string& cell : entry.table.header()) {
        header.emplace_back(cell);
      }
      table_json.emplace_back("header", JsonValue(std::move(header)));
      JsonValue::Array rows;
      for (const std::vector<std::string>& row : entry.table.rows()) {
        JsonValue::Array cells;
        for (const std::string& cell : row) cells.emplace_back(cell);
        rows.emplace_back(std::move(cells));
      }
      table_json.emplace_back("rows", JsonValue(std::move(rows)));
      tables.emplace_back(entry.key, JsonValue(std::move(table_json)));
    }
    record.emplace_back("tables", JsonValue(std::move(tables)));
    JsonValue::Object metrics;
    for (const auto& [name, value] : metrics_) {
      metrics.emplace_back(name, JsonValue(value));
    }
    record.emplace_back("metrics", JsonValue(std::move(metrics)));
    JsonValue::Object checks;
    for (const auto& [name, ok] : checks_) {
      checks.emplace_back(name, JsonValue(ok));
    }
    record.emplace_back("checks", JsonValue(std::move(checks)));
    JsonValue::Array notes;
    for (const std::string& text : notes_) notes.emplace_back(text);
    record.emplace_back("notes", JsonValue(std::move(notes)));
    record.emplace_back("trace", trace_.to_json());
    const JsonValue json(std::move(record));
    if (json_to_stdout_) {
      std::cout << json.dump(2) << '\n';
    } else {
      std::ofstream out(json_path);
      if (!out) {
        std::cerr << "cannot open " << json_path << " for writing\n";
        return 2;
      }
      out << json.dump(2) << '\n';
    }
  }
  for (const std::string& flag : args_.unused()) {
    std::cerr << "warning: unused flag --" << flag << '\n';
  }
  return failed_ ? 1 : 0;
}

}  // namespace calisched
