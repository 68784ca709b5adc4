// Experiment E18 — exact-engine comparison: layered state-space search vs
// branch-and-bound on structured wave families.
//
// Two size ladders, each solved by both engines under the SAME node/state
// budget until an engine first fails to certify:
//
//   * mm-waves  — k waves of six identical jobs {12w, 12w+6, 4}: one job
//     per machine per wave (m* = 6) while the load lower bound is 4, so
//     ExactMM must *prove* m = 4, 5 infeasible before certifying m* = 6.
//     Identical jobs make those proofs permutation-heavy: DFS re-refutes
//     every twin order, the layered engine collapses them to per-wave
//     counts (twin_prev_links) and prunes doomed mixtures energetically.
//   * ise-waves — k waves of four identical jobs {10w, 10w+8, 2} on one
//     machine, T = 6: three jobs share a calibration and adjacent waves
//     share boundary calibrations, so the optimum is nontrivial.
//
// The headline metrics are the largest n each engine certifies
// (mm/ise_max_certified_n_*, higher is better, gated) and the search-size
// counters (states/nodes/merged/dominated, advisory — they move with any
// engine tweak and are reported, not gated). Self-checks: both engines
// report identical optima whenever both certify, and the state-space
// engine's certified frontier is >= 5x branch-and-bound's on both ladders.
#include <chrono>
#include <string>
#include <vector>

#include "baselines/exact_ise.hpp"
#include "core/instance.hpp"
#include "harness.hpp"
#include "mm/mm.hpp"
#include "oracle/oracle.hpp"
#include "trace/trace.hpp"
#include "util/table.hpp"

namespace {

using namespace calisched;

constexpr std::int64_t kBudget = 5'000'000;

Instance wave_instance(int k, int c, Time gap, Time window, Time proc,
                       Time T, int machines) {
  Instance instance;
  instance.T = T;
  instance.machines = machines;
  JobId id = 0;
  for (int w = 0; w < k; ++w) {
    for (int i = 0; i < c; ++i) {
      instance.jobs.push_back({id++, w * gap, w * gap + window, proc});
    }
  }
  return instance;
}

double elapsed_ms(std::chrono::steady_clock::time_point since) {
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::microseconds>(
                 std::chrono::steady_clock::now() - since)
                 .count()) /
         1000.0;
}

}  // namespace

int main(int argc, char** argv) {
  BenchHarness bench("E18", "exact engines: state-space vs branch-and-bound",
                     argc, argv);

  bool optima_agree = true;
  bool all_verified = true;

  // ----------------------------------------------------------- mm-waves --
  Table& mm_table = bench.table(
      "mm", {"n", "engine", "certified", "machines", "nodes", "ms"});
  int mm_max_state = 0;
  int mm_max_bnb = 0;
  TraceContext mm_trace("exact_mm");  ///< the state-space engine's rungs
  const ExactMM state_mm(kBudget);
  const oracle::BranchBoundMM bnb_mm(kBudget);
  const MachineMinimizer* const boxes[] = {&state_mm, &bnb_mm};
  for (const MachineMinimizer* mm : boxes) {
    const bool is_state = mm == &state_mm;
    for (const int k : {1, 2, 4, 8, 16}) {
      const Instance instance = wave_instance(k, 6, 12, 6, 4, 1'000'000, 1);
      const int n = 6 * k;
      const auto start = std::chrono::steady_clock::now();
      const MMResult result =
          mm->minimize(instance, is_state ? &mm_trace : nullptr);
      const double ms = elapsed_ms(start);
      const bool certified = result.feasible && result.algorithm == mm->name();
      mm_table.row()
          .cell(static_cast<std::int64_t>(n))
          .cell(mm->name())
          .cell(certified ? "yes" : "no")
          .cell(static_cast<std::int64_t>(certified ? result.schedule.machines
                                                    : -1))
          .cell(result.search_nodes)
          .cell(ms, 1);
      if (!certified) break;
      if (!verify_mm(instance, result.schedule).ok()) all_verified = false;
      // The ladder's optimum is m* = 6 at every size (one wave job per
      // machine); an engine reporting anything else is a wrong optimum.
      if (result.schedule.machines != 6) optima_agree = false;
      (is_state ? mm_max_state : mm_max_bnb) = n;
    }
  }
  bench.print_table("mm", "ExactMM minimize on fragmentation waves (m* = 6)");

  // ---------------------------------------------------------- ise-waves --
  Table& ise_table = bench.table(
      "ise", {"n", "engine", "certified", "optimum", "nodes", "ms"});
  int ise_max_state = 0;
  int ise_max_bnb = 0;
  std::vector<std::int64_t> state_optima;  // indexed by ladder step
  TraceContext ise_trace("exact_ise");  ///< the state-space engine's rungs
  for (const bool is_state : {true, false}) {
    std::size_t step = 0;
    for (const int k : {5, 10, 25, 50}) {
      const Instance instance = wave_instance(k, 4, 10, 8, 2, 6, 1);
      const int n = 4 * k;
      ExactIseOptions options;
      options.node_budget = kBudget;
      options.max_calibrations = 999;
      options.trace = is_state ? &ise_trace : nullptr;
      const auto start = std::chrono::steady_clock::now();
      const ExactIseResult result =
          is_state ? solve_exact_ise(instance, options)
                   : oracle::solve_exact_ise_bnb(instance, options);
      const double ms = elapsed_ms(start);
      const bool certified = result.solved && result.feasible;
      ise_table.row()
          .cell(static_cast<std::int64_t>(n))
          .cell(is_state ? "state-space" : "bnb")
          .cell(certified ? "yes" : "no")
          .cell(static_cast<std::int64_t>(
              certified ? static_cast<std::int64_t>(result.optimal_calibrations)
                        : -1))
          .cell(result.nodes)
          .cell(ms, 1);
      if (!certified) break;
      if (!verify_ise(instance, result.schedule).ok()) all_verified = false;
      const auto optimum =
          static_cast<std::int64_t>(result.optimal_calibrations);
      if (is_state) {
        ise_max_state = n;
        state_optima.push_back(optimum);
      } else {
        ise_max_bnb = n;
        if (step < state_optima.size() && state_optima[step] != optimum) {
          optima_agree = false;
        }
      }
      ++step;
    }
  }
  bench.print_table("ise", "exact ISE on single-machine calibration waves");

  bench.metric("mm_max_certified_n_state", mm_max_state);
  bench.metric("mm_max_certified_n_bnb", mm_max_bnb);
  bench.metric("ise_max_certified_n_state", ise_max_state);
  bench.metric("ise_max_certified_n_bnb", ise_max_bnb);
  bench.metric("mm_states_created",
               static_cast<double>(mm_trace.counter("state_space.states")));
  bench.metric("mm_states_merged",
               static_cast<double>(mm_trace.counter("state_space.merged")));
  bench.metric("mm_states_dominated",
               static_cast<double>(mm_trace.counter("state_space.dominated")));
  bench.metric("mm_states_pruned",
               static_cast<double>(mm_trace.counter("state_space.pruned")));
  bench.metric("ise_states_created",
               static_cast<double>(ise_trace.counter("state_space.states")));
  bench.metric("ise_states_merged",
               static_cast<double>(ise_trace.counter("state_space.merged")));
  bench.metric("ise_states_dominated",
               static_cast<double>(ise_trace.counter("state_space.dominated")));
  bench.metric("ise_states_pruned",
               static_cast<double>(ise_trace.counter("state_space.pruned")));

  bench.check("optima_agree_where_both_certify", optima_agree);
  bench.check("all_schedules_verified", all_verified);
  bench.check("state_certifies_5x_bnb_mm",
              mm_max_bnb > 0 && mm_max_state >= 5 * mm_max_bnb);
  bench.check("state_certifies_5x_bnb_ise",
              ise_max_bnb > 0 && ise_max_state >= 5 * ise_max_bnb);

  bench.note("certified frontier under a shared " +
             std::to_string(kBudget / 1'000'000) +
             "M node/state budget: minimize " + std::to_string(mm_max_state) +
             " vs " + std::to_string(mm_max_bnb) + " jobs (mm), " +
             std::to_string(ise_max_state) + " vs " +
             std::to_string(ise_max_bnb) +
             " jobs (ise); the twin-collapsing layered engine proves the "
             "permutation-heavy infeasibilities branch-and-bound cannot.");
  return bench.finish();
}
