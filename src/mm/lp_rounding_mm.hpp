// LP randomized-rounding black box for machine minimization.
//
// The paper's concrete MM instantiations (Section 1) lean on Raghavan &
// Thompson's randomized rounding [14] and Chuzhoy et al. [8]. This box is
// the practical version of that idea:
//
//   1. Solve the *start-time* LP relaxation: y_{j,s} = fraction of job j
//      starting at integer time s in [r_j, d_j - p_j];
//         minimize M
//         s.t. sum_s y_{j,s} = 1                         for each j
//              sum_{(j,s): s <= t < s + p_j} y_{j,s} <= M  for each slot t
//      This is the nonpreemptive relaxation, at least as strong as the
//      preemptive bound in mm/lp_bound.hpp.
//   2. Sample each job's start from its y_j distribution (plus one
//      deterministic arg-max sample), take the sample with the smallest
//      maximum overlap, and interval-color the fixed executions onto
//      machines.
//
// Every sample yields a *feasible* schedule (starts are drawn from the
// job's own window); randomness only affects how many machines it needs.
// Raghavan-Thompson's analysis gives O(log n / log log n) inflation whp;
// the experiments measure the realized factor.
#pragma once

#include <optional>

#include "lp/simplex.hpp"
#include "mm/mm.hpp"

namespace calisched {

/// The start-time LP value (fractional machines); nullopt if the horizon
/// exceeds `max_slots` or the solver fails (including a deadline or
/// cancellation carried in lp.limits). ceil(value) is a certified MM lower
/// bound, dominating the preemptive bound of mm_lp_bound(). `lp` carries
/// the tolerances, RunLimits, and (for repeated bound queries) an optional
/// warm start / workspace for the underlying solve.
[[nodiscard]] std::optional<double> mm_start_time_lp_bound(
    const Instance& instance, Time max_slots = 2000,
    const SimplexOptions& lp = {});

class LpRoundingMM final : public MachineMinimizer {
 public:
  struct Options {
    std::uint64_t seed = 0x5eedULL;
    int samples = 32;      ///< random rounding attempts (plus one arg-max)
    Time max_slots = 2000; ///< horizon cap; beyond it, fall back to greedy
    /// Simplex configuration for the start-time LP (tolerances, warm
    /// start / workspace). The RunLimits handed to minimize() replace
    /// lp.limits for that call, so a deadline always reaches the solver.
    SimplexOptions lp;
  };

  LpRoundingMM() : options_() {}
  explicit LpRoundingMM(Options options) : options_(options) {}
  using MachineMinimizer::minimize;
  [[nodiscard]] MMResult minimize(const Instance& instance,
                                  const RunLimits& limits) const override;
  [[nodiscard]] std::string name() const override { return "lp-rounding"; }

 protected:
  /// Threads the caller's trace into the start-time LP solve (as an "lp"
  /// child context), on top of the per-call limits override. The options_
  /// copy is the only SimplexOptions this box ever constructs — every
  /// other knob (tolerances, warm start, workspace) flows through
  /// from the caller-supplied Options::lp untouched.
  [[nodiscard]] MMResult minimize_traced(const Instance& instance,
                                         const RunLimits& limits,
                                         TraceContext* trace) const override;

 private:
  [[nodiscard]] MMResult minimize_impl(const Instance& instance,
                                       const RunLimits& limits,
                                       TraceContext* trace) const;

  Options options_;
};

}  // namespace calisched
