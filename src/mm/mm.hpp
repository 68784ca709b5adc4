// Machine-minimization (MM) black boxes.
//
// The short-window algorithm (Section 4) and the reduction of Theorem 1
// treat "an algorithm for the MM problem" as a black box: given jobs with
// release times, deadlines, and processing times, produce a nonpreemptive
// schedule on as few machines as possible.
//
// The paper's concrete instantiations (Chuzhoy et al., Raghavan-Thompson,
// Im et al.) are approximation *analyses*; as practical boxes we provide:
//   * GreedyEdfMM  — polynomial first-fit EDF list scheduling over
//                    increasing machine counts (always succeeds by m = n);
//   * ExactMM      — exact search over left-shifted schedules on the
//                    layered state-space engine (measures realized alpha;
//                    tests check it against oracle::BranchBoundMM);
//   * UnitEdfMM    — exact and polynomial for unit processing times.
#pragma once

#include <memory>
#include <string>

#include "runtime/limits.hpp"
#include "runtime/status.hpp"
#include "verify/verify.hpp"

namespace calisched {

class TraceContext;

struct MMResult {
  bool feasible = false;       ///< false if the box gave up or was stopped
  /// Structured outcome: kOk iff feasible; kLimitExceeded (node cap),
  /// kDeadlineExceeded / kCancelled (RunLimits) otherwise.
  SolveStatus status = SolveStatus::kOk;
  MMSchedule schedule;         ///< valid when feasible
  std::string algorithm;       ///< which box produced it
  std::int64_t search_nodes = 0;  ///< exact-search telemetry (0 for greedy)
};

/// Abstract MM black box; implementations must return verifier-clean
/// schedules whenever they report feasible, and must honor `limits`
/// (deadline + cancellation) by returning the matching failure status
/// promptly instead of running to completion.
class MachineMinimizer {
 public:
  virtual ~MachineMinimizer() = default;
  [[nodiscard]] virtual MMResult minimize(const Instance& instance,
                                          const RunLimits& limits) const = 0;
  [[nodiscard]] virtual std::string name() const = 0;

  /// Unlimited run (legacy signature; forwards RunLimits::none()).
  [[nodiscard]] MMResult minimize(const Instance& instance) const {
    return minimize(instance, RunLimits::none());
  }

  /// minimize() plus telemetry: records an "mm" span and the invocation /
  /// machines-returned / search-node counters into `trace` (no-op when
  /// null). Every pipeline call site goes through this overload.
  [[nodiscard]] MMResult minimize(const Instance& instance,
                                  const RunLimits& limits,
                                  TraceContext* trace) const;
  [[nodiscard]] MMResult minimize(const Instance& instance,
                                  TraceContext* trace) const {
    return minimize(instance, RunLimits::none(), trace);
  }

 protected:
  /// Dispatch hook for the telemetry overload above. Boxes whose solve
  /// runs a sub-solver that itself accepts a TraceContext (the LP-rounding
  /// box) override this to thread `trace` into the sub-solver's options;
  /// the default forwards to the 2-arg overload unchanged. Without this
  /// hook the telemetry overload silently dropped the caller's trace
  /// before a box could attach it — the same options-dropping class as
  /// constructing a fresh SimplexOptions over a caller-supplied one.
  [[nodiscard]] virtual MMResult minimize_traced(const Instance& instance,
                                                 const RunLimits& limits,
                                                 TraceContext* trace) const {
    (void)trace;
    return minimize(instance, limits);
  }
};

/// First-fit EDF list scheduling, trying m = lower_bound(I), ..., n.
/// Polynomial; the measured machine count is the "alpha * w" the
/// short-window analysis charges against.
class GreedyEdfMM final : public MachineMinimizer {
 public:
  using MachineMinimizer::minimize;
  [[nodiscard]] MMResult minimize(const Instance& instance,
                                  const RunLimits& limits) const override;
  [[nodiscard]] std::string name() const override { return "greedy-edf"; }
};

/// Exact MM over left-shifted schedules with a state budget, on the
/// layered state-space search (src/exact/state_space.hpp), trying
/// m = mm_lower_bound(I), ..., n. Exceeding the budget falls back to the
/// greedy result (and the MMResult notes it via `algorithm`); the effective
/// budget is `limits.node_budget` when set, else the constructor's.
class ExactMM final : public MachineMinimizer {
 public:
  explicit ExactMM(std::int64_t node_budget = 4'000'000)
      : node_budget_(node_budget) {}
  using MachineMinimizer::minimize;
  [[nodiscard]] MMResult minimize(const Instance& instance,
                                  const RunLimits& limits) const override;
  [[nodiscard]] std::string name() const override { return "exact-state"; }

 protected:
  /// Forwards the caller's trace to the state-space search, which adds its
  /// `state_space.*` work counters there.
  [[nodiscard]] MMResult minimize_traced(const Instance& instance,
                                         const RunLimits& limits,
                                         TraceContext* trace) const override;

 private:
  std::int64_t node_budget_;
};

/// Exact MM for unit processing times (p_j = 1 for all j): timestep-by-
/// timestep EDF is an optimal feasibility test, searched over m.
/// Requires a unit-job instance (asserts otherwise).
class UnitEdfMM final : public MachineMinimizer {
 public:
  using MachineMinimizer::minimize;
  [[nodiscard]] MMResult minimize(const Instance& instance,
                                  const RunLimits& limits) const override;
  [[nodiscard]] std::string name() const override { return "unit-edf"; }
};

/// s-speed resource augmentation as a wrapper (the "s-speed
/// alpha-approximation algorithm" of Theorem 1): gives the inner box
/// machines `speed` times faster by scaling the instance timeline
/// (r, d, T multiplied by speed; processing times unchanged), then
/// reports the inner schedule in 1/speed-unit ticks via MMSchedule::speed.
/// Speed augmentation can only reduce the machine count.
class SpeedupMM final : public MachineMinimizer {
 public:
  SpeedupMM(std::shared_ptr<const MachineMinimizer> inner, std::int64_t speed)
      : inner_(std::move(inner)), speed_(speed) {}
  using MachineMinimizer::minimize;
  [[nodiscard]] MMResult minimize(const Instance& instance,
                                  const RunLimits& limits) const override;
  [[nodiscard]] std::string name() const override {
    return "speed" + std::to_string(speed_) + "x(" + inner_->name() + ")";
  }

 private:
  std::shared_ptr<const MachineMinimizer> inner_;
  std::int64_t speed_;
};

/// Outcome of a single fixed-machine-count feasibility search. Unlike the
/// old optional-returning interface, a stopped search (node budget,
/// deadline, cancellation) is distinguishable from a proven-infeasible one:
/// `feasible` is a verdict only when `status == kOk`.
struct MMFeasibility {
  SolveStatus status = SolveStatus::kOk;  ///< kOk = search ran to completion
  bool feasible = false;                  ///< meaningful only when kOk
  MMSchedule schedule;                    ///< valid when kOk && feasible
  std::int64_t nodes = 0;                 ///< nodes / states explored
};

/// Nonpreemptive feasibility of `instance` on exactly `machines` machines,
/// by the state-space search ExactMM uses. Budget exhaustion reports
/// kLimitExceeded, never a feasibility verdict. The search adds its
/// `state_space.*` work counters to `trace`.
[[nodiscard]] MMFeasibility exact_mm_feasibility(
    const Instance& instance, int machines,
    std::int64_t node_budget = 4'000'000,
    const RunLimits& limits = RunLimits::none(),
    TraceContext* trace = nullptr);

/// The same feasibility question by depth-first branch-and-bound over
/// left-shifted schedules, branching on distinct machine free times. Cheap
/// on a handful of jobs, so the calibration-cost searches use it to pack
/// one calibration (`machines` = 1); oracle::BranchBoundMM runs it over a
/// machine ladder. Same status contract as exact_mm_feasibility.
[[nodiscard]] MMFeasibility branch_bound_feasibility(
    const Instance& instance, int machines, std::int64_t node_budget,
    const RunLimits& limits = RunLimits::none());

}  // namespace calisched
