#include "runtime/registry.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "baselines/baseline.hpp"
#include "baselines/exact_ise.hpp"
#include "baselines/gap_min.hpp"
#include "calib/cost_dp.hpp"
#include "calib/exact_cost.hpp"
#include "calib/greedy_cost.hpp"
#include "longwin/long_pipeline.hpp"
#include "mm/lp_rounding_mm.hpp"
#include "mm/mm.hpp"
#include "online/online.hpp"
#include "shortwin/short_pipeline.hpp"
#include "solver/ise_solver.hpp"
#include "trace/trace.hpp"

namespace calisched {
namespace {

bool all_long(const Instance& instance) {
  return std::all_of(instance.jobs.begin(), instance.jobs.end(),
                     [&](const Job& job) { return job.is_long(instance.T); });
}

// The short-window pipeline's own precondition (gamma = 2): window <= 2T.
bool all_short(const Instance& instance) {
  return std::all_of(instance.jobs.begin(), instance.jobs.end(), [&](const Job& job) {
    return job.window() <= 2 * instance.T;
  });
}

bool all_unit(const Instance& instance) {
  return std::all_of(instance.jobs.begin(), instance.jobs.end(),
                     [](const Job& job) { return job.proc == 1; });
}

/// Shared adapter skeleton: entry limit check, capability validation, and
/// post-hoc verification of ISE schedules happen here so every concrete
/// adapter only translates its solver's result shape.
class AdapterBase : public Algorithm {
 public:
  AdapterBase(std::string name, AlgorithmCapabilities caps,
              bool require_tise = false)
      : name_(std::move(name)), caps_(caps), require_tise_(require_tise) {}

  [[nodiscard]] std::string name() const final { return name_; }
  [[nodiscard]] AlgorithmCapabilities capabilities() const final { return caps_; }

  [[nodiscard]] RunResult run(const Instance& instance, const RunLimits& limits,
                              TraceContext* trace) const final {
    RunResult result;
    // Guarantee (1): expired limits win over everything, even validation.
    const SolveStatus entry = limits.check();
    if (entry != SolveStatus::kOk) {
      fail_result(result, entry, {}, name_);
      return result;
    }
    // Guarantee (2): capability mismatches fail structurally, not via assert.
    // The model gate comes first: a type-table instance is a different
    // problem variant, and that diagnosis beats any job-shape complaint.
    if (!caps_.supports_calibration_model && !instance.is_unit_model()) {
      return std::move(fail_result(result, SolveStatus::kInfeasible,
                                   "requires the unit calibration model",
                                   name_));
    }
    if (caps_.requires_all_long && !all_long(instance)) {
      return std::move(fail_result(result, SolveStatus::kInfeasible,
                                   "requires an all-long instance", name_));
    }
    if (caps_.requires_all_short && !all_short(instance)) {
      return std::move(fail_result(result, SolveStatus::kInfeasible,
                                   "requires an all-short instance", name_));
    }
    if (caps_.requires_unit_jobs && !all_unit(instance)) {
      return std::move(fail_result(result, SolveStatus::kInfeasible,
                                   "requires unit processing times", name_));
    }
    if (caps_.requires_single_machine && instance.machines != 1) {
      return std::move(fail_result(result, SolveStatus::kInfeasible,
                                   "requires a single machine", name_));
    }
    solve(instance, limits, trace, result);
    // Guarantee (3): never report an unverified ISE schedule as feasible.
    if (result.feasible && caps_.produces_ise_schedule) {
      const VerifyResult check =
          verify_ise(instance, result.schedule, require_tise_, caps_.policy);
      if (!check.ok()) {
        return std::move(fail_result(result, SolveStatus::kNumericalFailure,
                                     "schedule failed verification", name_));
      }
      result.verified = true;
      result.calibrations = result.schedule.num_calibrations();
      result.machines = result.schedule.machines;
      result.speed = result.schedule.speed;
      result.total_cost = result.schedule.total_cost();
    }
    return result;
  }

 protected:
  virtual void solve(const Instance& instance, const RunLimits& limits,
                     TraceContext* trace, RunResult& result) const = 0;

  /// Failure where the inner solver left kOk (legacy paths): treat as
  /// infeasible rather than inventing success.
  static SolveStatus failure_status(SolveStatus inner) noexcept {
    return inner == SolveStatus::kOk ? SolveStatus::kInfeasible : inner;
  }

 private:
  std::string name_;
  AlgorithmCapabilities caps_;
  bool require_tise_;
};

/// Theorem 1: long/short split, both pipelines on disjoint pools.
class CombinedAlgorithm final : public AdapterBase {
 public:
  CombinedAlgorithm() : AdapterBase("combined", AlgorithmCapabilities{}) {}

 protected:
  void solve(const Instance& instance, const RunLimits& limits,
             TraceContext* trace, RunResult& result) const override {
    IseSolverOptions options;
    options.limits = limits;
    options.trace = trace;
    IseSolveResult solved = solve_ise(instance, options);
    result.feasible = solved.feasible;
    result.status = solved.status;
    result.error = std::move(solved.error);
    result.schedule = std::move(solved.schedule);
  }
};

/// Theorem 12 (speed = false) / Theorem 14 (speed = true).
class LongAlgorithm final : public AdapterBase {
 public:
  explicit LongAlgorithm(bool speed)
      : AdapterBase(speed ? "long-speed" : "long",
                    AlgorithmCapabilities{.requires_all_long = true},
                    /*require_tise=*/!speed),
        speed_(speed) {}

 protected:
  void solve(const Instance& instance, const RunLimits& limits,
             TraceContext* trace, RunResult& result) const override {
    LongWindowOptions options;
    options.limits = limits;
    options.trace = trace;
    LongWindowResult solved = speed_ ? solve_long_window_speed(instance, options)
                                     : solve_long_window(instance, options);
    result.feasible = solved.feasible;
    result.status = solved.status;
    result.error = std::move(solved.error);
    result.schedule = std::move(solved.schedule);
  }

 private:
  bool speed_;
};

/// Theorem 20 with the greedy EDF MM box.
class ShortAlgorithm final : public AdapterBase {
 public:
  ShortAlgorithm()
      : AdapterBase("short", AlgorithmCapabilities{.requires_all_short = true}) {}

 protected:
  void solve(const Instance& instance, const RunLimits& limits,
             TraceContext* trace, RunResult& result) const override {
    IntervalOptions options;
    options.limits = limits;
    options.trace = trace;
    ShortWindowResult solved = solve_short_window(instance, mm_, options);
    result.feasible = solved.feasible;
    result.status = solved.status;
    result.error = std::move(solved.error);
    result.schedule = std::move(solved.schedule);
  }

 private:
  GreedyEdfMM mm_;
};

/// Any IseBaseline, by composition.
class BaselineAlgorithm final : public AdapterBase {
 public:
  BaselineAlgorithm(std::shared_ptr<const IseBaseline> baseline,
                    AlgorithmCapabilities caps)
      : AdapterBase(baseline->name(), caps), baseline_(std::move(baseline)) {}

 protected:
  void solve(const Instance& instance, const RunLimits& limits,
             TraceContext* /*trace*/, RunResult& result) const override {
    BaselineResult solved = baseline_->solve(instance, limits);
    result.feasible = solved.feasible;
    result.status = solved.feasible ? SolveStatus::kOk
                                    : failure_status(solved.status);
    result.error = std::move(solved.error);
    result.schedule = std::move(solved.schedule);
  }

 private:
  std::shared_ptr<const IseBaseline> baseline_;
};

/// Exact minimum-calibration search on the layered state-space engine.
/// `limits.node_budget` overrides the default state budget inside
/// solve_exact_ise.
class ExactIseAlgorithm final : public AdapterBase {
 public:
  ExactIseAlgorithm()
      : AdapterBase("exact-ise", AlgorithmCapabilities{.exact = true}) {}

 protected:
  void solve(const Instance& instance, const RunLimits& limits,
             TraceContext* trace, RunResult& result) const override {
    ExactIseOptions options;
    options.limits = limits;
    options.trace = trace;
    const ExactIseResult solved = solve_exact_ise(instance, options);
    if (solved.solved && solved.feasible) {
      result.feasible = true;
      result.schedule = solved.schedule;
      return;
    }
    fail_result(result, failure_status(solved.status), {}, name());
  }
};

/// Any MM black box: reports machines, not calibrations.
class MmBoxAlgorithm final : public AdapterBase {
 public:
  MmBoxAlgorithm(std::string registry_name,
                 std::shared_ptr<const MachineMinimizer> box,
                 AlgorithmCapabilities caps)
      : AdapterBase(std::move(registry_name), caps), box_(std::move(box)) {}

 protected:
  void solve(const Instance& instance, const RunLimits& limits,
             TraceContext* trace, RunResult& result) const override {
    MMResult solved = box_->minimize(instance, limits, trace);
    if (!solved.feasible) {
      fail_result(result, failure_status(solved.status), {}, name());
      return;
    }
    const VerifyResult check = verify_mm(instance, solved.schedule);
    if (!check.ok()) {
      fail_result(result, SolveStatus::kNumericalFailure,
                  "MM schedule failed verification", name());
      return;
    }
    result.feasible = true;
    result.verified = true;
    result.machines = solved.schedule.machines;
    result.speed = solved.schedule.speed;
  }

 private:
  std::shared_ptr<const MachineMinimizer> box_;
};

/// The Section-5 related problem: exact gap minimization for unit jobs.
/// RunResult::calibrations carries the analogous objective (busy blocks).
class GapMinAlgorithm final : public AdapterBase {
 public:
  GapMinAlgorithm()
      : AdapterBase("gap-min",
                    AlgorithmCapabilities{.requires_unit_jobs = true,
                                          .exact = true,
                                          .produces_ise_schedule = false}) {}

 protected:
  void solve(const Instance& instance, const RunLimits& limits,
             TraceContext* /*trace*/, RunResult& result) const override {
    GapMinOptions options;
    options.limits = limits;
    const GapMinResult solved = solve_min_gaps_unit(instance, options);
    if (!(solved.solved && solved.feasible)) {
      fail_result(result, failure_status(solved.status), {}, name());
      return;
    }
    MMSchedule one_machine;
    one_machine.machines = 1;
    one_machine.jobs = solved.slots;
    Instance single = instance;
    single.machines = 1;
    const VerifyResult check = verify_mm(single, one_machine);
    if (!check.ok()) {
      fail_result(result, SolveStatus::kNumericalFailure,
                  "gap schedule failed verification", name());
      return;
    }
    result.feasible = true;
    result.verified = true;
    result.calibrations = solved.busy_blocks;
    result.machines = 1;
  }
};

/// Exact minimum-cost oracle under a calibration-type table.
class ExactCalibCostAlgorithm final : public AdapterBase {
 public:
  ExactCalibCostAlgorithm()
      : AdapterBase("exact-calib-cost",
                    AlgorithmCapabilities{.supports_calibration_model = true,
                                          .exact = true}) {}

 protected:
  void solve(const Instance& instance, const RunLimits& limits,
             TraceContext* /*trace*/, RunResult& result) const override {
    CalibCostOptions options;
    options.limits = limits;
    const CalibCostResult solved = solve_exact_calib_cost(instance, options);
    if (solved.solved && solved.feasible) {
      result.feasible = true;
      result.schedule = solved.schedule;
      return;
    }
    fail_result(result, failure_status(solved.status), {}, name());
  }
};

/// Single-machine subset DP: exact minimum cost for non-unit jobs.
class CostDpAlgorithm final : public AdapterBase {
 public:
  CostDpAlgorithm()
      : AdapterBase("dp-calib-cost",
                    AlgorithmCapabilities{.requires_single_machine = true,
                                          .supports_calibration_model = true,
                                          .exact = true}) {}

 protected:
  void solve(const Instance& instance, const RunLimits& limits,
             TraceContext* /*trace*/, RunResult& result) const override {
    CostDpOptions options;
    options.limits = limits;
    const CostDpResult solved = solve_cost_dp(instance, options);
    if (solved.solved && solved.feasible) {
      result.feasible = true;
      result.schedule = solved.schedule;
      return;
    }
    fail_result(result, failure_status(solved.status), {}, name());
  }
};

/// Lazy EDF greedy over the type table (cheapest hosting type, lazy start).
class GreedyCalibCostAlgorithm final : public AdapterBase {
 public:
  GreedyCalibCostAlgorithm()
      : AdapterBase("greedy-calib-cost",
                    AlgorithmCapabilities{.supports_calibration_model = true}) {}

 protected:
  void solve(const Instance& instance, const RunLimits& limits,
             TraceContext* /*trace*/, RunResult& result) const override {
    GreedyCostResult solved = solve_greedy_cost(instance, limits);
    result.feasible = solved.feasible;
    result.status = solved.feasible ? SolveStatus::kOk
                                    : failure_status(solved.status);
    result.error = std::move(solved.error);
    result.schedule = std::move(solved.schedule);
  }
};

/// An online heuristic run offline: the instance is replayed as its
/// canonical arrival trace (every job arrives at its release time)
/// through the event-driven simulator, so the resulting schedule is one
/// an online scheduler could actually have committed — the simulator has
/// already enforced the append-only contract before AdapterBase's
/// verifier pass re-checks plain feasibility. This is the competitive
/// -ratio measurement hook: bench E20 compares its cost against the
/// clairvoyant exact solvers on the same traces.
class OnlineEdfAlgorithm final : public AdapterBase {
 public:
  OnlineEdfAlgorithm()
      : AdapterBase("online-edf",
                    AlgorithmCapabilities{.supports_calibration_model = true,
                                          .supports_online = true}) {}

 protected:
  void solve(const Instance& instance, const RunLimits& /*limits*/,
             TraceContext* /*trace*/, RunResult& result) const override {
    OnlineResult solved =
        simulate_trace(name(), ArrivalTrace::from_instance(instance));
    if (!solved.feasible) {
      fail_result(result, SolveStatus::kInfeasible, solved.error, name());
      return;
    }
    result.feasible = true;
    result.schedule = std::move(solved.schedule);
  }
};

AlgorithmCapabilities mm_caps(bool requires_unit = false, bool exact = false) {
  AlgorithmCapabilities caps;
  caps.requires_unit_jobs = requires_unit;
  caps.exact = exact;
  caps.produces_ise_schedule = false;
  return caps;
}

}  // namespace

void AlgorithmRegistry::add(std::shared_ptr<const Algorithm> algorithm) {
  if (find(algorithm->name()) != nullptr) {
    throw std::invalid_argument("duplicate algorithm name: " +
                                algorithm->name());
  }
  algorithms_.push_back(std::move(algorithm));
}

const Algorithm* AlgorithmRegistry::find(std::string_view name) const noexcept {
  for (const auto& algorithm : algorithms_) {
    if (algorithm->name() == name) return algorithm.get();
  }
  return nullptr;
}

std::vector<std::string> AlgorithmRegistry::names() const {
  std::vector<std::string> result;
  result.reserve(algorithms_.size());
  for (const auto& algorithm : algorithms_) result.push_back(algorithm->name());
  return result;
}

const AlgorithmRegistry& AlgorithmRegistry::builtin() {
  static const AlgorithmRegistry registry = [] {
    AlgorithmRegistry built;
    built.add(std::make_shared<CombinedAlgorithm>());
    built.add(std::make_shared<LongAlgorithm>(/*speed=*/false));
    built.add(std::make_shared<LongAlgorithm>(/*speed=*/true));
    built.add(std::make_shared<ShortAlgorithm>());
    built.add(std::make_shared<BaselineAlgorithm>(
        std::make_shared<GreedyLazyIse>(), AlgorithmCapabilities{}));
    built.add(std::make_shared<BaselineAlgorithm>(
        std::make_shared<PerJobCalibration>(), AlgorithmCapabilities{}));
    built.add(std::make_shared<BaselineAlgorithm>(
        std::make_shared<SaturateCalibration>(), AlgorithmCapabilities{}));
    built.add(std::make_shared<BaselineAlgorithm>(
        std::make_shared<BenderUnitLazyBinning>(),
        AlgorithmCapabilities{.requires_unit_jobs = true}));
    built.add(std::make_shared<ExactIseAlgorithm>());
    built.add(std::make_shared<MmBoxAlgorithm>(
        "mm-greedy", std::make_shared<GreedyEdfMM>(), mm_caps()));
    built.add(std::make_shared<MmBoxAlgorithm>(
        "mm-exact", std::make_shared<ExactMM>(),
        mm_caps(/*requires_unit=*/false, /*exact=*/true)));
    built.add(std::make_shared<MmBoxAlgorithm>(
        "mm-unit", std::make_shared<UnitEdfMM>(),
        mm_caps(/*requires_unit=*/true, /*exact=*/true)));
    built.add(std::make_shared<MmBoxAlgorithm>(
        "mm-lp-rounding", std::make_shared<LpRoundingMM>(), mm_caps()));
    built.add(std::make_shared<GapMinAlgorithm>());
    built.add(std::make_shared<ExactCalibCostAlgorithm>());
    built.add(std::make_shared<CostDpAlgorithm>());
    built.add(std::make_shared<GreedyCalibCostAlgorithm>());
    built.add(std::make_shared<OnlineEdfAlgorithm>());
    return built;
  }();
  return registry;
}

}  // namespace calisched
