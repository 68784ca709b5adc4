// Calibration types for the generalized cost model (DESIGN.md section 12).
//
// A CalibrationModel is a table of calibration types. Instance and Schedule
// each carry one; an empty table means the classic unit model of length T
// (one type {T, 1, 0}), so every algorithm that predates the cost model
// keeps reading `.T` unchanged.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/arith.hpp"

namespace calisched {

/// One calibration type: occupies a machine for activation_delay + length
/// time units, of which only the trailing `length` can run jobs.
struct CalibrationType {
  Time length = 0;
  std::int64_t cost = 1;
  Time activation_delay = 0;

  /// Machine occupancy of one calibration of this type.
  [[nodiscard]] constexpr Time span() const noexcept {
    return activation_delay + length;
  }

  friend bool operator==(const CalibrationType&, const CalibrationType&) = default;
};

/// The calibration-type table of an instance or schedule.
struct CalibrationModel {
  std::vector<CalibrationType> types;

  /// The classic Fineman-Sheridan model: one type {T, 1, 0}.
  [[nodiscard]] static CalibrationModel unit(Time T) {
    return CalibrationModel{{CalibrationType{T, 1, 0}}};
  }

  [[nodiscard]] bool empty() const noexcept { return types.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return types.size(); }

  /// True when the table is exactly unit(T).
  [[nodiscard]] bool is_unit(Time T) const noexcept {
    return types.size() == 1 && types.front() == CalibrationType{T, 1, 0};
  }

  /// Longest usable window over all types (0 for an empty table).
  [[nodiscard]] Time max_length() const noexcept {
    Time best = 0;
    for (const CalibrationType& type : types) best = std::max(best, type.length);
    return best;
  }

  /// Longest machine occupancy over all types (0 for an empty table).
  [[nodiscard]] Time max_span() const noexcept {
    Time best = 0;
    for (const CalibrationType& type : types) best = std::max(best, type.span());
    return best;
  }

  /// Cheapest type's cost (0 for an empty table).
  [[nodiscard]] std::int64_t min_cost() const noexcept {
    if (types.empty()) return 0;
    std::int64_t best = types.front().cost;
    for (const CalibrationType& type : types) best = std::min(best, type.cost);
    return best;
  }

  /// Checks every type; returns an error description, or nullopt.
  [[nodiscard]] std::optional<std::string> validate() const {
    for (std::size_t k = 0; k < types.size(); ++k) {
      const CalibrationType& type = types[k];
      const std::string name = "calibration type " + std::to_string(k);
      if (type.length < 1) return name + ": length must be >= 1";
      if (type.cost < 1) return name + ": cost must be >= 1";
      if (type.activation_delay < 0) {
        return name + ": activation delay must be >= 0";
      }
    }
    return std::nullopt;
  }

  friend bool operator==(const CalibrationModel&, const CalibrationModel&) = default;
};

}  // namespace calisched
