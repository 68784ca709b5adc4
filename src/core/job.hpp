// Job model for the ISE / TISE / MM problems.
#pragma once

#include <cstdint>

#include "util/arith.hpp"

namespace calisched {

/// Index of a job within its *original* instance. Sub-instances created by
/// partitioning (long/short split, interval partitioning) preserve ids so
/// that schedules can always be reported against the caller's instance.
using JobId = std::int32_t;

/// One nonpreemptive job: must run for `proc` consecutive time units inside
/// its window [release, deadline).
struct Job {
  JobId id = -1;
  Time release = 0;
  Time deadline = 0;
  Time proc = 1;

  /// Window length d_j - r_j.
  [[nodiscard]] constexpr Time window() const noexcept { return deadline - release; }

  /// Slack d_j - r_j - p_j (>= 0 for well-formed jobs).
  [[nodiscard]] constexpr Time slack() const noexcept {
    return deadline - release - proc;
  }

  /// Definition 1: long iff the window is at least 2T. Written as
  /// window - T >= T so that 2T never has to fit in a Time.
  [[nodiscard]] constexpr bool is_long(Time calibration_length) const noexcept {
    return window() - calibration_length >= calibration_length;
  }

  /// Latest feasible start time d_j - p_j.
  [[nodiscard]] constexpr Time latest_start() const noexcept {
    return deadline - proc;
  }

  friend constexpr bool operator==(const Job&, const Job&) noexcept = default;
};

}  // namespace calisched
