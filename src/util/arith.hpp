// Small integer-arithmetic helpers used across the scheduling code.
//
// All instance times are int64_t; these helpers keep divisions and interval
// arithmetic explicit about rounding direction, which matters when snapping
// calibration starts to the canonical grid of Lemma 3.
#pragma once

#include <cassert>
#include <cstdint>
#include <numeric>
#include <optional>

namespace calisched {

using Time = std::int64_t;

/// floor(a / b) for b > 0, correct for negative a.
[[nodiscard]] constexpr Time floor_div(Time a, Time b) noexcept {
  assert(b > 0);
  Time q = a / b;
  if ((a % b != 0) && (a < 0)) --q;
  return q;
}

/// ceil(a / b) for b > 0, correct for negative a.
[[nodiscard]] constexpr Time ceil_div(Time a, Time b) noexcept {
  assert(b > 0);
  return -floor_div(-a, b);
}

/// True iff half-open intervals [a1, a2) and [b1, b2) intersect.
[[nodiscard]] constexpr bool intervals_overlap(Time a1, Time a2, Time b1,
                                               Time b2) noexcept {
  return a1 < b2 && b1 < a2;
}

/// True iff [inner1, inner2) is contained in [outer1, outer2).
[[nodiscard]] constexpr bool interval_contains(Time outer1, Time outer2,
                                               Time inner1, Time inner2) noexcept {
  return outer1 <= inner1 && inner2 <= outer2;
}

/// Least common multiple that asserts against overflow in debug builds.
[[nodiscard]] constexpr std::int64_t checked_lcm(std::int64_t a, std::int64_t b) noexcept {
  assert(a > 0 && b > 0);
  const std::int64_t g = std::gcd(a, b);
  const std::int64_t result = (a / g) * b;
  assert(result / b == a / g);  // overflow guard
  return result;
}

/// a * b, or nullopt when the product does not fit in `Int`.
template <typename Int>
[[nodiscard]] constexpr std::optional<Int> checked_mul(Int a, Int b) noexcept {
  Int product{};
  if (__builtin_mul_overflow(a, b, &product)) return std::nullopt;
  return product;
}

}  // namespace calisched
