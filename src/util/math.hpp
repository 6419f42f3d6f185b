/// \file math.hpp
/// Integer helpers used throughout edfkit: floor/ceil division, gcd/lcm
/// with saturation, and overflow-checked arithmetic on 64-bit time values.
///
/// All time quantities in edfkit are discrete `Time` ticks (int64_t). A
/// dedicated saturation value `kTimeInfinity` stands in for "unbounded"
/// (e.g. the hyperperiod of co-prime periods, or a one-shot event's
/// period). Saturating operations never wrap; they pin at kTimeInfinity.
#pragma once

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

namespace edfkit {

/// Discrete time in ticks. Signed so interval differences are natural.
using Time = std::int64_t;

/// 128-bit signed integer used for exact intermediate products.
using Int128 = __int128;

/// Saturation value standing in for "unbounded"/+infinity.
/// Chosen at max/4 so that sums of two saturated values cannot wrap.
inline constexpr Time kTimeInfinity = std::numeric_limits<Time>::max() / 4;

/// True if `t` is at or beyond the saturation threshold.
[[nodiscard]] constexpr bool is_time_infinite(Time t) noexcept {
  return t >= kTimeInfinity;
}

/// Floor division for possibly-negative numerators (C++ `/` truncates
/// toward zero; feasibility math needs true floor).
/// \pre d > 0
[[nodiscard]] constexpr Time floor_div(Time n, Time d) noexcept {
  Time q = n / d;
  Time r = n % d;
  return (r != 0 && r < 0) ? q - 1 : q;
}

/// Ceiling division for possibly-negative numerators.
/// \pre d > 0
[[nodiscard]] constexpr Time ceil_div(Time n, Time d) noexcept {
  Time q = n / d;
  Time r = n % d;
  return (r != 0 && r > 0) ? q + 1 : q;
}

/// Non-negative remainder of floor division: n - floor_div(n,d)*d.
/// \pre d > 0
[[nodiscard]] constexpr Time floor_mod(Time n, Time d) noexcept {
  Time r = n % d;
  return (r < 0) ? r + d : r;
}

/// Greatest common divisor of non-negative values (gcd(0,x) == x).
[[nodiscard]] constexpr Time gcd_time(Time a, Time b) noexcept {
  while (b != 0) {
    Time t = a % b;
    a = b;
    b = t;
  }
  return a;
}

/// Least common multiple, saturating at kTimeInfinity.
/// \pre a >= 0 && b >= 0
[[nodiscard]] Time lcm_saturating(Time a, Time b) noexcept;

/// Exact a * b into 128 bits (never overflows for 64-bit inputs).
[[nodiscard]] constexpr Int128 mul_wide(Time a, Time b) noexcept {
  return static_cast<Int128>(a) * static_cast<Int128>(b);
}

/// a + b with saturation at kTimeInfinity (inputs must be non-negative
/// or small negatives; result is clamped into [min/4, kTimeInfinity]).
/// Inline: every demand kernel's row_dbf runs through these two.
[[nodiscard]] constexpr Time add_saturating(Time a, Time b) noexcept {
  const Int128 s = static_cast<Int128>(a) + static_cast<Int128>(b);
  if (s >= static_cast<Int128>(kTimeInfinity)) return kTimeInfinity;
  constexpr Time kFloor = std::numeric_limits<Time>::min() / 4;
  if (s <= static_cast<Int128>(kFloor)) return kFloor;
  return static_cast<Time>(s);
}

/// a * b with saturation at kTimeInfinity. \pre a >= 0 && b >= 0
[[nodiscard]] constexpr Time mul_saturating(Time a, Time b) noexcept {
  const Int128 p = mul_wide(a, b);
  if (p >= static_cast<Int128>(kTimeInfinity)) return kTimeInfinity;
  return static_cast<Time>(p);
}

/// Checked narrowing of an Int128 back to Time.
/// \throws std::overflow_error when out of range.
[[nodiscard]] Time narrow_time(Int128 v);

/// Render an Int128 in decimal (std::to_string lacks an overload).
[[nodiscard]] std::string int128_to_string(Int128 v);

/// Round a positive double to the nearest tick, clamped to [lo, hi].
[[nodiscard]] Time round_to_time(double v, Time lo, Time hi) noexcept;

}  // namespace edfkit
