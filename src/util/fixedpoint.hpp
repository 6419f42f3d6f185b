/// \file fixedpoint.hpp
/// Certified 2^-62 fixed-point helpers shared by the analyses.
///
/// A ScaledPair holds integer floor/ceil bounds of x * kFixedPointScale
/// for a non-negative real x. Sums of pairs bound sums of reals; each
/// rounding step widens the interval by at most one unit (2^-62), so
/// comparisons that clear a scaled threshold are *proofs*. A comparison
/// whose interval straddles the threshold (in practice only at exact
/// equality) proves nothing; callers settle it with exact rationals, so
/// no verdict rests on a rounded value.
#pragma once

#include "util/math.hpp"

namespace edfkit {

inline constexpr Int128 kFixedPointScale = static_cast<Int128>(1) << 62;

/// Certified bounds: lo <= x * kFixedPointScale <= hi.
struct ScaledPair {
  Int128 lo = 0;
  Int128 hi = 0;

  ScaledPair& operator+=(const ScaledPair& o) noexcept {
    lo += o.lo;
    hi += o.hi;
    return *this;
  }
  /// Interval subtraction: endpoints swap roles.
  ScaledPair& operator-=(const ScaledPair& o) noexcept {
    lo -= o.hi;
    hi -= o.lo;
    return *this;
  }
};

/// floor/ceil of (num/den) * kFixedPointScale.
/// \pre den > 0, num >= 0, num < 2^122 (intermediates stay < 2^125)
/// Two 128-bit divisions (not four): remainders come from multiply-
/// back, and the ceil endpoint is floor + (remainder != 0) — this is
/// on the admission store's per-update path.
[[nodiscard]] inline ScaledPair scale_fraction(Int128 num,
                                               Int128 den) noexcept {
  const Int128 q = num / den;
  const Int128 r = num - q * den;
  const Int128 scaled_r = r * kFixedPointScale;
  const Int128 lo_frac = scaled_r / den;
  const Int128 lo = q * kFixedPointScale + lo_frac;
  return {lo, lo + (scaled_r - lo_frac * den != 0 ? 1 : 0)};
}

/// An exactly-representable integer value.
[[nodiscard]] inline ScaledPair scale_integer(Int128 v) noexcept {
  return {v * kFixedPointScale, v * kFixedPointScale};
}

/// Compare a pair against an integer threshold (x vs t).
/// Returns Less when certainly x <= t, Greater when certainly x > t.
enum class ScaledCompare : unsigned char { LessOrEqual, Greater, Ambiguous };
[[nodiscard]] inline ScaledCompare compare_scaled(const ScaledPair& x,
                                                  Time threshold) noexcept {
  const Int128 cap = static_cast<Int128>(threshold) * kFixedPointScale;
  if (x.hi <= cap) return ScaledCompare::LessOrEqual;
  if (x.lo > cap) return ScaledCompare::Greater;
  return ScaledCompare::Ambiguous;
}

}  // namespace edfkit
