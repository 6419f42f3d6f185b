#include "util/math.hpp"

#include <algorithm>
#include <cmath>

namespace edfkit {

Time lcm_saturating(Time a, Time b) noexcept {
  if (a == 0 || b == 0) return 0;
  if (is_time_infinite(a) || is_time_infinite(b)) return kTimeInfinity;
  const Time g = gcd_time(a, b);
  const Int128 l = mul_wide(a / g, b);
  if (l >= static_cast<Int128>(kTimeInfinity)) return kTimeInfinity;
  return static_cast<Time>(l);
}

Time narrow_time(Int128 v) {
  if (v > static_cast<Int128>(std::numeric_limits<Time>::max()) ||
      v < static_cast<Int128>(std::numeric_limits<Time>::min())) {
    throw std::overflow_error("narrow_time: value out of int64 range: " +
                              int128_to_string(v));
  }
  return static_cast<Time>(v);
}

std::string int128_to_string(Int128 v) {
  if (v == 0) return "0";
  const bool neg = v < 0;
  // Peel digits from |v|; careful with INT128_MIN (cannot negate), handle
  // by peeling one digit before negating.
  unsigned __int128 u;
  if (neg) {
    u = static_cast<unsigned __int128>(-(v + 1)) + 1;
  } else {
    u = static_cast<unsigned __int128>(v);
  }
  std::string out;
  while (u != 0) {
    out.push_back(static_cast<char>('0' + static_cast<int>(u % 10)));
    u /= 10;
  }
  if (neg) out.push_back('-');
  std::reverse(out.begin(), out.end());
  return out;
}

Time round_to_time(double v, Time lo, Time hi) noexcept {
  if (!(v == v)) return lo;  // NaN -> lo
  const double r = std::nearbyint(v);
  if (r <= static_cast<double>(lo)) return lo;
  if (r >= static_cast<double>(hi)) return hi;
  return static_cast<Time>(r);
}

}  // namespace edfkit
