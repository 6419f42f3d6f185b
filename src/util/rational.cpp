#include "util/rational.hpp"

#include <cmath>
#include <cstdlib>

namespace edfkit {
namespace {

Int128 gcd128(Int128 a, Int128 b) noexcept {
  if (a < 0) a = -a;
  if (b < 0) b = -b;
  while (b != 0) {
    Int128 t = a % b;
    a = b;
    b = t;
  }
  return a;
}

double to_double128(Int128 v) noexcept {
  return static_cast<double>(v);
}

/// Magnitude guard: products of two values each below 2^63 stay below
/// 2^126, so a single multiply of guarded operands cannot wrap.
constexpr Int128 kGuard = (static_cast<Int128>(1) << 63);

bool too_big(Int128 v) noexcept { return v >= kGuard || v <= -kGuard; }

}  // namespace

Rational::Rational(Time value) noexcept
    : num_(value), den_(1), approx_(static_cast<double>(value)) {}

Rational::Rational(Time num, Time den) {
  if (den == 0) throw std::invalid_argument("Rational: zero denominator");
  num_ = num;
  den_ = den;
  normalize();
  approx_ = to_double128(num_) / to_double128(den_);
}

Rational Rational::inexact(double approx) noexcept {
  Rational r;
  r.exact_ = false;
  r.approx_ = approx;
  return r;
}

void Rational::normalize() noexcept {
  if (den_ < 0) {
    den_ = -den_;
    num_ = -num_;
  }
  if (num_ == 0) {
    den_ = 1;
    return;
  }
  const Int128 g = gcd128(num_, den_);
  if (g > 1) {
    num_ /= g;
    den_ /= g;
  }
}

void Rational::degrade() noexcept {
  exact_ = false;
  num_ = 0;
  den_ = 1;
}

Rational& Rational::operator+=(const Rational& o) noexcept {
  approx_ += o.approx_;
  if (!exact_ || !o.exact_) {
    degrade();
    return *this;
  }
  // a/b + c/d = (a*(d/g) + c*(b/g)) / (b*(d/g)) with g = gcd(b, d).
  const Int128 g = gcd128(den_, o.den_);
  const Int128 db = den_ / g;       // b/g
  const Int128 dd = o.den_ / g;     // d/g
  if (too_big(num_) || too_big(dd) || too_big(o.num_) || too_big(db) ||
      too_big(den_) || too_big(dd)) {
    degrade();
    return *this;
  }
  const Int128 n = num_ * dd + o.num_ * db;
  const Int128 d = den_ * dd;
  if (too_big(n) || too_big(d)) {
    degrade();
    return *this;
  }
  num_ = n;
  den_ = d;
  normalize();
  return *this;
}

Rational& Rational::operator-=(const Rational& o) noexcept {
  Rational neg = o;
  neg.num_ = -neg.num_;
  neg.approx_ = -neg.approx_;
  return *this += neg;
}

Rational& Rational::operator*=(const Rational& o) noexcept {
  approx_ *= o.approx_;
  if (!exact_ || !o.exact_) {
    degrade();
    return *this;
  }
  // Cross-reduce before multiplying to keep magnitudes small.
  Int128 a = num_, b = den_, c = o.num_, d = o.den_;
  const Int128 g1 = gcd128(a, d);
  if (g1 > 1) {
    a /= g1;
    d /= g1;
  }
  const Int128 g2 = gcd128(c, b);
  if (g2 > 1) {
    c /= g2;
    b /= g2;
  }
  if (too_big(a) || too_big(b) || too_big(c) || too_big(d)) {
    degrade();
    return *this;
  }
  num_ = a * c;
  den_ = b * d;
  normalize();
  return *this;
}

Rational& Rational::operator/=(const Rational& o) noexcept {
  if (!o.exact_) {
    approx_ /= o.approx_;
    degrade();
    return *this;
  }
  if (o.num_ == 0) {
    // Division by exact zero: degrade to an inexact inf with correct sign.
    approx_ = approx_ / 0.0;
    degrade();
    return *this;
  }
  Rational inv;
  inv.num_ = o.den_;
  inv.den_ = o.num_;
  if (inv.den_ < 0) {
    inv.den_ = -inv.den_;
    inv.num_ = -inv.num_;
  }
  inv.approx_ = 1.0 / o.approx_;
  return *this *= inv;
}

Ordering Rational::compare(const Rational& o) const noexcept {
  if (!exact_ || !o.exact_) return Ordering::Unknown;
  // a/b ? c/d  <=>  a*d ? c*b  (b, d > 0). Cross-reduce to avoid overflow.
  Int128 a = num_, b = den_, c = o.num_, d = o.den_;
  const Int128 g1 = gcd128(a, c);
  if (g1 > 1) {
    a /= g1;
    c /= g1;
  }
  const Int128 g2 = gcd128(b, d);
  if (g2 > 1) {
    b /= g2;
    d /= g2;
  }
  if (too_big(a) || too_big(d) || too_big(c) || too_big(b))
    return Ordering::Unknown;
  const Int128 lhs = a * d;
  const Int128 rhs = c * b;
  if (lhs < rhs) return Ordering::Less;
  if (lhs > rhs) return Ordering::Greater;
  return Ordering::Equal;
}

Ordering Rational::compare(Time value) const noexcept {
  return compare(Rational(value));
}

Time Rational::floor() const {
  if (!exact_) throw std::logic_error("Rational::floor on inexact value");
  Int128 q = num_ / den_;
  const Int128 r = num_ % den_;
  if (r != 0 && num_ < 0) q -= 1;
  return narrow_time(q);
}

Time Rational::ceil() const {
  if (!exact_) throw std::logic_error("Rational::ceil on inexact value");
  Int128 q = num_ / den_;
  const Int128 r = num_ % den_;
  if (r != 0 && num_ > 0) q += 1;
  return narrow_time(q);
}

std::string Rational::to_string() const {
  if (!exact_) {
    std::string s = "~";
    s += std::to_string(approx_);
    return s;
  }
  if (den_ == 1) return int128_to_string(num_);
  return int128_to_string(num_) + "/" + int128_to_string(den_);
}

}  // namespace edfkit
