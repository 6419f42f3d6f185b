#include "demand/accumulator.hpp"

#include "demand/approx.hpp"
#include "demand/dbf.hpp"
#include "util/fixedpoint.hpp"

namespace edfkit {
namespace {

constexpr Int128 kS = kFixedPointScale;  // 2^62

/// S-scaled bounds on the utilization C/T of one task.
ScaledPair scaled_task_util(const Task& t) {
  if (is_time_infinite(t.period)) return {0, 0};
  return scale_fraction(static_cast<Int128>(t.wcet),
                        static_cast<Int128>(t.period));
}

/// S-scaled bounds on app(I, t) = ((I-D) mod T)/T * C. \pre I >= D
ScaledPair scaled_app(const Task& t, Time interval) {
  if (is_time_infinite(t.period)) return {0, 0};
  const Time r = floor_mod(interval - t.effective_deadline(), t.period);
  return scale_fraction(static_cast<Int128>(r) * t.wcet,
                        static_cast<Int128>(t.period));
}

/// S-scaled bounds on the linear envelope C*(I-D+T)/T. \pre I >= D - T
ScaledPair scaled_envelope(const Task& t, Time interval) {
  if (is_time_infinite(t.period)) {
    const Int128 v =
        (interval >= t.effective_deadline())
            ? static_cast<Int128>(t.wcet) * kS
            : 0;
    return {v, v};
  }
  const Int128 prod =
      static_cast<Int128>(t.wcet) *
      (interval - t.effective_deadline() + t.period);
  return scale_fraction(prod, static_cast<Int128>(t.period));
}

}  // namespace

DemandAccumulator::DemandAccumulator(const TaskSet& ts)
    : ts_(&ts), approximated_(ts.size(), false) {
  util_.reserve(ts.size());
  for (const Task& t : ts.tasks()) util_.push_back(scaled_task_util(t));
}

void DemandAccumulator::advance(Time dt) {
  if (dt == 0) return;
  dlo_ += ulo_ * dt;
  dhi_ += uhi_ * dt;
}

void DemandAccumulator::add_job(Time wcet) {
  const Int128 v = static_cast<Int128>(wcet) * kS;
  dlo_ += v;
  dhi_ += v;
}

void DemandAccumulator::approximate(std::size_t i) {
  ulo_ += util_[i].lo;
  uhi_ += util_[i].hi;
  approximated_[i] = true;
}

void DemandAccumulator::revise(std::size_t i, Time interval) {
  // Subtracting an interval swaps the roles of the endpoints.
  ulo_ -= util_[i].hi;
  if (ulo_ < 0) ulo_ = 0;  // utilization can never be negative
  uhi_ -= util_[i].lo;
  const ScaledPair a = scaled_app((*ts_)[i], interval);
  dlo_ -= a.hi;
  dhi_ -= a.lo;
  approximated_[i] = false;
}

Ordering DemandAccumulator::compare_demand(Time interval) const noexcept {
  const Int128 cap = static_cast<Int128>(interval) * kS;
  if (dhi_ <= cap) return Ordering::Less;  // fits (Less-or-equal proof)
  if (dlo_ > cap) return Ordering::Greater;
  return Ordering::Unknown;
}

Ordering DemandAccumulator::compare_with_refresh(Time interval,
                                                 bool* degraded) {
  Ordering c = compare_demand(interval);
  if (c != Ordering::Unknown) return c;

  // Stage 2: rebuild the certified interval from scratch (width <= n
  // units instead of one per historical operation).
  const ScaledDemand fresh =
      recompute_demand_scaled(*ts_, approximated_, interval);
  dlo_ = fresh.lo;
  dhi_ = fresh.hi;
  c = compare_demand(interval);
  if (c != Ordering::Unknown) return c;

  // Stage 3: exact rationals — resolves equality (dbf' == I) whenever
  // the denominators fit, which covers every realistic workload.
  const Rational exact = recompute_demand(*ts_, approximated_, interval);
  if (exact.exact()) {
    const Ordering ec = exact.compare(interval);
    if (ec == Ordering::Less || ec == Ordering::Equal) {
      dhi_ = static_cast<Int128>(interval) * kS;  // clamp: proven to fit
      return Ordering::Less;
    }
    if (ec == Ordering::Greater) return Ordering::Greater;
  }
  if (degraded != nullptr) *degraded = true;
  return Ordering::Greater;  // conservative: forces another revision
}

ScaledDemand recompute_demand_scaled(const TaskSet& ts,
                                     const std::vector<bool>& approximated,
                                     Time interval) {
  ScaledDemand out;
  for (std::size_t i = 0; i < ts.size(); ++i) {
    const Task& t = ts[i];
    if (approximated[i]) {
      const ScaledPair e = scaled_envelope(t, interval);
      out.lo += e.lo;
      out.hi += e.hi;
    } else {
      const Int128 v = static_cast<Int128>(dbf(t, interval)) * kS;
      out.lo += v;
      out.hi += v;
    }
  }
  return out;
}

Rational recompute_demand(const TaskSet& ts,
                          const std::vector<bool>& approximated,
                          Time interval) {
  Rational total;
  for (std::size_t i = 0; i < ts.size(); ++i) {
    const Task& t = ts[i];
    if (approximated[i]) {
      total += approx_demand(t, interval);
    } else {
      total += Rational(dbf(t, interval));
    }
  }
  return total;
}

}  // namespace edfkit
