#include "analysis/multi/global_tests.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <optional>
#include <stdexcept>

#include "util/rational.hpp"

namespace edfkit::multi {
namespace {

/// Certified double bounds for a nearest-rounded sum of `terms`
/// nonnegative terms. Each division and addition is within half an ulp,
/// so the accumulated value is within (1 + eps)^(terms+1) of the exact
/// sum in either direction; inflating/deflating by (terms + 4) * eps
/// over-covers that. Used when the exact Rational path overflows —
/// realistic tick-resolution periods (1e5..1e6 ticks, coprime) blow the
/// lcm of the denominators past 64 bits after a handful of tasks, and
/// degrading *every* such set to Unknown would make the global ladder
/// useless at production period scales. Accepting on `hi` and refuting
/// on `lo` both stay sound.
struct SumBounds {
  double lo = 0.0;
  double hi = 0.0;
};

[[nodiscard]] SumBounds certify_bounds(double value,
                                       std::size_t terms) noexcept {
  const double slack = (static_cast<double>(terms) + 4.0) *
                       std::numeric_limits<double>::epsilon();
  return SumBounds{value * (1.0 - slack), value * (1.0 + slack)};
}

/// m * x without wrap; nullopt when the product leaves the sane range
/// (the caller then answers Unknown — a saturated right-hand side could
/// otherwise turn a failed comparison into a false accept).
[[nodiscard]] std::optional<Time> checked_mul(std::uint32_t m, Time x) {
  if (x < 0) return std::nullopt;
  if (m != 0 && x > kTimeInfinity / static_cast<Time>(m)) return std::nullopt;
  return static_cast<Time>(m) * x;
}

/// Exact total utilization of the columns (one-shots contribute 0).
[[nodiscard]] Rational exact_utilization(const TaskColumns& c) {
  Rational u;
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (is_time_infinite(c.period[i])) continue;
    u += Rational(c.wcet[i], c.period[i]);
  }
  return u;
}

/// The O(n) infeasibility gates shared by every rung entry: U > m
/// (capacity on m unit-speed processors, any scheduler) and C_i > D_i
/// (a job cannot execute on two processors at once, so even an idle
/// platform misses). Returns a decisive result or nullopt.
[[nodiscard]] std::optional<FeasibilityResult> infeasibility_gates(
    const TaskColumns& c, std::uint32_t m) {
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (c.wcet[i] > c.deadline[i]) {
      FeasibilityResult r;
      r.verdict = Verdict::Infeasible;
      r.witness = c.deadline[i];
      r.iterations = i + 1;
      return r;
    }
  }
  const Rational u = exact_utilization(c);
  if (u.exact()) {
    if (u.certainly_gt(static_cast<Time>(m))) {
      FeasibilityResult r;
      r.verdict = Verdict::Infeasible;
      r.iterations = c.size();
      return r;
    }
    return std::nullopt;  // exact and not > m, hence U <= m
  }
  // Exact utilization overflowed: certified double bounds instead.
  double acc = 0.0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (is_time_infinite(c.period[i])) continue;
    acc += static_cast<double>(c.wcet[i]) / static_cast<double>(c.period[i]);
  }
  const SumBounds b = certify_bounds(acc, c.size());
  if (b.lo > static_cast<double>(m)) {
    FeasibilityResult r;
    r.verdict = Verdict::Infeasible;
    r.iterations = c.size();
    return r;
  }
  if (b.hi <= static_cast<double>(m)) return std::nullopt;  // U <= m proven
  // The bounds straddle m: cannot prove either direction.
  FeasibilityResult r;
  r.verdict = Verdict::Unknown;
  r.degraded = true;
  return r;
}

/// Carry-in bound for task i interfering with a window of task k, given
/// proven completion slack s_i (F2 in the header): the carry job was
/// released before the window start `a`, so its deadline is at most
/// a + D_i - 1, and it completes s_i early — but the slack is only
/// usable when that deadline provably precedes the first-miss instant
/// t_d = a + D_k, i.e. when D_i <= D_k (a job with deadline == t_d has
/// no completion guarantee yet).
[[nodiscard]] Time carry_in(const TaskColumns& c, std::size_t i, Time d_k,
                            Time slack_i) {
  const Time usable = c.deadline[i] <= d_k ? slack_i : 0;
  const Time residual = c.deadline[i] - 1 - usable;
  if (residual <= 0) return 0;
  return std::min(c.wcet[i], residual);
}

/// One window-test pass for task k at slack vector `s`: the interference
/// bound I_k = sum_{i != k} min(dbf_i(D_k) + carry_i, L_k). Nullopt on
/// arithmetic overflow (caller answers Unknown). Accumulation stops
/// early once I_k can no longer stay under m*L_k.
[[nodiscard]] std::optional<Time> window_interference(
    const TaskColumns& c, std::size_t k, std::uint32_t m,
    const std::vector<Time>& s) {
  const Time d_k = c.deadline[k];
  const Time cap = d_k - c.wcet[k] + 1;  // L_k; caller ensures D_k >= C_k
  const std::optional<Time> budget = checked_mul(m, cap);
  if (!budget) return std::nullopt;
  Time total = 0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (i == k) continue;  // own carry completes by t_a (header: F2)
    const Time w =
        add_saturating(row_dbf(c, i, d_k), carry_in(c, i, d_k, s[i]));
    total += std::min(w, cap);
    if (total >= *budget) return total;  // condition already failed
  }
  return total;
}

FeasibilityResult unknown_result(std::uint64_t iters) {
  FeasibilityResult r;
  r.verdict = Verdict::Unknown;
  r.iterations = iters;
  return r;
}

}  // namespace

bool zero_jitter(const TaskSet& ts) noexcept {
  for (const Task& t : ts.tasks())
    if (t.jitter != 0) return false;
  return true;
}

bool window_rungs_applicable(const TaskSet& ts) noexcept {
  if (!zero_jitter(ts)) return false;
  for (const Task& t : ts.tasks())
    if (t.deadline > t.period) return false;
  return true;
}

FeasibilityResult gfb_density_test(const TaskColumns& c, std::uint32_t m) {
  FeasibilityResult r;
  if (c.empty()) {
    r.verdict = Verdict::Feasible;
    return r;
  }
  if (auto gate = infeasibility_gates(c, m)) return *gate;
  // Density delta_i = C_i / min(D_i, T_i) satisfies dbf_i(t) <= delta_i*t
  // for every t >= 0, and the GFB/density theorem (Goossens–Funk–Baruah
  // 2003 for implicit deadlines; density form per Bertogna et al.)
  // accepts when sum(delta) <= m - (m-1)*max(delta), i.e.
  // sum(delta) + (m-1)*max(delta) <= m. Exact rationals throughout;
  // inexact arithmetic degrades to Unknown.
  Rational sum;
  Rational max_density;
  for (std::size_t i = 0; i < c.size(); ++i) {
    const Time span = std::min(c.deadline[i], c.period[i]);
    const Rational d(c.wcet[i], span);
    sum += d;
    if (d.certainly_gt(max_density)) max_density = d;
  }
  r.iterations = c.size();
  const Rational lhs =
      sum + Rational(static_cast<Time>(m) - 1) * max_density;
  if (lhs.exact()) {
    if (lhs.certainly_le(static_cast<Time>(m))) {
      r.verdict = Verdict::Feasible;
    }
    return r;
  }
  // Exact density sum overflowed: a certified double upper bound keeps
  // the accept sound (refusal stays Unknown as before).
  double sum_d = 0.0;
  double dmax_d = 0.0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    const Time span = std::min(c.deadline[i], c.period[i]);
    const double d =
        static_cast<double>(c.wcet[i]) / static_cast<double>(span);
    sum_d += d;
    dmax_d = std::max(dmax_d, d);
  }
  const double total = sum_d + static_cast<double>(m - 1) * dmax_d;
  if (certify_bounds(total, c.size() + 2).hi <= static_cast<double>(m)) {
    r.verdict = Verdict::Feasible;
    return r;
  }
  r.degraded = true;
  return r;  // Unknown
}

bool gfb_eligible(const Task& t) noexcept {
  return t.jitter == 0 && t.wcet <= std::min(t.deadline, t.period);
}

ScaledPair density_pair(const Task& t) noexcept {
  return scale_fraction(static_cast<Int128>(t.wcet),
                        static_cast<Int128>(std::min(t.deadline, t.period)));
}

bool gfb_bounds_accept(const DensityBounds& b, std::uint32_t m) noexcept {
  // The doc comment's error analysis covers n < 2^20 tasks.
  if (m == 0 || b.ineligible != 0 || b.tasks >= (std::size_t{1} << 20)) {
    return false;
  }
  const Int128 capacity = static_cast<Int128>(m) * kFixedPointScale;
  const Int128 margin = capacity >> 30;  // m * S * 2^-30, exact
  return b.sum.hi + static_cast<Int128>(m - 1) * b.max.hi <=
         capacity - margin;
}

FeasibilityResult global_bcl_test(const TaskColumns& c, std::uint32_t m) {
  FeasibilityResult r;
  if (c.empty()) {
    r.verdict = Verdict::Feasible;
    return r;
  }
  if (auto gate = infeasibility_gates(c, m)) return *gate;
  const std::vector<Time> no_slack(c.size(), 0);
  for (std::size_t k = 0; k < c.size(); ++k) {
    const std::optional<Time> budget =
        checked_mul(m, c.deadline[k] - c.wcet[k] + 1);
    const std::optional<Time> interference =
        window_interference(c, k, m, no_slack);
    r.iterations += c.size();
    r.max_interval_tested = std::max(r.max_interval_tested, c.deadline[k]);
    if (!budget || !interference || *interference >= *budget) return r;
  }
  r.verdict = Verdict::Feasible;
  return r;
}

FeasibilityResult global_bcl_iterative_test(const TaskColumns& c,
                                            std::uint32_t m,
                                            const GlobalTestConfig& cfg) {
  FeasibilityResult r;
  if (c.empty()) {
    r.verdict = Verdict::Feasible;
    return r;
  }
  if (auto gate = infeasibility_gates(c, m)) return *gate;
  // Slack iteration (Gauss–Seidel): every slack written below is proven
  // under slacks proven earlier, starting from the unconditional zero
  // vector, so values only grow and any round's proofs compose. Accept
  // requires every task to pass within one round.
  std::vector<Time> slack(c.size(), 0);
  for (unsigned round = 0; round < cfg.max_rounds; ++round) {
    bool all_pass = true;
    bool improved = false;
    for (std::size_t k = 0; k < c.size(); ++k) {
      const std::optional<Time> interference =
          window_interference(c, k, m, slack);
      r.iterations += c.size();
      if (!interference) return unknown_result(r.iterations);
      const Time x = *interference / static_cast<Time>(m);
      if (x <= c.deadline[k] - c.wcet[k]) {
        const Time s = c.deadline[k] - c.wcet[k] - x;
        if (s > slack[k]) {
          slack[k] = s;
          improved = true;
        }
      } else {
        all_pass = false;
      }
    }
    r.revisions = round + 1;
    if (all_pass) {
      r.verdict = Verdict::Feasible;
      return r;
    }
    if (!improved) return r;  // fixpoint without full coverage: Unknown
  }
  return r;
}

FeasibilityResult global_load_test(const TaskColumns& c, std::uint32_t m,
                                   const GlobalTestConfig& cfg) {
  FeasibilityResult r;
  if (c.empty()) {
    r.verdict = Verdict::Feasible;
    return r;
  }
  if (auto gate = infeasibility_gates(c, m)) return *gate;
  const Rational u = exact_utilization(c);
  const Rational slackline = Rational(static_cast<Time>(m)) - u;
  if (!slackline.exact() || !slackline.certainly_gt(Rational(Time{0}))) {
    // U == m (or inexact): the window sweep has no finite A_max.
    r.degraded = !slackline.exact();
    return r;
  }
  // CS: the m-1 largest zero-slack carry-in bounds; the busy-window
  // argument caps the number of carry-in tasks at m-1 (at the last
  // not-all-busy slot, fewer than m competing jobs were pending).
  std::vector<Time> carry(c.size());
  for (std::size_t i = 0; i < c.size(); ++i)
    carry[i] = std::min(c.wcet[i], std::max<Time>(0, c.deadline[i] - 1));
  std::sort(carry.begin(), carry.end(), std::greater<>());
  Time cs = 0;
  for (std::size_t i = 0; i + 1 < m && i < carry.size(); ++i) cs += carry[i];
  Time total_wcet = 0;
  for (std::size_t i = 0; i < c.size(); ++i)
    total_wcet = add_saturating(total_wcet, c.wcet[i]);

  for (std::size_t k = 0; k < c.size(); ++k) {
    // A_max: beyond it dbf's linear envelope U*A + sum(C) keeps the
    // condition satisfied, so only A in [D_k, A_max] needs checking.
    const Rational numerator =
        Rational(add_saturating(total_wcet, cs)) +
        Rational(static_cast<Time>(m) - 1) * Rational(c.wcet[k]) -
        Rational(static_cast<Time>(m));
    const Rational bound = numerator / slackline;
    if (!bound.exact()) return unknown_result(r.iterations);
    const Time a_max = std::max(c.deadline[k], bound.floor() + 1);

    // Candidate window lengths: D_k plus every dbf step point in
    // (D_k, a_max]. The left side is piecewise constant and the right
    // side strictly increasing in A, so violations can only appear at
    // these points. Budgeted: too many steps degrades to Unknown.
    std::uint64_t point_estimate = 1;
    for (std::size_t i = 0; i < c.size(); ++i) {
      if (a_max < c.deadline[i]) continue;
      if (is_time_infinite(c.period[i])) {
        point_estimate += 1;
        continue;
      }
      point_estimate +=
          static_cast<std::uint64_t>((a_max - c.deadline[i]) / c.period[i]) +
          1;
      if (point_estimate > cfg.max_load_points)
        return unknown_result(r.iterations);
    }
    std::vector<Time> points;
    points.reserve(static_cast<std::size_t>(point_estimate));
    points.push_back(c.deadline[k]);
    for (std::size_t i = 0; i < c.size(); ++i) {
      for (Time p = c.deadline[i]; p <= a_max;
           p = add_saturating(p, c.period[i])) {
        if (p > c.deadline[k]) points.push_back(p);
        if (is_time_infinite(c.period[i])) break;
      }
    }
    std::sort(points.begin(), points.end());
    points.erase(std::unique(points.begin(), points.end()), points.end());

    for (const Time a : points) {
      const Time lhs =
          add_saturating(columns_dbf(c, a) - c.wcet[k], cs);
      const std::optional<Time> rhs = checked_mul(m, a - c.wcet[k] + 1);
      ++r.iterations;
      r.max_interval_tested = std::max(r.max_interval_tested, a);
      if (!rhs || lhs >= *rhs) return r;  // cannot prove: Unknown
    }
  }
  r.verdict = Verdict::Feasible;
  return r;
}

FeasibilityResult global_rta_test(const TaskColumns& c, std::uint32_t m,
                                  const GlobalTestConfig& cfg,
                                  std::vector<Time>* response_bounds) {
  FeasibilityResult r;
  if (c.empty()) {
    r.verdict = Verdict::Feasible;
    if (response_bounds) response_bounds->clear();
    return r;
  }
  if (auto gate = infeasibility_gates(c, m)) return *gate;
  std::vector<Time> slack(c.size(), 0);
  std::vector<Time> response(c.size(), 0);
  std::vector<Time> w(c.size(), 0);
  for (unsigned round = 0; round < cfg.max_rounds; ++round) {
    bool all_pass = true;
    bool improved = false;
    for (std::size_t k = 0; k < c.size(); ++k) {
      const Time d_k = c.deadline[k];
      for (std::size_t i = 0; i < c.size(); ++i) {
        w[i] = i == k ? 0
                      : add_saturating(row_dbf(c, i, d_k),
                                       carry_in(c, i, d_k, slack[i]));
      }
      // Least fixpoint of R = C_k + floor(sum min(W_i, R-C_k+1)/m),
      // iterated upward from R = C_k; monotone in R, so it either
      // converges or provably exceeds D_k.
      Time rk = c.wcet[k];
      bool converged = false;
      for (unsigned it = 0; it < cfg.max_rta_iterations; ++it) {
        const Time beta = rk - c.wcet[k] + 1;
        Time interference = 0;
        for (std::size_t i = 0; i < c.size(); ++i) {
          if (i == k) continue;
          interference += std::min(w[i], beta);
        }
        r.iterations += c.size();
        const Time next = add_saturating(
            c.wcet[k], interference / static_cast<Time>(m));
        if (next > d_k) break;  // response bound exceeds the deadline
        if (next == rk) {
          converged = true;
          break;
        }
        rk = next;
      }
      if (converged) {
        response[k] = rk;
        const Time s = d_k - rk;
        if (s > slack[k]) {
          slack[k] = s;
          improved = true;
        }
        r.max_interval_tested = std::max(r.max_interval_tested, rk);
      } else {
        all_pass = false;
      }
    }
    r.revisions = round + 1;
    if (all_pass) {
      r.verdict = Verdict::Feasible;
      if (response_bounds) *response_bounds = response;
      return r;
    }
    if (!improved) return r;  // Unknown
  }
  return r;
}

namespace {

/// Shared TaskSet-entry plumbing: empty sets are trivially feasible,
/// invalid platforms throw, jitter (and unconstrained deadlines for the
/// window rungs) gate to Unknown.
enum class Gate : std::uint8_t { Jitter, Window };

[[nodiscard]] std::optional<FeasibilityResult> entry_gates(
    const TaskSet& ts, const Platform& p, Gate gate) {
  if (!platform_valid(p))
    throw std::invalid_argument("global test: invalid platform");
  if (ts.empty()) {
    FeasibilityResult r;
    r.verdict = Verdict::Feasible;
    return r;
  }
  const bool ok = gate == Gate::Jitter ? zero_jitter(ts)
                                       : window_rungs_applicable(ts);
  if (!ok) {
    FeasibilityResult r;
    r.verdict = Verdict::Unknown;
    return r;
  }
  return std::nullopt;
}

}  // namespace

FeasibilityResult gfb_density_test(const TaskSet& ts, const Platform& p) {
  if (auto g = entry_gates(ts, p, Gate::Jitter)) return *g;
  return gfb_density_test(TaskColumns(ts), p.m);
}

FeasibilityResult global_bcl_test(const TaskSet& ts, const Platform& p) {
  if (auto g = entry_gates(ts, p, Gate::Window)) return *g;
  return global_bcl_test(TaskColumns(ts), p.m);
}

FeasibilityResult global_bcl_iterative_test(const TaskSet& ts,
                                            const Platform& p,
                                            const GlobalTestConfig& cfg) {
  if (auto g = entry_gates(ts, p, Gate::Window)) return *g;
  return global_bcl_iterative_test(TaskColumns(ts), p.m, cfg);
}

FeasibilityResult global_load_test(const TaskSet& ts, const Platform& p,
                                   const GlobalTestConfig& cfg) {
  if (auto g = entry_gates(ts, p, Gate::Window)) return *g;
  return global_load_test(TaskColumns(ts), p.m, cfg);
}

FeasibilityResult global_rta_test(const TaskSet& ts, const Platform& p,
                                  const GlobalTestConfig& cfg,
                                  std::vector<Time>* response_bounds) {
  if (auto g = entry_gates(ts, p, Gate::Window)) return *g;
  return global_rta_test(TaskColumns(ts), p.m, cfg, response_bounds);
}

}  // namespace edfkit::multi
