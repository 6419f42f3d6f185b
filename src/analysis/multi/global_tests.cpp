#include "analysis/multi/global_tests.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>

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
/// Stops at the first inexact partial sum: overflow is sticky, and every
/// caller takes its double path on an inexact result.
[[nodiscard]] Rational exact_utilization(const TaskColumns& c) {
  Rational u;
  for (std::size_t i = 0; i < c.size() && u.exact(); ++i) {
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
                            Time slack_i) noexcept {
  const Time usable = c.deadline[i] <= d_k ? slack_i : 0;
  const Time residual = c.deadline[i] - 1 - usable;
  if (residual <= 0) return 0;
  return std::min(c.wcet[i], residual);
}

/// Task i's uncapped workload term in task k's window (F2):
/// W_i = dbf_i(D_k) + carry_i(s_i).
[[nodiscard]] Time window_term(const TaskColumns& c, std::size_t i, Time d_k,
                               Time slack_i) noexcept {
  return add_saturating(row_dbf(c, i, d_k), carry_in(c, i, d_k, slack_i));
}

/// The deadline split of one window-rung call (header: "Deadline
/// split"). Rows in (D, row) order are cut into blocks of B positions;
/// each block keeps its far terms and its near floors sorted, with
/// prefix sums. One task check is open at a time (begin()). floor()
/// costs O((n / B) log B + B) additions and no division. refine()
/// computes the exact term of an open row at most once per check: the
/// open rows of a block are a prefix of its floor order, and beta only
/// grows within a check, so a per-block count of evaluated entries is
/// the whole cache. O(n log n) to build, O(n) memory.
class DeadlineSplit {
 public:
  explicit DeadlineSplit(const TaskColumns& c);

  /// Opens the check of task k, forgetting the last check's terms.
  void begin(std::size_t k) noexcept;

  /// Lower bound on sum_{i != k} min(W_i, beta) for beta <= L_k: each
  /// far row's exact term and each near row's floor, capped at beta.
  /// Exact for every row except the open ones (near, floor < beta).
  [[nodiscard]] Int128 floor(Time beta) const noexcept;

  /// sum_{i != k} min(W_i, beta), from lower = floor(beta): the floor of
  /// each open row is replaced by min(term(i), beta) until the running
  /// lower bound reaches `budget`. Exact when below the budget; any
  /// value >= budget only says that the sum reaches it.
  template <class Term>
  [[nodiscard]] Int128 refine(Time beta, Int128 lower, Int128 budget,
                              Term&& term);

 private:
  /// sum of min(x, beta) over the ascending block v[s, e), from its
  /// prefix sums.
  [[nodiscard]] Int128 capped_sum(const std::vector<Time>& v,
                                  const std::vector<Int128>& prefix,
                                  std::size_t s, std::size_t e,
                                  Time beta) const noexcept;

  /// Index of the first prefix sum of the block starting at `s` (each
  /// block keeps one more prefix slot than it has rows).
  [[nodiscard]] std::size_t prefix_base(std::size_t s) const noexcept {
    return s + s / block_;
  }

  std::size_t n_;
  std::size_t block_;
  std::vector<std::size_t> row_at_;    // position -> row, (D, row) order
  std::vector<std::size_t> pos_of_;    // row -> position
  std::vector<std::size_t> cut_;       // row k -> [0, cut) hold D_i <= D_k
  std::vector<Time> far_at_;           // position -> far term
  std::vector<Time> near_at_;          // position -> near floor
  std::vector<Time> far_sorted_;       // per block, ascending
  std::vector<Time> near_sorted_;      // per block, ascending
  std::vector<std::size_t> near_pos_;  // position of each near_sorted_ slot
  std::vector<Int128> far_prefix_;     // per block, sums of the first j
  std::vector<Int128> near_prefix_;
  // The open check: row k's position and cut, the exact terms by
  // near_sorted_ slot, and per block how many leading slots hold them.
  std::size_t pos_k_ = 0;
  std::size_t cut_k_ = 0;
  std::vector<Time> term_;
  std::vector<std::size_t> done_;
};

// B ~ sqrt(2n) balances floor()'s (n / B) binary searches against its
// linear pass over the block the cut falls in.
DeadlineSplit::DeadlineSplit(const TaskColumns& c)
    : n_(c.size()),
      block_(std::max<std::size_t>(
          16, static_cast<std::size_t>(
                  std::sqrt(2.0 * static_cast<double>(c.size()))))),
      row_at_(n_),
      pos_of_(n_),
      cut_(n_),
      far_at_(n_),
      near_at_(n_),
      far_sorted_(n_),
      near_sorted_(n_),
      near_pos_(n_),
      far_prefix_(n_ + (n_ + block_ - 1) / block_),
      near_prefix_(far_prefix_.size()),
      term_(n_),
      done_((n_ + block_ - 1) / block_) {
  std::vector<std::pair<Time, std::size_t>> order(n_);
  for (std::size_t i = 0; i < n_; ++i) order[i] = {c.deadline[i], i};
  std::sort(order.begin(), order.end());
  for (std::size_t p = n_; p-- > 0;) {
    const std::size_t i = order[p].second;
    const bool tie = p + 1 < n_ && order[p + 1].first == order[p].first;
    row_at_[p] = i;
    pos_of_[i] = p;
    cut_[i] = tie ? cut_[order[p + 1].second] : p + 1;
    far_at_[p] = window_far_term(c, i);
    near_at_[p] = window_near_floor(c, i);
  }
  for (std::size_t s = 0; s < n_; s += block_) {
    const std::size_t e = std::min(s + block_, n_);
    for (std::size_t p = s; p < e; ++p) order[p] = {near_at_[p], p};
    const auto first = order.begin() + static_cast<std::ptrdiff_t>(s);
    std::sort(first, first + static_cast<std::ptrdiff_t>(e - s));
    std::copy(far_at_.begin() + static_cast<std::ptrdiff_t>(s),
              far_at_.begin() + static_cast<std::ptrdiff_t>(e),
              far_sorted_.begin() + static_cast<std::ptrdiff_t>(s));
    std::sort(far_sorted_.begin() + static_cast<std::ptrdiff_t>(s),
              far_sorted_.begin() + static_cast<std::ptrdiff_t>(e));
    const std::size_t base = prefix_base(s);
    for (std::size_t j = 0; j < e - s; ++j) {
      near_sorted_[s + j] = order[s + j].first;
      near_pos_[s + j] = order[s + j].second;
      far_prefix_[base + j + 1] = far_prefix_[base + j] + far_sorted_[s + j];
      near_prefix_[base + j + 1] = near_prefix_[base + j] + near_sorted_[s + j];
    }
  }
}

void DeadlineSplit::begin(std::size_t k) noexcept {
  pos_k_ = pos_of_[k];
  cut_k_ = cut_[k];
  std::fill(done_.begin(), done_.end(), 0);
}

Int128 DeadlineSplit::capped_sum(const std::vector<Time>& v,
                                 const std::vector<Int128>& prefix,
                                 std::size_t s, std::size_t e,
                                 Time beta) const noexcept {
  std::size_t below = e - s;  // entries below beta, summed as they are
  if (v[s] >= beta) {
    below = 0;
  } else if (v[e - 1] >= beta) {
    const auto first = v.begin() + static_cast<std::ptrdiff_t>(s);
    below = static_cast<std::size_t>(
        std::lower_bound(first, first + static_cast<std::ptrdiff_t>(e - s),
                         beta) -
        first);
  }
  return prefix[prefix_base(s) + below] +
         static_cast<Int128>(beta) * static_cast<Int128>(e - s - below);
}

Int128 DeadlineSplit::floor(Time beta) const noexcept {
  const std::size_t h = cut_k_;
  Int128 sum = 0;
  for (std::size_t s = 0; s < n_; s += block_) {
    const std::size_t e = std::min(s + block_, n_);
    if (e <= h) {
      sum += capped_sum(near_sorted_, near_prefix_, s, e, beta);
    } else if (s >= h) {
      sum += capped_sum(far_sorted_, far_prefix_, s, e, beta);
    } else {  // the block the cut falls in
      for (std::size_t p = s; p < e; ++p) {
        sum += std::min(p < h ? near_at_[p] : far_at_[p], beta);
      }
    }
  }
  return sum - std::min(near_at_[pos_k_], beta);  // k is in its near range
}

template <class Term>
Int128 DeadlineSplit::refine(Time beta, Int128 lower, Int128 budget,
                             Term&& term) {
  Int128 total = lower;
  for (std::size_t s = 0; s < cut_k_ && total < budget; s += block_) {
    const std::size_t e = std::min(s + block_, n_);
    std::size_t& done = done_[s / block_];
    for (std::size_t q = s; q < e && near_sorted_[q] < beta; ++q) {
      const std::size_t p = near_pos_[q];
      if (p >= cut_k_ || p == pos_k_) continue;  // a far row, or k itself
      if (q - s >= done) {
        term_[q] = term(row_at_[p]);
        done = q - s + 1;
      }
      total += std::min(term_[q], beta) - near_sorted_[q];
      if (total >= budget) return total;
    }
  }
  return total;
}

/// I_k = sum_{i != k} min(W_i, L_k) at slack vector `s`, against
/// budget = m * L_k (the window test's condition is I_k < budget).
/// Exact when below the budget; the floors settle most checks that fail.
[[nodiscard]] Int128 window_interference(const TaskColumns& c,
                                         DeadlineSplit& split, std::size_t k,
                                         Time budget,
                                         const std::vector<Time>& s) {
  const Time d_k = c.deadline[k];
  const Time cap = d_k - c.wcet[k] + 1;  // L_k; caller ensures D_k >= C_k
  split.begin(k);
  return split.refine(cap, split.floor(cap), budget, [&](std::size_t i) {
    return window_term(c, i, d_k, s[i]);
  });
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
  // An inexact partial sum stays inexact: stop there for the double path.
  for (std::size_t i = 0; i < c.size() && sum.exact(); ++i) {
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

Time window_far_term(const TaskColumns& c, std::size_t i) noexcept {
  return carry_in(c, i, /*d_k=*/0, /*slack_i=*/0);  // no slack: D_k moot
}

Time window_near_floor(const TaskColumns& c, std::size_t i) noexcept {
  return add_saturating(c.wcet[i], c.wcet[i] - 1);
}

FeasibilityResult global_bcl_test(const TaskColumns& c, std::uint32_t m) {
  FeasibilityResult r;
  if (c.empty()) {
    r.verdict = Verdict::Feasible;
    return r;
  }
  if (auto gate = infeasibility_gates(c, m)) return *gate;
  DeadlineSplit split(c);
  const std::vector<Time> no_slack(c.size(), 0);
  for (std::size_t k = 0; k < c.size(); ++k) {
    const std::optional<Time> budget =
        checked_mul(m, c.deadline[k] - c.wcet[k] + 1);
    r.iterations += c.size();
    r.max_interval_tested = std::max(r.max_interval_tested, c.deadline[k]);
    if (!budget ||
        window_interference(c, split, k, *budget, no_slack) >= *budget) {
      return r;
    }
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
  // requires every task to pass within one round. Each slack is at most
  // D_k - C_k, which keeps the near floors valid.
  DeadlineSplit split(c);
  std::vector<Time> slack(c.size(), 0);
  for (unsigned round = 0; round < cfg.max_rounds; ++round) {
    bool all_pass = true;
    bool improved = false;
    for (std::size_t k = 0; k < c.size(); ++k) {
      const std::optional<Time> budget =
          checked_mul(m, c.deadline[k] - c.wcet[k] + 1);
      r.iterations += c.size();
      if (!budget) return unknown_result(r.iterations);
      const Int128 interference =
          window_interference(c, split, k, *budget, slack);
      if (interference < *budget) {  // floor(I/m) <= D_k - C_k
        const Time s = c.deadline[k] - c.wcet[k] -
                       static_cast<Time>(interference / m);
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
  for (std::size_t i = 0; i + 1 < m && i < carry.size(); ++i)
    cs = add_saturating(cs, carry[i]);
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
  // Each proven slack D_k - R_k is at most D_k - C_k (R_k >= C_k), which
  // keeps the near floors valid.
  DeadlineSplit split(c);
  std::vector<Time> slack(c.size(), 0);
  std::vector<Time> response(c.size(), 0);
  for (unsigned round = 0; round < cfg.max_rounds; ++round) {
    bool all_pass = true;
    bool improved = false;
    for (std::size_t k = 0; k < c.size(); ++k) {
      const Time d_k = c.deadline[k];
      // R = C_k + floor(I / m) exceeds D_k exactly when I >= m * L_k.
      const Int128 budget =
          static_cast<Int128>(m) * static_cast<Int128>(d_k - c.wcet[k] + 1);
      const auto term = [&](std::size_t i) {
        return window_term(c, i, d_k, slack[i]);
      };
      split.begin(k);
      // Least fixpoint of R = C_k + floor(sum_{i != k} min(W_i, R-C_k+1)/m),
      // iterated upward from R = C_k; monotone in R, so it either
      // converges or provably exceeds D_k.
      Time rk = c.wcet[k];
      bool converged = false;
      for (unsigned it = 0; it < cfg.max_rta_iterations; ++it) {
        const Time beta = rk - c.wcet[k] + 1;
        r.iterations += c.size();
        const Int128 interference =
            split.refine(beta, split.floor(beta), budget, term);
        if (interference >= budget) break;  // response bound exceeds D_k
        const Time next = c.wcet[k] + static_cast<Time>(interference / m);
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
      if (response_bounds) *response_bounds = std::move(response);
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
