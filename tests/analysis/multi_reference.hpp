/// \file multi_reference.hpp
/// Test-only reference copies of the global-EDF column kernels as they
/// were before the deadline split (src/analysis/multi/global_tests.cpp):
/// gfb, gbl-bcl, gbl-bcl-iter, gbl-load and gbl-rta, each a plain O(n^2)
/// sweep that computes every window term dbf_i(D_k) + carry_i(s) with
/// its division, and exact-rational sums that run to the last task. The
/// differential suite in test_multi_edf.cpp holds the production kernels
/// to every FeasibilityResult field and RTA response bound of these.
///
/// The sums here are plain 64-bit: RTA's interference and gbl-load's
/// carry-in total wrap for four or more terms near kTimeInfinity, so
/// callers keep such sets to at most three tasks.
#pragma once

#include <algorithm>
#include <functional>
#include <limits>
#include <optional>
#include <vector>

#include "analysis/types.hpp"
#include "demand/task_view.hpp"
#include "util/rational.hpp"

namespace edfkit::testing::reference {

struct Config {
  unsigned max_rounds = 32;
  unsigned max_rta_iterations = 4096;
  std::uint64_t max_load_points = 1u << 18;
};

struct SumBounds {
  double lo = 0.0;
  double hi = 0.0;
};

inline SumBounds certify_bounds(double value, std::size_t terms) {
  const double slack = (static_cast<double>(terms) + 4.0) *
                       std::numeric_limits<double>::epsilon();
  return SumBounds{value * (1.0 - slack), value * (1.0 + slack)};
}

inline std::optional<Time> checked_mul(std::uint32_t m, Time x) {
  if (x < 0) return std::nullopt;
  if (m != 0 && x > kTimeInfinity / static_cast<Time>(m)) return std::nullopt;
  return static_cast<Time>(m) * x;
}

inline Rational exact_utilization(const TaskColumns& c) {
  Rational u;
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (is_time_infinite(c.period[i])) continue;
    u += Rational(c.wcet[i], c.period[i]);
  }
  return u;
}

inline std::optional<FeasibilityResult> infeasibility_gates(
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
    return std::nullopt;
  }
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
  if (b.hi <= static_cast<double>(m)) return std::nullopt;
  FeasibilityResult r;
  r.verdict = Verdict::Unknown;
  r.degraded = true;
  return r;
}

inline Time carry_in(const TaskColumns& c, std::size_t i, Time d_k,
                     Time slack_i) {
  const Time usable = c.deadline[i] <= d_k ? slack_i : 0;
  const Time residual = c.deadline[i] - 1 - usable;
  if (residual <= 0) return 0;
  return std::min(c.wcet[i], residual);
}

/// The uncapped window term W_i of row i in a window of length d_k.
inline Time window_term(const TaskColumns& c, std::size_t i, Time d_k,
                        Time slack_i) {
  return add_saturating(row_dbf(c, i, d_k), carry_in(c, i, d_k, slack_i));
}

inline std::optional<Time> window_interference(const TaskColumns& c,
                                               std::size_t k, std::uint32_t m,
                                               const std::vector<Time>& s) {
  const Time d_k = c.deadline[k];
  const Time cap = d_k - c.wcet[k] + 1;
  const std::optional<Time> budget = checked_mul(m, cap);
  if (!budget) return std::nullopt;
  Time total = 0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (i == k) continue;
    total += std::min(window_term(c, i, d_k, s[i]), cap);
    if (total >= *budget) return total;
  }
  return total;
}

inline FeasibilityResult unknown_result(std::uint64_t iters) {
  FeasibilityResult r;
  r.verdict = Verdict::Unknown;
  r.iterations = iters;
  return r;
}

inline FeasibilityResult gfb_density_test(const TaskColumns& c,
                                          std::uint32_t m) {
  FeasibilityResult r;
  if (c.empty()) {
    r.verdict = Verdict::Feasible;
    return r;
  }
  if (auto gate = infeasibility_gates(c, m)) return *gate;
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
    if (lhs.certainly_le(static_cast<Time>(m))) r.verdict = Verdict::Feasible;
    return r;
  }
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
  return r;
}

inline FeasibilityResult global_bcl_test(const TaskColumns& c,
                                         std::uint32_t m) {
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

inline FeasibilityResult global_bcl_iterative_test(const TaskColumns& c,
                                                   std::uint32_t m,
                                                   const Config& cfg = {}) {
  FeasibilityResult r;
  if (c.empty()) {
    r.verdict = Verdict::Feasible;
    return r;
  }
  if (auto gate = infeasibility_gates(c, m)) return *gate;
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
    if (!improved) return r;
  }
  return r;
}

inline FeasibilityResult global_load_test(const TaskColumns& c,
                                          std::uint32_t m,
                                          const Config& cfg = {}) {
  FeasibilityResult r;
  if (c.empty()) {
    r.verdict = Verdict::Feasible;
    return r;
  }
  if (auto gate = infeasibility_gates(c, m)) return *gate;
  const Rational u = exact_utilization(c);
  const Rational slackline = Rational(static_cast<Time>(m)) - u;
  if (!slackline.exact() || !slackline.certainly_gt(Rational(Time{0}))) {
    r.degraded = !slackline.exact();
    return r;
  }
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
    const Rational numerator =
        Rational(add_saturating(total_wcet, cs)) +
        Rational(static_cast<Time>(m) - 1) * Rational(c.wcet[k]) -
        Rational(static_cast<Time>(m));
    const Rational bound = numerator / slackline;
    if (!bound.exact()) return unknown_result(r.iterations);
    const Time a_max = std::max(c.deadline[k], bound.floor() + 1);
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
      const Time lhs = add_saturating(columns_dbf(c, a) - c.wcet[k], cs);
      const std::optional<Time> rhs = checked_mul(m, a - c.wcet[k] + 1);
      ++r.iterations;
      r.max_interval_tested = std::max(r.max_interval_tested, a);
      if (!rhs || lhs >= *rhs) return r;
    }
  }
  r.verdict = Verdict::Feasible;
  return r;
}

inline FeasibilityResult global_rta_test(const TaskColumns& c,
                                         std::uint32_t m,
                                         const Config& cfg = {},
                                         std::vector<Time>* response_bounds =
                                             nullptr) {
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
        w[i] = i == k ? 0 : window_term(c, i, d_k, slack[i]);
      }
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
        if (next > d_k) break;
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
    if (!improved) return r;
  }
  return r;
}

}  // namespace edfkit::testing::reference
