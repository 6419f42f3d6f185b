/// \file accumulator.hpp
/// Incremental approximated-demand accumulator shared by the dynamic-error
/// and all-approximated tests (paper Figs. 5 & 7) and the superposition
/// test.
///
/// The algorithms walk test intervals in ascending order and maintain
///   dbf'  +=  C_tau  +  (I_act - I_old) * U_ready
/// where U_ready is the utilization sum of currently-approximated tasks.
/// Revising a task's approximation subtracts the Lemma-6 overestimation
/// app(I, tau).
///
/// One accumulator serves one walk over one `TaskSet`, which must outlive
/// it and stay unchanged. Tasks are named by row index. The accumulator
/// computes each task's certified utilization C/T once, when it is built,
/// and keeps which tasks are approximated, so `approximate` and `revise`
/// add and subtract precomputed bounds and the refresh stages read its
/// own flags.
///
/// Exactness strategy: the running value is kept as a
/// *certified interval* in 2^-62 fixed point — int128 floor/ceil bounds
/// that each operation widens by at most one unit. Comparisons against
/// the capacity line are therefore proofs whenever the interval clears
/// the line. If a comparison is ambiguous (width reached the line —
/// astronomically rare except at exact equality), the caller refreshes
/// the bounds from scratch and finally falls back to exact rational
/// arithmetic, which resolves equality for all realistic denominators.
/// Verdicts never rest on an uncertain comparison.
#pragma once

#include <cstddef>
#include <vector>

#include "model/task_set.hpp"
#include "util/fixedpoint.hpp"
#include "util/rational.hpp"

namespace edfkit {

class DemandAccumulator {
 public:
  /// Zero demand at frontier 0, no task approximated.
  explicit DemandAccumulator(const TaskSet& ts);

  /// Advance the frontier by dt, accruing the linear demand of
  /// approximated tasks. \pre dt >= 0
  void advance(Time dt);

  /// Account the WCET of one job whose deadline is at the frontier.
  void add_job(Time wcet);

  /// Mark task `i` approximated from the current frontier on. The
  /// frontier must sit on a job deadline of it (where app == 0), so no
  /// value correction is needed — only the slope changes.
  /// \pre !approximated(i)
  void approximate(std::size_t i);

  /// Withdraw the approximation of task `i` at frontier `interval`:
  /// subtract the overestimation app(interval, task) and stop accruing
  /// its utilization. \pre approximated(i)
  void revise(std::size_t i, Time interval);

  [[nodiscard]] bool approximated(std::size_t i) const {
    return approximated_[i];
  }

  /// dbf' vs interval. Greater means "demand exceeds capacity" (proof);
  /// Less/Equal means it fits (proof); Unknown means the certified
  /// interval straddles the line — use compare_with_refresh.
  [[nodiscard]] Ordering compare_demand(Time interval) const noexcept;

  /// Three-stage comparison: incremental bounds, then a fresh recompute
  /// of the bounds from the task set and the approximated flags, then
  /// exact rationals. Sets *degraded when even the rationals could not
  /// decide (the returned Greater is then conservative, which only costs
  /// extra revisions).
  /// \pre `interval` is the accumulator's current frontier — the refresh
  /// stages recompute the demand *at that interval*.
  [[nodiscard]] Ordering compare_with_refresh(Time interval, bool* degraded);

 private:
  const TaskSet* ts_;
  std::vector<ScaledPair> util_;     // S-scaled bounds on C_i/T_i
  std::vector<bool> approximated_;
  // S-scaled certified bounds: dlo_ <= dbf' * S <= dhi_, and the same
  // for the ready utilization.
  Int128 dlo_ = 0;
  Int128 dhi_ = 0;
  Int128 ulo_ = 0;
  Int128 uhi_ = 0;
};

/// Fresh S-scaled bounds on dbf'(interval) from per-task state.
struct ScaledDemand {
  Int128 lo = 0;
  Int128 hi = 0;
};
[[nodiscard]] ScaledDemand recompute_demand_scaled(
    const TaskSet& ts, const std::vector<bool>& approximated, Time interval);

/// Exact rational dbf'(interval) (may come back inexact if the int128
/// rationals overflow — callers must check).
[[nodiscard]] Rational recompute_demand(const TaskSet& ts,
                                        const std::vector<bool>& approximated,
                                        Time interval);

}  // namespace edfkit
