/// \file global_tests.hpp
/// Global-EDF schedulability tests for m identical processors, over the
/// SoA `TaskColumns` kernels (demand/task_view.hpp).
///
/// Shape follows schedcat's HRT_TESTS cascade (SNIPPETS.md): a ladder of
/// *sufficient* tests ordered cheapest-first, closed by a decisive
/// simulation rung. Each accept is a theorem; each test that cannot
/// prove schedulability answers Unknown, never a guess — the
/// cross-validation suite (tests/analysis/test_multi_edf.cpp) asserts
/// that no accept here is ever contradicted by the m-processor
/// `sim/edf_sim` oracle on a legal sporadic arrival sequence.
///
/// Every condition below is derived from two elementary facts about
/// preemptive global EDF on m processors (zero jitter, at most one
/// active job per task — guaranteed pre-first-miss for constrained
/// deadlines):
///
///  (F1) *Blocked instants are all-busy.* While a released, incomplete
///       job J with absolute deadline t_d is not executing, all m
///       processors run jobs with deadline <= t_d ("competing work").
///       If J misses at t_d it executed < C in [t_d - D, t_d), so at
///       least L = D - C + 1 integer slots of its window are blocked,
///       and the first L of them carry >= m*L units of competing work.
///  (F2) *Per-task workload caps.* In a window [a, b) with b <= t_d and
///       no deadline missed before t_d, task i contributes at most
///       dbf_i(b - a) from jobs released inside the window (their
///       deadlines are <= b), plus at most one carry-in job released
///       before `a` contributing min(C_i, D_i - 1 - s_i) where s_i is a
///       proven completion-slack lower bound (0 when unproven; the
///       carry job's deadline is < a + D_i, and it finishes s_i early).
///       During any set of K blocked slots a single task contributes at
///       most min(workload, K): its jobs never run in parallel.
///
/// The rungs (registry names in brackets):
///   [gfb]          Goossens–Funk–Baruah density bound, O(n):
///                  sum(delta_i) <= m - (m-1)*max(delta_i) with
///                  delta_i = C_i/min(D_i, T_i) in exact rationals
///                  (density generalization per Bertogna/Cirinei/Lipari;
///                  valid for arbitrary deadlines). Also owns the two
///                  O(n) *infeasibility* proofs: U > m (capacity) and
///                  C_i > D_i (a job cannot parallelize past one
///                  processor).
///   [gbl-bcl]      Bertogna–Cirinei–Lipari-style window test, n checks
///                  over the deadline split below: task k safe if
///                    sum_{i != k} min(dbf_i(D_k) + min(C_i, D_i - 1),
///                                     L_k)  <  m * L_k,
///                  L_k = D_k - C_k + 1 (direct from F1 + F2).
///   [gbl-bcl-iter] The same condition with slack iteration: proven
///                  slacks s_i = D_i - C_i - floor(I_i/m) shrink the
///                  carry-in term min(C_i, D_i - 1 - s_i) monotonically
///                  (slack usable only when D_i <= D_k, which forces the
///                  carry job's deadline strictly before t_d).
///   [gbl-load]     Busy-window/load test (Baruah-style): extend the
///                  window left to the last not-all-busy slot; then at
///                  most m-1 tasks carry in, and for every window length
///                  A >= D_k,
///                    sum_i dbf_i(A) - C_k + CS_k  <  m * (A - C_k + 1)
///                  must fail for a miss to exist, where CS_k is the sum
///                  of the m-1 largest min(C_i, D_i - 1). The left side
///                  is piecewise constant in A and the right side grows,
///                  so only deadline step points up to a closed-form
///                  A_max (finite when U < m) need checking.
///   [gbl-rta]      Global response-time analysis: least fixpoint of
///                    R = C_k + floor(sum_{i != k} min(W_i, R - C_k + 1)
///                                    / m),
///                  W_i = dbf_i(D_k) + carry_i(s); accept if R <= D_k,
///                  with outer slack iteration as in gbl-bcl-iter, each
///                  step over the deadline split below. The
///                  response bounds it converges to are the witness the
///                  MultiprocessorCertificate re-derives.
///   [gbl-sim]      The decisive rung: m-processor EDF simulation of the
///                  synchronous periodic pattern (sim/oracle.hpp). A
///                  miss is a sporadic infeasibility proof; no miss over
///                  the hyperperiod horizon is exact for the periodic
///                  interpretation (constrained deadlines, zero jitter).
///
/// Deadline split (gbl-bcl, gbl-bcl-iter, gbl-rta). Every check of task
/// k sums S_k(beta) = sum_{i != k} min(W_i, beta), W_i = dbf_i(D_k) +
/// carry_i(s_i), at beta = L_k (window tests) or beta = R - C_k + 1 <=
/// L_k (RTA steps), against the budget m * L_k: the window condition is
/// S_k(L_k) < m * L_k, and an RTA step R' = C_k + floor(S_k/m) exceeds
/// D_k exactly when S_k >= m * L_k. Split the rows at D_k:
///  * far, D_i > D_k: no job of i has its deadline in the window, so
///    dbf_i(D_k) = 0; the carry job's deadline may lie at or after t_d,
///    so no slack is usable (F2). W_i = min(C_i, D_i - 1) exactly, the
///    same in every round (window_far_term).
///  * near, D_i <= D_k: at least one job, dbf_i(D_k) >= C_i, and every
///    slack the iteration writes is s_i <= D_i - C_i (gbl-bcl-iter's
///    D_i - C_i - floor(I_i/m), gbl-rta's D_i - R_i with R_i >= C_i), so
///    the carry-in min(C_i, D_i - 1 - s_i) is at least C_i - 1. Hence
///    W_i >= 2C_i - 1 (saturated like W_i; window_near_floor).
/// Each call sorts the rows by deadline once and cuts them into blocks
/// of B ~ sqrt(2n) positions; each block keeps its far terms and near
/// floors sorted, with prefix sums (O(n log n) time, O(n) memory). A
/// check first sums the far terms and the near floors, each capped at
/// beta, in O((n/B) log B + B) additions and no division; a near row
/// whose floor reaches beta contributes exactly beta. When that lower
/// bound reaches the budget the check is settled. Otherwise the floors
/// of the open near rows (floor < beta) are replaced by exact terms one
/// at a time until the running bound reaches the budget or the rows run
/// out, so an exact dbf is computed only for near rows with floor below
/// beta, at most once per check (beta only grows within a check).
/// Verdicts, iterations (n per check, n per RTA step), revisions,
/// witnesses and RTA response bounds are those of the plain O(n^2)
/// sweep; sums are 128-bit. On the global admission rejects of a ~500-
/// task m = 8 tenant, the floors alone settle ~77% of the window checks
/// and of the RTA steps that exceed D_k, and the running bound ends most
/// of the others after a few exact terms.
///
/// BAK (Baker's arbitrary-deadline test) was deliberately *not* ported:
/// its condition could not be re-derived from first principles here, and
/// an unsound transcription would poison the oracle contract. Sets with
/// unconstrained deadlines are served by gfb and gbl-sim; the window
/// rungs answer Unknown for them.
///
/// Preconditions, enforced by the TaskSet entry points (columns-level
/// kernels document rather than check them): zero jitter — the column
/// `deadline` equals the raw D — and, for the window rungs, constrained
/// deadlines D_i <= T_i. Violations answer Unknown, never a guess.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/types.hpp"
#include "demand/task_view.hpp"
#include "model/platform.hpp"
#include "model/task_set.hpp"
#include "util/fixedpoint.hpp"

namespace edfkit::multi {

/// Shared knobs for the pseudo-polynomial rungs. All caps degrade to
/// Unknown when exceeded — never to a wrong verdict.
struct GlobalTestConfig {
  /// Slack-iteration rounds for gbl-bcl-iter / gbl-rta (each round is
  /// one pass over all tasks; slacks improve monotonically so a small
  /// cap loses only precision).
  unsigned max_rounds = 32;
  /// Inner fixpoint steps per task for gbl-rta.
  unsigned max_rta_iterations = 4096;
  /// Step-point budget per task for gbl-load's window sweep.
  std::uint64_t max_load_points = 1u << 18;
};

/// [gfb] O(n log 1) density bound + the O(n) infeasibility gates
/// (U > m, C_i > D_i). Arbitrary deadlines. \pre zero jitter.
[[nodiscard]] FeasibilityResult gfb_density_test(const TaskColumns& c,
                                                 std::uint32_t m);

/// [gfb, incremental] Certified aggregate density bounds of a task
/// multiset, from which gfb_bounds_accept decides a GFB accept without
/// a sweep. IncrementalDemand (admission/incremental_dbf.hpp) maintains
/// one under add/remove for the admission controller's global mode.
struct DensityBounds {
  /// S-scaled bounds (util/fixedpoint.hpp) on sum(delta_i) over the
  /// gfb_eligible tasks, delta_i = C_i/min(D_i, T_i).
  ScaledPair sum;
  /// S-scaled bounds on max(delta_i) over the same tasks ({0, 0} when
  /// there are none).
  ScaledPair max;
  /// Tasks outside both sums (gfb_eligible false).
  std::size_t ineligible = 0;
  /// All tasks, eligible or not.
  std::size_t tasks = 0;
};

/// True when `t` can be part of a set GFB accepts: zero jitter and
/// C <= min(D, T), i.e. delta <= 1. A set holding any other task never
/// passes gfb_density_test (the jitter gate answers Unknown; with
/// delta > 1, sum + (m-1)*max >= m*delta > m), so gfb_bounds_accept
/// abstains while one is present.
[[nodiscard]] bool gfb_eligible(const Task& t) noexcept;

/// S-scaled floor/ceil bounds on delta = C/min(D, T) of one
/// gfb_eligible task (each endpoint <= S).
[[nodiscard]] ScaledPair density_pair(const Task& t) noexcept;

/// [gfb, incremental] O(1) sufficient accept: true only if every task
/// is gfb_eligible, tasks < 2^20, and
///   sum.hi + (m-1)*max.hi <= m*S - m*S*2^-30.
/// Every true answer is also an accept of gfb_density_test on the same
/// set and m, whichever of its paths runs. Write L = sum(delta) +
/// (m-1)*max(delta) exactly; the bounds give L <= m*(1 - 2^-30).
///  * Jitter gate and C_i > D_i gate: excluded by eligibility.
///  * U > m gate: U <= sum(delta) <= L < m, so the exact rational path
///    does not refute. Its double path sums n rounded quotients and
///    inflates by (n+4)*2^-52, so its upper bound is at most
///    U*(1 + (3n+10)*2^-53) (plus second-order terms) < U*(1 + 2^-31)
///    for n < 2^20: it proves U <= m, never refutes and never
///    straddles.
///  * Exact density path: L <= m accepts.
///  * Double density path: n rounded quotients, their sum, one product
///    and one addition, inflated by (n+6)*2^-52, bound L by at most
///    L*(1 + (3n+16)*2^-53) < L*(1 + 2^-31) <= m*(1 - 2^-31) < m.
/// The margin is what keeps the ~n*2^-52 relative error of the double
/// paths inside the proof; at the exact boundary (L == m) this
/// predicate abstains and the from-scratch test decides. False means
/// nothing: run gfb_density_test.
[[nodiscard]] bool gfb_bounds_accept(const DensityBounds& b,
                                     std::uint32_t m) noexcept;

/// The deadline-split terms of row i (header comment, "Deadline split"):
/// its exact window term min(C_i, D_i - 1) against any task with a
/// shorter deadline, and the floor 2C_i - 1 (saturated) of its term
/// against any task whose deadline is not shorter, under any slack
/// s_i <= D_i - C_i. \pre C_i >= 1.
[[nodiscard]] Time window_far_term(const TaskColumns& c,
                                   std::size_t i) noexcept;
[[nodiscard]] Time window_near_floor(const TaskColumns& c,
                                     std::size_t i) noexcept;

/// [gbl-bcl] One-pass window test. \pre zero jitter, D_i <= T_i.
[[nodiscard]] FeasibilityResult global_bcl_test(const TaskColumns& c,
                                                std::uint32_t m);

/// [gbl-bcl-iter] Slack-iterated window test.
/// \pre zero jitter, D_i <= T_i.
[[nodiscard]] FeasibilityResult global_bcl_iterative_test(
    const TaskColumns& c, std::uint32_t m, const GlobalTestConfig& cfg = {});

/// [gbl-load] Busy-window/load sweep. \pre zero jitter, D_i <= T_i.
[[nodiscard]] FeasibilityResult global_load_test(
    const TaskColumns& c, std::uint32_t m, const GlobalTestConfig& cfg = {});

/// [gbl-rta] Global response-time analysis. On accept, `response_bounds`
/// (when non-null) receives one proven response-time upper bound per
/// row, aligned with column order — the MultiprocessorCertificate's
/// witness vector. \pre zero jitter, D_i <= T_i.
[[nodiscard]] FeasibilityResult global_rta_test(
    const TaskColumns& c, std::uint32_t m, const GlobalTestConfig& cfg = {},
    std::vector<Time>* response_bounds = nullptr);

/// TaskSet entry points: enforce the jitter/constrained-deadline gates
/// (answering Unknown when violated), build the columns, and dispatch.
/// These are what the registry runners and the admission controller's
/// global ladder call.
[[nodiscard]] FeasibilityResult gfb_density_test(const TaskSet& ts,
                                                 const Platform& p);
[[nodiscard]] FeasibilityResult global_bcl_test(const TaskSet& ts,
                                                const Platform& p);
[[nodiscard]] FeasibilityResult global_bcl_iterative_test(
    const TaskSet& ts, const Platform& p, const GlobalTestConfig& cfg = {});
[[nodiscard]] FeasibilityResult global_load_test(
    const TaskSet& ts, const Platform& p, const GlobalTestConfig& cfg = {});
[[nodiscard]] FeasibilityResult global_rta_test(
    const TaskSet& ts, const Platform& p, const GlobalTestConfig& cfg = {},
    std::vector<Time>* response_bounds = nullptr);

/// True when every task has zero jitter (column preconditions hold).
[[nodiscard]] bool zero_jitter(const TaskSet& ts) noexcept;
/// True when every task additionally has D_i <= T_i (window-rung gate).
[[nodiscard]] bool window_rungs_applicable(const TaskSet& ts) noexcept;

}  // namespace edfkit::multi
