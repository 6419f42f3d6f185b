/// \file certificate.hpp
/// Machine-checkable certificates for feasibility verdicts, with an
/// independent checker.
///
/// Infeasibility is certified by replayable evidence: either a witness
/// interval W with exact dbf(W) > W (checked by one exact dbf
/// evaluation), or provable over-utilization U > 1 (checked by the exact
/// rational classifier).
///
/// Feasibility by an exact test is certified by a *superposition-border
/// certificate*: one job deadline b_i ("border") per task, with the claim
/// that the approximated demand dbf'(I) — exact per task up to its
/// border, linear envelope beyond (paper Defs. 4/5) — stays at or below
/// capacity at every absolute job deadline <= its task's border. The
/// checker re-derives feasibility from nothing but the borders and the
/// paper's lemmas:
///   1. exact rational U <= 1 (Lemma 1 tail argument needs it);
///   2. every border is a job deadline of its task;
///   3. regenerating ALL deadline points {D_i + k*T_i <= b_i} and
///      evaluating dbf' with exact rational arithmetic at each, demand
///      never exceeds capacity.
/// Between checked points dbf' is piecewise linear with slope <= U <= 1
/// against a capacity line of slope 1, and beyond the largest border
/// every task is on its envelope — so pointwise acceptance at the
/// regenerated points proves dbf(I) <= dbf'(I) <= I for every I > 0
/// (Lemmas 1/3/4). The checker shares no code path with the tests other
/// than the Def. 4/5 demand formulas; a mutated certificate (border off a
/// deadline, border shrunk below a violation, transplanted task set)
/// fails one of the three checks.
///
/// Which walk produced the borders: when the rung that decides a Single
/// or Ladder Query (or a batch's first decisive exact backend) is the
/// dynamic or all-approx test, it carries the borders its own walk
/// recorded on the way to its drain (core/borders.hpp). Every other
/// accept gets them from `build_feasibility_certificate`, the all-approx
/// walk with no bound: QPA, processor-demand and the sufficient rungs, a
/// portfolio (its walks race uncertified), the admission controller, and
/// a walk that stops short of its drain (past the step cap, on its stop
/// token, at U == 1, or run with no bound). An all-approx accept's
/// certificate is therefore the builder's byte for byte (under the
/// default FIFO revision); a dynamic accept's borders follow the dynamic
/// test's level schedule and may differ from the builder's, and verify
/// just the same.
///
/// The rare fallback (step-capped construction at U == 1) is an
/// exhaustive certificate: a bound B such that checking the exact dbf at
/// every deadline in (0, B] proves feasibility; the checker recomputes
/// its own sound bound and replays the full scan.
///
/// Multiprocessor verdicts (Platform.m > 1) carry a
/// *MultiprocessorCertificate* extension: the same Certificate struct
/// with `processors` and `multi_test` set, naming the sufficient
/// condition (or simulation) that proved the verdict. The checker
/// re-establishes the claim by *deterministic recomputation* of that
/// named condition over the task set — never by checking claimed
/// fixpoints (a transplanted "fixpoint" can be self-consistent yet
/// unsound; recomputation from the sound starting point cannot). For
/// the RTA form `borders` additionally carries the claimed per-task
/// response bounds; the checker recomputes its own bounds and rejects
/// when any recomputed bound exceeds the claimed one or any claim
/// exceeds its deadline, so mutation (shrinking a bound, inflating one
/// past D, transplanting onto another set) fails.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/types.hpp"
#include "model/platform.hpp"
#include "model/task_set.hpp"
#include "query/workload.hpp"

namespace edfkit {

enum class TestKind : int;  // full definition in query/registry.hpp

enum class CertificateKind : std::uint8_t {
  None,                ///< no certificate attached
  FeasibleBorders,     ///< per-task superposition borders (see above)
  FeasibleExhaustive,  ///< bound B; full exact-dbf replay over (0, B]
  InfeasibleWitness,   ///< interval W with exact dbf(W) > W
  InfeasibleOverload,  ///< exact utilization > 1
  MultiFeasibleDensity,    ///< GFB density condition holds on m procs
  MultiFeasibleWindow,     ///< a window/RTA sufficient condition holds
  MultiFeasibleSim,        ///< m-proc sim: no miss (periodic semantics)
  MultiInfeasibleOverload, ///< exact utilization > m
  MultiInfeasibleJob,      ///< some task has C_i > D_i
  MultiInfeasibleSim,      ///< m-proc sim missed (sporadic refutation)
};

[[nodiscard]] const char* to_string(CertificateKind k) noexcept;

/// Which global test a MultiFeasibleWindow certificate names; the
/// checker recomputes exactly this condition.
enum class MultiTest : std::uint8_t {
  None,
  Gfb,
  Bcl,
  BclIter,
  Load,
  Rta,
  Sim,
};

[[nodiscard]] const char* to_string(MultiTest t) noexcept;

struct Certificate {
  CertificateKind kind = CertificateKind::None;
  /// InfeasibleWitness: the overflow interval W.
  /// MultiInfeasibleSim: the simulated miss instant (informational; the
  /// checker re-runs the deterministic simulation rather than trust it).
  Time witness = -1;
  /// FeasibleExhaustive: the replay bound B.
  /// MultiFeasibleSim / MultiInfeasibleSim: the simulation horizon cap.
  Time bound = 0;
  /// FeasibleBorders: border b_i per task, aligned with task order.
  /// MultiFeasibleWindow(Rta): claimed response-time bound per task.
  std::vector<Time> borders;
  /// Multiprocessor extension: platform width the claim is for (1 for
  /// the uniprocessor kinds) and the named sufficient condition.
  std::uint32_t processors = 1;
  MultiTest multi_test = MultiTest::None;

  [[nodiscard]] bool present() const noexcept {
    return kind != CertificateKind::None;
  }
  [[nodiscard]] bool multiprocessor() const noexcept {
    return kind >= CertificateKind::MultiFeasibleDensity;
  }
  [[nodiscard]] std::string to_string() const;
};

/// Verdict of the independent checker.
struct CertificateCheck {
  bool valid = false;
  /// Demand/capacity comparisons the checker replayed.
  std::uint64_t points_checked = 0;
  /// Human-readable rejection reason (empty when valid).
  std::string reason;
};

/// Default cap on checker comparisons (guards hyperperiod blow-ups in
/// the exhaustive form; certificates needing more are rejected as
/// unverifiable, never accepted unchecked).
inline constexpr std::uint64_t kDefaultVerifyPointCap = 1u << 22;

/// Independently verify `c` against `ts`. Accepts only certificates
/// whose claim it can fully re-establish with exact arithmetic.
[[nodiscard]] CertificateCheck verify(
    const TaskSet& ts, const Certificate& c,
    std::uint64_t max_points = kDefaultVerifyPointCap);

/// Workload overload: verifies against the canonical sporadic form.
[[nodiscard]] CertificateCheck verify(
    const Workload& w, const Certificate& c,
    std::uint64_t max_points = kDefaultVerifyPointCap);

/// Build the infeasibility certificate matching an Infeasible result:
/// witness form when `r.witness >= 0`, overload form otherwise.
[[nodiscard]] Certificate make_infeasibility_certificate(
    const FeasibilityResult& r);

/// Wrap the borders a Feasible dynamic or all-approx walk recorded at
/// its drain (core/borders.hpp) as a FeasibleBorders certificate.
/// nullopt when U <= 1 is not provable with exact rationals, the same
/// gate the builder applies.
[[nodiscard]] std::optional<Certificate> make_borders_certificate(
    const TaskSet& ts, std::vector<Time> borders);

/// Construct a feasibility certificate for a provably feasible set: the
/// all-approximated walk (core/all_approx.hpp) run with no bound, whose
/// recorded borders form the certificate. Falls back to the exhaustive
/// form when the walk exceeds `step_cap` steps (possible only for
/// pathological U == 1 sets). A U == 1 set whose fully approximated
/// demand lies provably above the capacity line never drains, so it
/// skips the walk: the processor-demand test up to the exhaustive form's
/// bound, capped at `step_cap` intervals, returns nullopt on an overflow
/// and the exhaustive form otherwise. Returns nullopt when the set is
/// not provably feasible (never emits an unsound certificate).
[[nodiscard]] std::optional<Certificate> build_feasibility_certificate(
    const TaskSet& ts, std::uint64_t step_cap = 1u << 20);

/// Build the MultiprocessorCertificate for a global-mode verdict decided
/// by the backend `decided_by` (one of the Global* / GfbDensity kinds)
/// on platform `p`. Re-derives everything it attaches (e.g. the RTA
/// response bounds) rather than trusting `r`, so the result always
/// passes verify() when the verdict was sound. Returns nullopt when the
/// deciding kind is not a global backend or the condition cannot be
/// re-established (a library bug — never emits an unsound certificate).
[[nodiscard]] std::optional<Certificate> build_multiprocessor_certificate(
    const TaskSet& ts, const Platform& p, TestKind decided_by,
    const FeasibilityResult& r);

}  // namespace edfkit
