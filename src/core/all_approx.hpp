/// \file all_approx.hpp
/// The all-approximated exact feasibility test (paper §4.2, Fig. 7).
///
/// Instead of a global level, every task is approximated immediately
/// after its first tested job deadline, and approximations are revised
/// *individually*, on demand, at exactly those test intervals where the
/// approximated demand exceeds the capacity. Revision order is FIFO over
/// the approximation list (the paper's `getAndRemoveFirstTask`). Each
/// revised task contributes one new test interval — its next job deadline
/// after the failing interval (Lemma 5) — and is re-approximated as soon
/// as that interval is processed.
///
/// The test terminates implicitly at the superposition feasibility bound
/// (§4.3): once the slack at a test interval absorbs every task's
/// overestimation, no further intervals are generated. When the initial
/// interval of every task is accepted without revisions, the behaviour
/// and cost equal Devi's test — the paper's key property.
///
/// Handed a `WalkBorders` (core/borders.hpp), the walk certifies its own
/// Feasible verdict: it goes on past the bound until the test list
/// drains and records each task's last approximation point. Query does
/// this when the test is the deciding rung of a Single or Ladder query
/// (query/certificate.hpp has the full rule), and
/// `build_feasibility_certificate` is this walk with no bound, so under
/// the default FIFO policy the two issue the same certificate.
#pragma once

#include <cstdint>
#include <optional>

#include "analysis/types.hpp"
#include "core/borders.hpp"
#include "model/task_set.hpp"

namespace edfkit {

/// Which approximated task to revise when the demand exceeds a test
/// interval. The paper's getAndRemoveFirstTask is FIFO; the alternatives
/// exist for the ablation bench (verdicts are policy-independent — the
/// test stays exact — only the effort changes).
enum class RevisionPolicy : std::uint8_t {
  Fifo,      ///< paper: oldest approximation first
  Lifo,      ///< newest approximation first
  MaxError,  ///< largest current overestimation app(I, tau) first
};

struct AllApproxOptions {
  /// Safety net for U == 1 workloads where the implicit termination
  /// argument does not apply: with U == 1 the approximated demand grows
  /// at the capacity's own slope, so the slack need never absorb the
  /// overestimation and the test list may run to the hyperperiod.
  /// Intervals beyond this bound are feasible by construction (the
  /// bounds table in analysis/bounds.hpp). Default: the library's
  /// combined feasibility bound; kTimeInfinity walks to the drain.
  std::optional<Time> bound;
  RevisionPolicy revision = RevisionPolicy::Fifo;
};

/// `borders` (optional) makes the walk certify a Feasible verdict; see
/// core/borders.hpp. The returned result is the same either way, except
/// with no bound (kTimeInfinity), where passing the step cap ends the
/// walk with verdict Unknown: the certificate builder's stop.
[[nodiscard]] FeasibilityResult all_approx_test(
    const TaskSet& ts, const AllApproxOptions& opts = {},
    WalkBorders* borders = nullptr);

}  // namespace edfkit
