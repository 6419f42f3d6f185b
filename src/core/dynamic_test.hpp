/// \file dynamic_test.hpp
/// The dynamic-error exact feasibility test (paper §4.1, Fig. 5).
///
/// The test starts at superposition level 1 (every task approximated
/// after its first job — exactly Devi's test). Whenever the approximated
/// demand dbf' exceeds the current test interval, the level is raised
/// (doubled by default) and the approximations of all tasks whose new
/// border lies beyond the current interval are withdrawn: their
/// overestimation app(I, tau) is subtracted (Lemma 6) and their next job
/// deadline after I enters the test list (Lemma 5). Nothing already
/// computed is thrown away.
///
/// If the demand still exceeds the interval once *no* task is
/// approximated, the value is the exact dbf and the set is provably
/// infeasible. If the walk passes the feasibility bound Imax, or the test
/// list drains with every task approximated, the set is feasible
/// (Lemmas 1/3/4).
///
/// Task sets accepted by Devi's test complete entirely on level 1 with
/// one iteration per task — the paper's headline property.
///
/// Handed a `WalkBorders` (core/borders.hpp), the walk certifies its own
/// Feasible verdict: it goes on past the bound until the test list
/// drains and records each task's last approximation point. Query does
/// this when the test is the deciding rung of a Single or Ladder query
/// (query/certificate.hpp has the full rule). Those borders come from
/// this walk's level schedule, not from the all-approximated builder's
/// FIFO revisions, so they may differ from what
/// `build_feasibility_certificate` issues for the same set; both verify.
#pragma once

#include <optional>

#include "analysis/types.hpp"
#include "core/borders.hpp"
#include "model/task_set.hpp"

namespace edfkit {

struct DynamicTestOptions {
  /// Starting superposition level (paper: 1).
  Time initial_level = 1;
  /// Level growth on failure: next = max(level * growth_factor,
  /// level + 1). The paper doubles; the ablation bench varies this.
  Time growth_factor = 2;
  /// Hard cap on the level; 0 = unlimited (exact test). A non-zero cap
  /// yields the paper's "strictly limited worst-case run-time" variant,
  /// returning Unknown when the cap is insufficient.
  Time max_level = 0;
  /// Override for the feasibility bound Imax.
  std::optional<Time> bound;
};

/// `borders` (optional) makes the walk certify a Feasible verdict; see
/// core/borders.hpp. The returned result is the same either way, except
/// with no bound (kTimeInfinity), where passing the step cap ends the
/// walk with verdict Unknown: the certificate builder's stop.
[[nodiscard]] FeasibilityResult dynamic_error_test(
    const TaskSet& ts, const DynamicTestOptions& opts = {},
    WalkBorders* borders = nullptr);

}  // namespace edfkit
