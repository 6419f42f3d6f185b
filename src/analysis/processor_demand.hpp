/// \file processor_demand.hpp
/// The classic exact processor-demand test of Baruah et al. [3]
/// (paper Def. 3): Gamma is feasible iff U <= 1 and dbf(I) <= I for every
/// interval I up to a feasibility bound. Only absolute job deadlines need
/// checking (the dbf only changes there).
///
/// This is the "old" exact test the paper's new algorithms are measured
/// against; its iteration count (distinct deadlines examined) is the
/// "Processor Demand" series in Figs. 8/9 and Table 1.
#pragma once

#include <cstdint>
#include <optional>

#include "analysis/types.hpp"
#include "model/task_set.hpp"

namespace edfkit {

struct ProcessorDemandOptions {
  /// Override the test bound; by default the minimum applicable
  /// closed-form bound (see analysis/bounds.hpp).
  std::optional<Time> bound;
  /// Also tighten the bound with the busy period (paper §4.3 warns this
  /// can cost more than it saves; off by default).
  bool use_busy_period = false;
  /// Abort with Verdict::Unknown after this many test intervals
  /// (0 = unlimited). Keeps pathological Fig. 9-style runs bounded.
  std::uint64_t max_iterations = 0;
};

/// Run the processor-demand test. Verdicts Feasible/Infeasible are exact;
/// Unknown only occurs when max_iterations was hit.
[[nodiscard]] FeasibilityResult processor_demand_test(
    const TaskSet& ts, const ProcessorDemandOptions& opts = {});

}  // namespace edfkit
