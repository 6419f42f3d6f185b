#include "analysis/processor_demand.hpp"

#include <algorithm>

#include "analysis/bounds.hpp"
#include "analysis/utilization.hpp"
#include "demand/intervals.hpp"
#include "demand/task_view.hpp"

namespace edfkit {

FeasibilityResult processor_demand_test(const TaskSet& ts,
                                        const ProcessorDemandOptions& opts) {
  FeasibilityResult r;
  if (ts.empty()) {
    r.verdict = Verdict::Feasible;
    return r;
  }
  if (utilization_exceeds_one(ts)) {
    r.verdict = Verdict::Infeasible;
    return r;
  }
  // Not value_or: that would compute the default bound even when a
  // bound is given.
  const Time bound = opts.bound
                         ? *opts.bound
                         : default_test_bound(ts, opts.use_busy_period);

  // Walk all job deadlines <= bound in ascending order, accumulating the
  // demand incrementally: every popped (task, deadline) adds one job's C.
  // The heap carries row indices into the flat columns so the inner loop
  // reads dense wcet/deadline/period arrays, not one Task struct per job.
  const TaskColumns cols(ts.tasks());
  TestList list;
  for (std::size_t i = 0; i < cols.size(); ++i) {
    const Time d0 = cols.deadline[i];
    if (d0 <= bound) list.add(i, d0);
  }
  Time demand = 0;
  while (!list.empty()) {
    if (opts.stop != nullptr && opts.stop->load(std::memory_order_relaxed)) {
      r.verdict = Verdict::Unknown;
      r.cancelled = true;
      return r;
    }
    const Time point = list.peek().interval;
    // Drain every job deadline at this point.
    while (!list.empty() && list.peek().interval == point) {
      const auto e = list.pop();
      demand = add_saturating(demand, cols.wcet[e.task]);
      const Time nxt = row_next_deadline_after(cols, e.task, point);
      if (nxt <= bound && !is_time_infinite(nxt)) list.add(e.task, nxt);
    }
    ++r.iterations;
    r.max_interval_tested = point;
    if (demand > point) {
      r.verdict = Verdict::Infeasible;
      r.witness = point;
      return r;
    }
    if (opts.max_iterations != 0 && r.iterations >= opts.max_iterations) {
      r.verdict = Verdict::Unknown;
      return r;
    }
  }
  r.verdict = Verdict::Feasible;
  return r;
}

}  // namespace edfkit
