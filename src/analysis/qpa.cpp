#include "analysis/qpa.hpp"

#include <algorithm>

#include "analysis/bounds.hpp"
#include "analysis/utilization.hpp"
#include "demand/task_view.hpp"

namespace edfkit {

FeasibilityResult qpa_test(const TaskSet& ts) {
  FeasibilityResult r;
  if (ts.empty()) {
    r.verdict = Verdict::Feasible;
    return r;
  }
  if (utilization_exceeds_one(ts)) {
    r.verdict = Verdict::Infeasible;
    return r;
  }
  const Time bound = default_test_bound(ts);
  const Time dmin = ts.min_deadline();

  // Each loop step is two dense passes over the flat columns (one dbf
  // evaluation, one predecessor-deadline scan) instead of Task-struct
  // walks.
  const TaskColumns cols(ts.tasks());
  Time t = columns_max_deadline_below(cols, add_saturating(bound, 1));
  if (t < 0) {
    // No deadline inside the bound: nothing can overflow.
    r.verdict = Verdict::Feasible;
    return r;
  }
  r.max_interval_tested = t;
  while (true) {
    ++r.iterations;
    const Time h = columns_dbf(cols, t);
    if (h > t) {
      r.verdict = Verdict::Infeasible;
      r.witness = t;
      return r;
    }
    if (h <= dmin) break;
    t = (h < t) ? h : columns_max_deadline_below(cols, t);
    if (t < dmin) break;  // passed below every deadline
  }
  r.verdict = Verdict::Feasible;
  return r;
}

}  // namespace edfkit
