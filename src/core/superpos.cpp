#include "core/superpos.hpp"

#include <stdexcept>

#include "analysis/utilization.hpp"
#include "demand/accumulator.hpp"
#include "demand/intervals.hpp"
#include "demand/task_view.hpp"

namespace edfkit {

FeasibilityResult superpos_test(const TaskSet& ts, Time level) {
  if (level < 1) throw std::invalid_argument("superpos_test: level < 1");
  FeasibilityResult r;
  if (ts.empty()) {
    r.verdict = Verdict::Feasible;
    return r;
  }
  if (utilization_exceeds_one(ts)) {
    r.verdict = Verdict::Infeasible;
    r.iterations = 1;
    return r;
  }

  const TaskColumns cols(ts.tasks());
  TestList list;
  for (std::size_t i = 0; i < cols.size(); ++i) {
    list.add(i, cols.deadline[i]);
  }
  DemandAccumulator acc(ts);
  Time iold = 0;

  // One testlist entry per iteration, exactly as in the paper's
  // pseudocode. Several tasks may share a test interval; the comparison
  // after the *last* entry of an interval sees the complete demand, and
  // earlier (partial-demand) failures are still true failures because
  // demand only grows within an interval. The per-job reads (wcet,
  // border, next deadline) come from the flat columns.
  while (!list.empty()) {
    const auto e = list.pop();
    const Time point = e.interval;
    acc.advance(point - iold);  // no-op for entries at the same interval
    acc.add_job(cols.wcet[e.task]);
    ++r.iterations;
    r.max_interval_tested = point;

    const Ordering cmp = acc.compare_with_refresh(point, &r.degraded);
    if (cmp == Ordering::Greater) {
      // Approximated demand exceeds capacity (or cannot be proven not
      // to): the sufficient test rejects.
      r.verdict = Verdict::Unknown;
      return r;
    }

    // Border = deadline of job #level; at or past it, approximate.
    if (point < row_approx_border(cols, e.task, level)) {
      const Time nxt = row_next_deadline_after(cols, e.task, point);
      if (!is_time_infinite(nxt)) list.add(e.task, nxt);
    } else {
      acc.approximate(e.task);
    }
    iold = point;
  }
  // All tasks approximated and every change point passed; with U <= 1 the
  // linear tail can never cross the capacity line (Lemma 1).
  r.verdict = Verdict::Feasible;
  return r;
}

}  // namespace edfkit
