#include "core/all_approx.hpp"

#include <deque>

#include "analysis/bounds.hpp"
#include "analysis/utilization.hpp"
#include "core/border_recorder.hpp"
#include "demand/accumulator.hpp"
#include "demand/intervals.hpp"
#include "demand/task_view.hpp"

namespace edfkit {

FeasibilityResult all_approx_test(const TaskSet& ts,
                                  const AllApproxOptions& opts,
                                  WalkBorders* borders) {
  FeasibilityResult r;
  if (ts.empty()) {
    r.verdict = Verdict::Feasible;
    return r;
  }
  const UtilizationClass uc = classify_utilization(ts);
  if (uc == UtilizationClass::AboveOne) {
    r.verdict = Verdict::Infeasible;
    r.iterations = 1;
    return r;
  }

  // Not value_or: that would compute the default bound even when a
  // bound is given (the certificate builder passes kTimeInfinity).
  const Time imax = opts.bound ? *opts.bound : implicit_test_bound(ts);

  // Flat hot columns for the revision loops (ROADMAP: "SoA the
  // accumulator tests"): the MaxError error sweep and the testlist
  // re-arming only read wcet / deadline / period / util.
  const TaskColumns cols(ts);
  TestList list;
  std::deque<std::size_t> approx_fifo;  // paper's ApproxList (FIFO)
  for (std::size_t i = 0; i < ts.size(); ++i) {
    list.add(i, cols.deadline[i]);
  }

  DemandAccumulator acc(ts);
  Time iold = 0;
  BorderRecorder rec(borders, ts.size(), imax,
                     uc == UtilizationClass::BelowOne);

  // One testlist entry per iteration (paper Fig. 7). A certifying walk
  // goes on past the bound to the drain (core/borders.hpp).
  while (!list.empty()) {
    if (!rec.past_bound() && list.peek().interval > imax &&
        !rec.walk_past_bound(r)) {
      break;
    }
    if (opts.stop != nullptr && opts.stop->load(std::memory_order_relaxed)) {
      if (rec.past_bound()) return rec.at_bound();
      r.verdict = Verdict::Unknown;
      r.cancelled = true;
      return r;
    }
    if (rec.step()) return rec.capped(r);
    const auto entry = list.pop();
    const Time point = entry.interval;
    acc.advance(point - iold);
    acc.add_job(cols.wcet[entry.task]);
    ++r.iterations;
    r.max_interval_tested = point;

    // Revise approximations one task at a time (FIFO) until the demand
    // fits or nothing is approximated (=> the value is the exact dbf).
    while (true) {
      bool cmp_degraded = false;
      const Ordering cmp = acc.compare_with_refresh(point, &cmp_degraded);
      r.degraded = r.degraded || cmp_degraded;
      if (cmp != Ordering::Greater) break;
      if (approx_fifo.empty()) {
        if (rec.past_bound()) return rec.at_bound();  // never certify
        if (cmp_degraded) {
          r.verdict = Verdict::Unknown;  // defensive; exact dbf is integral
          return r;
        }
        r.verdict = Verdict::Infeasible;
        r.witness = point;
        return r;
      }
      if (rec.step()) return rec.capped(r);
      std::size_t ti;
      switch (opts.revision) {
        case RevisionPolicy::Lifo:
          ti = approx_fifo.back();
          approx_fifo.pop_back();
          break;
        case RevisionPolicy::MaxError: {
          // Pick the approximation with the largest current
          // overestimation app(point, tau) = frac((point-D)/T) * C —
          // one dense sweep over the flat columns.
          std::size_t best = 0;
          double best_err = -1.0;
          for (std::size_t k = 0; k < approx_fifo.size(); ++k) {
            const std::size_t ci = approx_fifo[k];
            double err = 0.0;
            if (!is_time_infinite(cols.period[ci])) {
              err = static_cast<double>(floor_mod(
                        point - cols.deadline[ci], cols.period[ci])) *
                    cols.util[ci];
            }
            if (err > best_err) {
              best_err = err;
              best = k;
            }
          }
          ti = approx_fifo[best];
          approx_fifo.erase(approx_fifo.begin() +
                            static_cast<std::ptrdiff_t>(best));
          break;
        }
        case RevisionPolicy::Fifo:
        default:
          ti = approx_fifo.front();
          approx_fifo.pop_front();
          break;
      }
      acc.revise(ti, point);
      ++r.revisions;
      const Time nxt = row_next_deadline_after(cols, ti, point);
      if (!is_time_infinite(nxt)) list.add(ti, nxt);
    }

    // The popped task re-enters approximation immediately: the frontier
    // sits on its own job deadline, where app == 0.
    acc.approximate(entry.task);
    approx_fifo.push_back(entry.task);
    rec.record(entry.task, point);
    iold = point;
  }

  return rec.drained(r);
}

}  // namespace edfkit
