#include "core/dynamic_test.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "analysis/bounds.hpp"
#include "analysis/utilization.hpp"
#include "core/border_recorder.hpp"
#include "demand/accumulator.hpp"
#include "demand/intervals.hpp"
#include "demand/task_view.hpp"

namespace edfkit {
namespace {

Time grown(Time level, Time factor) {
  return std::max(level + 1, mul_saturating(level, factor));
}

}  // namespace

FeasibilityResult dynamic_error_test(const TaskSet& ts,
                                     const DynamicTestOptions& opts,
                                     WalkBorders* borders) {
  if (opts.initial_level < 1)
    throw std::invalid_argument("dynamic_error_test: initial_level < 1");
  if (opts.growth_factor < 1)
    throw std::invalid_argument("dynamic_error_test: growth_factor < 1");

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
  Time level = opts.initial_level;

  // The revision loops below only read wcet / effective deadline /
  // period — stream them from flat columns instead of re-indexing the
  // 80-byte Task structs every iteration (ROADMAP: "SoA the
  // accumulator tests"). The accumulator keeps the TaskSet for its
  // refresh stages (cold path) and the approximated flags.
  const TaskColumns cols(ts);
  TestList list;
  std::vector<std::size_t> approx_members;  // tasks currently approximated
  for (std::size_t i = 0; i < ts.size(); ++i) {
    list.add(i, cols.deadline[i]);
  }

  DemandAccumulator acc(ts);
  Time iold = 0;
  BorderRecorder rec(borders, ts.size(), imax,
                     uc == UtilizationClass::BelowOne);

  // One testlist entry per iteration (paper Fig. 5): pop (tau, Iact),
  // account the job, then fix up the level until the demand fits. A
  // certifying walk goes on past the bound to the drain
  // (core/borders.hpp).
  while (!list.empty()) {
    if (!rec.past_bound() && list.peek().interval > imax) {
      r.final_level = level;
      if (!rec.walk_past_bound(r)) break;
    }
    if (opts.stop != nullptr && opts.stop->load(std::memory_order_relaxed)) {
      if (rec.past_bound()) return rec.at_bound();
      r.verdict = Verdict::Unknown;
      r.cancelled = true;
      r.final_level = level;
      return r;
    }
    if (rec.step()) {
      r.final_level = level;
      return rec.capped(r);
    }
    const auto entry = list.pop();
    const Time point = entry.interval;
    acc.advance(point - iold);
    acc.add_job(cols.wcet[entry.task]);
    ++r.iterations;
    r.max_interval_tested = point;

    // Inner loop: raise the level until the demand fits or nothing is
    // approximated any more.
    while (true) {
      bool cmp_degraded = false;
      const Ordering cmp = acc.compare_with_refresh(point, &cmp_degraded);
      r.degraded = r.degraded || cmp_degraded;
      if (cmp != Ordering::Greater) break;

      if (approx_members.empty()) {
        if (rec.past_bound()) return rec.at_bound();  // never certify
        if (cmp_degraded) {
          // Defensive: with nothing approximated the value is an exact
          // integer sum, so this branch should be unreachable.
          r.verdict = Verdict::Unknown;
          return r;
        }
        r.verdict = Verdict::Infeasible;  // exact dbf(point) > point
        r.witness = point;
        r.final_level = level;
        return r;
      }

      // Grow the level until at least one approximated task's new border
      // moves beyond `point` (bounded: borders grow without limit).
      std::vector<std::size_t> revised;
      while (revised.empty()) {
        level = grown(level, opts.growth_factor);
        if (opts.max_level != 0 && level > opts.max_level) {
          if (rec.past_bound()) return rec.at_bound();
          r.verdict = Verdict::Unknown;  // cap hit: sufficient-mode reject
          r.final_level = level;
          return r;
        }
        for (const std::size_t ti : approx_members) {
          if (row_approx_border(cols, ti, level) > point) {
            revised.push_back(ti);
          }
        }
      }
      for (const std::size_t ti : revised) {
        if (rec.step()) {
          r.final_level = level;
          return rec.capped(r);
        }
        acc.revise(ti, point);
        ++r.revisions;
        const Time nxt = row_next_deadline_after(cols, ti, point);
        if (!is_time_infinite(nxt)) list.add(ti, nxt);
      }
      approx_members.erase(
          std::remove_if(
              approx_members.begin(), approx_members.end(),
              [&](std::size_t ti) { return !acc.approximated(ti); }),
          approx_members.end());
    }

    // Post-step (paper: "IF Iact < Testboarder(tau)"): keep testing the
    // popped task exactly below its border, approximate at/after it.
    {
      const std::size_t ti = entry.task;
      if (point < row_approx_border(cols, ti, level)) {
        const Time nxt = row_next_deadline_after(cols, ti, point);
        if (!is_time_infinite(nxt)) {
          list.add(ti, nxt);
        } else {
          // A one-shot task has no job after `point`: its exact dbf
          // equals its envelope from here on, so `point` is its border.
          rec.record(ti, point);
        }
      } else {
        acc.approximate(ti);
        approx_members.push_back(ti);
        rec.record(ti, point);
      }
    }
    iold = point;
  }

  // Either every task is approximated and all change points passed, or
  // the walk crossed the feasibility bound: feasible both ways.
  r.final_level = level;
  return rec.drained(r);
}

}  // namespace edfkit
