#include "query/certificate.hpp"

#include <limits>
#include <sstream>

#include "analysis/bounds.hpp"
#include "analysis/multi/global_tests.hpp"
#include "analysis/processor_demand.hpp"
#include "analysis/utilization.hpp"
#include "core/all_approx.hpp"
#include "demand/accumulator.hpp"
#include "demand/approx.hpp"
#include "demand/dbf.hpp"
#include "demand/intervals.hpp"
#include "query/registry.hpp"
#include "sim/oracle.hpp"
#include "util/fixedpoint.hpp"
#include "util/rational.hpp"

namespace edfkit {
namespace {

CertificateCheck rejected(std::string reason) {
  CertificateCheck c;
  c.valid = false;
  c.reason = std::move(reason);
  return c;
}

/// U <= 1 provable with exact rationals? (Marginal fixed-point fallbacks
/// are not accepted as certificate evidence — the checker only signs off
/// on claims it can fully re-establish.)
bool utilization_provably_at_most_one(const TaskSet& ts) {
  const UtilizationClass uc = classify_utilization(ts);
  return uc == UtilizationClass::BelowOne ||
         uc == UtilizationClass::ExactlyOne;
}

/// At U == 1 the fully approximated demand is I plus this offset:
/// sum C_i (T_i - D_i) / T_i over periodic tasks plus sum C_i over
/// one-shot tasks (D effective). True when the offset is proven > 0:
/// the all-approximated walk then never drains (core/borders.hpp).
bool approximation_offset_positive(const TaskSet& ts) {
  ScaledPair above;
  ScaledPair below;
  for (const Task& t : ts.tasks()) {
    if (is_time_infinite(t.period)) {
      above += scale_integer(t.wcet);
      continue;
    }
    const Time d = t.effective_deadline();
    if (d <= t.period) {
      above += scale_fraction(static_cast<Int128>(t.wcet) * (t.period - d),
                              static_cast<Int128>(t.period));
    } else {
      below += scale_fraction(static_cast<Int128>(t.wcet) * (d - t.period),
                              static_cast<Int128>(t.period));
    }
  }
  return above.lo > below.hi;
}

/// Border must be an absolute job deadline of `t`: D_eff + k*T (k >= 0),
/// or exactly D_eff for one-shot tasks.
bool border_is_job_deadline(const Task& t, Time border) noexcept {
  const Time d = t.effective_deadline();
  if (border < d || is_time_infinite(border)) return false;
  if (is_time_infinite(t.period)) return border == d;
  return floor_mod(border - d, t.period) == 0;
}

CertificateCheck verify_borders(const TaskSet& ts, const Certificate& c,
                                std::uint64_t max_points) {
  CertificateCheck out;
  if (c.borders.size() != ts.size()) {
    return rejected("border count does not match task count");
  }
  if (!utilization_provably_at_most_one(ts)) {
    return rejected("utilization not provably <= 1");
  }
  for (std::size_t i = 0; i < ts.size(); ++i) {
    if (!border_is_job_deadline(ts[i], c.borders[i])) {
      return rejected("border " + std::to_string(c.borders[i]) +
                      " is not a job deadline of task " + std::to_string(i));
    }
  }

  // Regenerate every job deadline <= its task's border and replay the
  // demand/capacity comparison with exact rationals. Between the points
  // dbf' is piecewise linear with slope <= U <= 1 (Lemmas 1/3/4), so
  // pointwise acceptance here proves dbf(I) <= dbf'(I) <= I everywhere.
  TestList list;
  for (std::size_t i = 0; i < ts.size(); ++i) {
    list.add(i, ts[i].effective_deadline());
  }
  while (!list.empty()) {
    const Time point = list.peek().interval;
    while (!list.empty() && list.peek().interval == point) {
      const auto e = list.pop();
      if (point < c.borders[e.task]) {
        const Time nxt = ts[e.task].next_deadline_after(point);
        if (!is_time_infinite(nxt)) list.add(e.task, nxt);
      }
    }
    if (++out.points_checked > max_points) {
      return rejected("certificate exceeds the verification point cap");
    }
    // Two-stage exact comparison, mirroring the accumulator's strategy:
    // certified 2^-62 fixed-point bounds settle almost every point; only
    // bound-straddling points (equality) pay the exact rationals.
    std::vector<bool> approximated(ts.size());
    for (std::size_t i = 0; i < ts.size(); ++i) {
      approximated[i] = c.borders[i] < point;
    }
    const ScaledDemand scaled =
        recompute_demand_scaled(ts, approximated, point);
    const Int128 cap = static_cast<Int128>(point) * kFixedPointScale;
    if (scaled.hi > cap) {
      if (scaled.lo > cap) {
        return rejected("demand exceeds capacity at I=" +
                        std::to_string(point));
      }
      Rational demand;
      for (std::size_t i = 0; i < ts.size(); ++i) {
        demand += approx_dbf(ts[i], point, c.borders[i]);
      }
      if (!demand.exact()) {
        return rejected("rational arithmetic degraded; unverifiable");
      }
      if (!demand.certainly_le(point)) {
        std::ostringstream os;
        os << "demand " << demand.to_string() << " exceeds capacity at I="
           << point;
        return rejected(os.str());
      }
    }
  }
  out.valid = true;
  return out;
}

CertificateCheck verify_exhaustive(const TaskSet& ts, const Certificate& c,
                                   std::uint64_t max_points) {
  CertificateCheck out;
  if (!utilization_provably_at_most_one(ts)) {
    return rejected("utilization not provably <= 1");
  }
  // The checker trusts only its own horizon: the certificate's bound must
  // cover it (a shrunk/mutated bound is rejected), and the replay runs to
  // the checker's bound.
  const Time horizon = implicit_test_bound(ts);
  if (c.bound < horizon) {
    return rejected("certificate bound " + std::to_string(c.bound) +
                    " is below the sound replay horizon " +
                    std::to_string(horizon));
  }
  TestList list;
  for (std::size_t i = 0; i < ts.size(); ++i) {
    const Time d0 = ts[i].effective_deadline();
    if (d0 <= horizon) list.add(i, d0);
  }
  Time demand = 0;
  while (!list.empty()) {
    const Time point = list.peek().interval;
    while (!list.empty() && list.peek().interval == point) {
      const auto e = list.pop();
      demand = add_saturating(demand, ts[e.task].wcet);
      const Time nxt = ts[e.task].next_deadline_after(point);
      if (nxt <= horizon && !is_time_infinite(nxt)) list.add(e.task, nxt);
    }
    if (++out.points_checked > max_points) {
      return rejected("certificate exceeds the verification point cap");
    }
    if (demand > point) {
      return rejected("exact demand exceeds capacity at I=" +
                      std::to_string(point));
    }
  }
  out.valid = true;
  return out;
}

/// True when some task alone overloads one processor (C_i > D_i): no
/// global schedule, on any m, can finish it — a job never parallelizes.
bool some_job_overloads(const TaskSet& ts) noexcept {
  for (const Task& t : ts.tasks()) {
    if (t.wcet > t.effective_deadline()) return true;
  }
  return false;
}

/// Proof that U > m: exact rationals when they fit, else a certified
/// double *lower* bound (nearest-rounded sum of n nonnegative terms is
/// within (n + 4) * eps of the exact value, so deflating by that still
/// exceeding m is a sound overload proof — realistic tick-resolution
/// periods overflow the exact path routinely).
bool utilization_provably_above(const TaskSet& ts, std::uint32_t m) {
  const Rational u = ts.utilization();
  if (u.exact()) return u.certainly_gt(static_cast<Time>(m));
  double acc = 0.0;
  for (const Task& t : ts.tasks()) {
    if (is_time_infinite(t.period)) continue;
    acc += static_cast<double>(t.wcet) / static_cast<double>(t.period);
  }
  const double slack = (static_cast<double>(ts.size()) + 4.0) *
                       std::numeric_limits<double>::epsilon();
  return acc * (1.0 - slack) > static_cast<double>(m);
}

CertificateCheck verify_multi(const TaskSet& ts, const Certificate& c,
                              std::uint64_t max_points) {
  const Platform p{c.processors};
  if (!platform_valid(p)) return rejected("invalid processor count");
  CertificateCheck out;
  // Deterministic-recomputation budget: each rung's work is bounded by
  // its own caps; count one "point" per task as replay bookkeeping.
  out.points_checked = ts.size();
  (void)max_points;
  switch (c.kind) {
    case CertificateKind::MultiFeasibleDensity: {
      if (multi::gfb_density_test(ts, p).verdict != Verdict::Feasible) {
        return rejected("GFB density condition does not hold");
      }
      out.valid = true;
      return out;
    }
    case CertificateKind::MultiFeasibleWindow: {
      switch (c.multi_test) {
        case MultiTest::Bcl:
          if (multi::global_bcl_test(ts, p).verdict != Verdict::Feasible) {
            return rejected("BCL window condition does not hold");
          }
          break;
        case MultiTest::BclIter:
          if (multi::global_bcl_iterative_test(ts, p).verdict !=
              Verdict::Feasible) {
            return rejected("iterated BCL window condition does not hold");
          }
          break;
        case MultiTest::Load:
          if (multi::global_load_test(ts, p).verdict != Verdict::Feasible) {
            return rejected("load/busy-window condition does not hold");
          }
          break;
        case MultiTest::Rta: {
          std::vector<Time> recomputed;
          if (multi::global_rta_test(ts, p, {}, &recomputed).verdict !=
              Verdict::Feasible) {
            return rejected("global RTA does not converge within deadlines");
          }
          if (c.borders.size() != ts.size()) {
            return rejected("response-bound count does not match task count");
          }
          for (std::size_t i = 0; i < ts.size(); ++i) {
            if (c.borders[i] > ts[i].effective_deadline()) {
              return rejected("claimed response bound exceeds deadline of "
                              "task " + std::to_string(i));
            }
            if (recomputed[i] > c.borders[i]) {
              return rejected("claimed response bound below the recomputed "
                              "bound for task " + std::to_string(i));
            }
          }
          break;
        }
        default:
          return rejected("window certificate names no window test");
      }
      out.valid = true;
      return out;
    }
    case CertificateKind::MultiFeasibleSim: {
      OracleConfig cfg;
      if (c.bound > 0) cfg.max_horizon = c.bound;
      const FeasibilityResult r = simulate_global_feasibility(ts, p.m, cfg);
      if (r.verdict != Verdict::Feasible) {
        return rejected("simulation does not re-establish feasibility");
      }
      out.points_checked += static_cast<std::uint64_t>(r.iterations);
      out.valid = true;
      return out;
    }
    case CertificateKind::MultiInfeasibleOverload: {
      if (!utilization_provably_above(ts, p.m)) {
        return rejected("utilization not provably > m");
      }
      out.valid = true;
      return out;
    }
    case CertificateKind::MultiInfeasibleJob: {
      if (!some_job_overloads(ts)) {
        return rejected("no task has C > D");
      }
      out.valid = true;
      return out;
    }
    case CertificateKind::MultiInfeasibleSim: {
      OracleConfig cfg;
      if (c.bound > 0) cfg.max_horizon = c.bound;
      const FeasibilityResult r = simulate_global_feasibility(ts, p.m, cfg);
      if (r.verdict != Verdict::Infeasible) {
        return rejected("simulation does not reproduce the deadline miss");
      }
      out.points_checked += static_cast<std::uint64_t>(r.iterations);
      out.valid = true;
      return out;
    }
    default: return rejected("not a multiprocessor certificate");
  }
}

}  // namespace

const char* to_string(CertificateKind k) noexcept {
  switch (k) {
    case CertificateKind::None: return "none";
    case CertificateKind::FeasibleBorders: return "feasible-borders";
    case CertificateKind::FeasibleExhaustive: return "feasible-exhaustive";
    case CertificateKind::InfeasibleWitness: return "infeasible-witness";
    case CertificateKind::InfeasibleOverload: return "infeasible-overload";
    case CertificateKind::MultiFeasibleDensity:
      return "multi-feasible-density";
    case CertificateKind::MultiFeasibleWindow: return "multi-feasible-window";
    case CertificateKind::MultiFeasibleSim: return "multi-feasible-sim";
    case CertificateKind::MultiInfeasibleOverload:
      return "multi-infeasible-overload";
    case CertificateKind::MultiInfeasibleJob: return "multi-infeasible-job";
    case CertificateKind::MultiInfeasibleSim: return "multi-infeasible-sim";
  }
  return "?";
}

const char* to_string(MultiTest t) noexcept {
  switch (t) {
    case MultiTest::None: return "none";
    case MultiTest::Gfb: return "gfb";
    case MultiTest::Bcl: return "bcl";
    case MultiTest::BclIter: return "bcl-iter";
    case MultiTest::Load: return "load";
    case MultiTest::Rta: return "rta";
    case MultiTest::Sim: return "sim";
  }
  return "?";
}

std::string Certificate::to_string() const {
  std::ostringstream os;
  os << edfkit::to_string(kind);
  switch (kind) {
    case CertificateKind::InfeasibleWitness: os << "(W=" << witness << ")";
      break;
    case CertificateKind::FeasibleExhaustive: os << "(B=" << bound << ")";
      break;
    case CertificateKind::FeasibleBorders:
      os << "(n=" << borders.size() << ")";
      break;
    case CertificateKind::MultiFeasibleWindow:
      os << "(m=" << processors << ", test=" << edfkit::to_string(multi_test)
         << ")";
      break;
    case CertificateKind::MultiInfeasibleSim:
      os << "(m=" << processors << ", miss=" << witness << ")";
      break;
    case CertificateKind::MultiFeasibleDensity:
    case CertificateKind::MultiFeasibleSim:
    case CertificateKind::MultiInfeasibleOverload:
    case CertificateKind::MultiInfeasibleJob:
      os << "(m=" << processors << ")";
      break;
    default: break;
  }
  return os.str();
}

CertificateCheck verify(const TaskSet& ts, const Certificate& c,
                        std::uint64_t max_points) {
  switch (c.kind) {
    case CertificateKind::None:
      return rejected("no certificate attached");
    case CertificateKind::InfeasibleWitness: {
      CertificateCheck out;
      if (c.witness <= 0) return rejected("witness interval must be > 0");
      out.points_checked = 1;
      if (dbf(ts, c.witness) <= c.witness) {
        return rejected("exact dbf does not exceed the witness interval");
      }
      out.valid = true;
      return out;
    }
    case CertificateKind::InfeasibleOverload: {
      CertificateCheck out;
      out.points_checked = 1;
      if (classify_utilization(ts) != UtilizationClass::AboveOne) {
        return rejected("utilization not provably > 1");
      }
      out.valid = true;
      return out;
    }
    case CertificateKind::FeasibleBorders:
      return verify_borders(ts, c, max_points);
    case CertificateKind::FeasibleExhaustive:
      return verify_exhaustive(ts, c, max_points);
    case CertificateKind::MultiFeasibleDensity:
    case CertificateKind::MultiFeasibleWindow:
    case CertificateKind::MultiFeasibleSim:
    case CertificateKind::MultiInfeasibleOverload:
    case CertificateKind::MultiInfeasibleJob:
    case CertificateKind::MultiInfeasibleSim:
      return verify_multi(ts, c, max_points);
  }
  return rejected("unknown certificate kind");
}

CertificateCheck verify(const Workload& w, const Certificate& c,
                        std::uint64_t max_points) {
  return verify(w.tasks(), c, max_points);
}

Certificate make_infeasibility_certificate(const FeasibilityResult& r) {
  Certificate c;
  if (r.witness >= 0) {
    c.kind = CertificateKind::InfeasibleWitness;
    c.witness = r.witness;
  } else {
    c.kind = CertificateKind::InfeasibleOverload;
  }
  return c;
}

std::optional<Certificate> make_borders_certificate(
    const TaskSet& ts, std::vector<Time> borders) {
  if (!utilization_provably_at_most_one(ts)) return std::nullopt;
  Certificate c;
  c.kind = CertificateKind::FeasibleBorders;
  c.borders = std::move(borders);
  return c;
}

std::optional<Certificate> build_feasibility_certificate(
    const TaskSet& ts, std::uint64_t step_cap) {
  if (ts.empty()) {
    Certificate c;
    c.kind = CertificateKind::FeasibleBorders;
    return c;
  }
  const UtilizationClass uc = classify_utilization(ts);
  if (uc != UtilizationClass::BelowOne && uc != UtilizationClass::ExactlyOne) {
    return std::nullopt;
  }
  const auto exhaustive = [&ts] {
    Certificate c;
    c.kind = CertificateKind::FeasibleExhaustive;
    c.bound = implicit_test_bound(ts);
    return c;
  };

  // A walk that can never drain would only burn the step cap: decide
  // by the exact demand up to the bound the checker replays to, under
  // the same cap. A cap of 0 stays with the walk, which stops at once
  // with the exhaustive form; processor demand reads 0 as no cap.
  if (uc == UtilizationClass::ExactlyOne && step_cap > 0 &&
      approximation_offset_positive(ts)) {
    ProcessorDemandOptions pd;
    pd.bound = implicit_test_bound(ts);
    pd.max_iterations = step_cap;
    if (processor_demand_test(ts, pd).verdict == Verdict::Infeasible) {
      return std::nullopt;
    }
    return exhaustive();
  }

  // The all-approximated walk (paper Fig. 7, FIFO revision) with no
  // bound: it decides only at its drain, so its recorded borders cover
  // every point the checker will regenerate.
  AllApproxOptions opts;
  opts.bound = kTimeInfinity;
  WalkBorders walk;
  walk.step_cap = step_cap;
  const FeasibilityResult r = all_approx_test(ts, opts, &walk);
  if (walk.complete) {
    return make_borders_certificate(ts, std::move(walk.borders));
  }
  // A true overflow: the set is not feasible, never certify.
  if (r.verdict == Verdict::Infeasible) return std::nullopt;
  // Past the step cap (pathological U == 1 hyperperiods) or degraded
  // arithmetic with nothing approximated: the exhaustive replay form.
  return exhaustive();
}

std::optional<Certificate> build_multiprocessor_certificate(
    const TaskSet& ts, const Platform& p, TestKind decided_by,
    const FeasibilityResult& r) {
  if (!platform_valid(p)) return std::nullopt;
  Certificate c;
  c.processors = p.m;

  if (r.verdict == Verdict::Infeasible) {
    // Classify by the strongest independently-checkable refutation, in
    // gate order: a single overlong job, provable over-utilization, then
    // the simulated miss (the sim rung's own evidence).
    if (some_job_overloads(ts)) {
      c.kind = CertificateKind::MultiInfeasibleJob;
      c.witness = r.witness;
      return c;
    }
    if (utilization_provably_above(ts, p.m)) {
      c.kind = CertificateKind::MultiInfeasibleOverload;
      return c;
    }
    if (decided_by == TestKind::GlobalSim) {
      c.kind = CertificateKind::MultiInfeasibleSim;
      c.witness = r.witness;
      c.multi_test = MultiTest::Sim;
      return c;
    }
    return std::nullopt;
  }
  if (r.verdict != Verdict::Feasible) return std::nullopt;

  // Re-derive the accepting condition (with default budgets) instead of
  // trusting the caller's result — an unsound claim must die here, not
  // in the checker.
  switch (decided_by) {
    case TestKind::GfbDensity:
      if (multi::gfb_density_test(ts, p).verdict != Verdict::Feasible) {
        return std::nullopt;
      }
      c.kind = CertificateKind::MultiFeasibleDensity;
      c.multi_test = MultiTest::Gfb;
      return c;
    case TestKind::GlobalBcl:
      if (multi::global_bcl_test(ts, p).verdict != Verdict::Feasible) {
        return std::nullopt;
      }
      c.kind = CertificateKind::MultiFeasibleWindow;
      c.multi_test = MultiTest::Bcl;
      return c;
    case TestKind::GlobalBclIterative:
      if (multi::global_bcl_iterative_test(ts, p).verdict !=
          Verdict::Feasible) {
        return std::nullopt;
      }
      c.kind = CertificateKind::MultiFeasibleWindow;
      c.multi_test = MultiTest::BclIter;
      return c;
    case TestKind::GlobalLoad:
      if (multi::global_load_test(ts, p).verdict != Verdict::Feasible) {
        return std::nullopt;
      }
      c.kind = CertificateKind::MultiFeasibleWindow;
      c.multi_test = MultiTest::Load;
      return c;
    case TestKind::GlobalRta: {
      std::vector<Time> bounds;
      if (multi::global_rta_test(ts, p, {}, &bounds).verdict !=
          Verdict::Feasible) {
        return std::nullopt;
      }
      c.kind = CertificateKind::MultiFeasibleWindow;
      c.multi_test = MultiTest::Rta;
      c.borders = std::move(bounds);
      return c;
    }
    case TestKind::GlobalSim: {
      OracleConfig cfg;
      if (r.max_interval_tested > 0) {
        cfg.max_horizon = r.max_interval_tested;
      }
      if (simulate_global_feasibility(ts, p.m, cfg).verdict !=
          Verdict::Feasible) {
        return std::nullopt;
      }
      c.kind = CertificateKind::MultiFeasibleSim;
      c.multi_test = MultiTest::Sim;
      c.bound = cfg.max_horizon;
      return c;
    }
    default: return std::nullopt;
  }
}

}  // namespace edfkit
