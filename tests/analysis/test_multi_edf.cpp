/// \file test_multi_edf.cpp
/// The multiprocessor acceptance suite: every global-EDF sufficient test
/// cross-validated against the m-processor simulation oracle, global
/// admission on the cases partitioned placement decides the other way,
/// and mutation fuzzing of MultiprocessorCertificates.
///
/// Soundness direction: a sufficient test answering Feasible on a set
/// the oracle refutes (a miss under the synchronous-periodic arrival
/// pattern, which is a legal sporadic arrival sequence) is a
/// contradiction — the fuzz loop asserts it never happens. The reverse
/// direction is NOT asserted for the window tests: they are sufficient
/// only, and Unknown against an oracle-feasible set is expected.
#include "analysis/multi/global_tests.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "../helpers.hpp"
#include "multi_reference.hpp"
#include "admission/controller.hpp"
#include "query/certificate.hpp"
#include "query/query.hpp"
#include "sim/oracle.hpp"
#include "util/random.hpp"

namespace edfkit {
namespace {

using testing::fuzz_multiplier;
using testing::set_of;
using testing::small_random_sets;
using testing::tk;
using testing::write_fuzz_artifact;

// ---------------------------------------------------------------------------
// Hand fixtures per ladder rung.
// ---------------------------------------------------------------------------

TEST(GlobalLadder, GfbAcceptsLowDensitySets) {
  // delta_sum = 1.8 <= m - (m-1) * delta_max = 4 - 3 * 0.6 = 2.2.
  const TaskSet ts = set_of({tk(6, 10, 10), tk(6, 10, 10), tk(6, 10, 10)});
  const Platform p{4};
  EXPECT_TRUE(multi::gfb_density_test(ts, p).feasible());
}

TEST(GlobalLadder, GfbRefutesOverUtilization) {
  // U = 3.0 > m = 2: unconditionally infeasible for any work-conserving
  // scheduler on 2 processors.
  const TaskSet ts =
      set_of({tk(10, 10, 10), tk(10, 10, 10), tk(10, 10, 10)});
  EXPECT_TRUE(multi::gfb_density_test(ts, Platform{2}).infeasible());
}

TEST(GlobalLadder, GfbRefutesJobExceedingDeadline) {
  // C > D: a single job can never meet its deadline, m irrelevant.
  const TaskSet ts = set_of({tk(9, 8, 20)});
  EXPECT_TRUE(multi::gfb_density_test(ts, Platform{8}).infeasible());
}

TEST(GlobalLadder, GfbIsUnknownOnDenseButFeasibleSets) {
  // delta_sum = 1.6 > 2 - 1 * 0.8 = 1.2, so GFB cannot decide — yet two
  // tasks on two processors are trivially feasible. GFB must not guess.
  const TaskSet ts = set_of({tk(4, 5, 5), tk(4, 5, 5)});
  const FeasibilityResult r = multi::gfb_density_test(ts, Platform{2});
  EXPECT_FALSE(r.feasible());
  EXPECT_FALSE(r.infeasible());
}

TEST(GlobalLadder, WindowRungsDeclineUnconstrainedOrJittery) {
  // D > T falls outside the window rungs' model: they must answer
  // Unknown rather than apply a formula out of its preconditions.
  const TaskSet unconstrained = set_of({tk(2, 30, 10)});
  EXPECT_FALSE(multi::window_rungs_applicable(unconstrained));
  const Platform p{2};
  for (const FeasibilityResult& r :
       {multi::global_bcl_test(unconstrained, p),
        multi::global_bcl_iterative_test(unconstrained, p),
        multi::global_load_test(unconstrained, p),
        multi::global_rta_test(unconstrained, p)}) {
    EXPECT_FALSE(r.feasible());
    EXPECT_FALSE(r.infeasible());
  }
}

TEST(GlobalLadder, RtaEmitsResponseBoundsWithinDeadlines) {
  const TaskSet ts = set_of({tk(2, 10, 10), tk(3, 10, 10), tk(4, 20, 20)});
  std::vector<Time> bounds;
  const FeasibilityResult r =
      multi::global_rta_test(ts, Platform{2}, {}, &bounds);
  ASSERT_TRUE(r.feasible());
  ASSERT_EQ(bounds.size(), ts.size());
  for (std::size_t i = 0; i < ts.size(); ++i) {
    EXPECT_GE(bounds[i], ts[i].wcet);
    EXPECT_LE(bounds[i], ts[i].effective_deadline());
  }
}

TEST(GlobalLadder, LoadCarryInSumSaturates) {
  // Five carry-ins near kTimeInfinity on m = 8: their sum CS leaves the
  // Time range. It saturates (a wrapped, negative CS would shrink the
  // left side toward a false accept), and gbl-load answers Unknown.
  std::vector<Task> tasks;
  for (Time i = 0; i < 5; ++i) {
    tasks.push_back(
        tk(kTimeInfinity - 30, kTimeInfinity - 10 - i, kTimeInfinity));
  }
  const FeasibilityResult r =
      multi::global_load_test(TaskSet(tasks), Platform{8});
  EXPECT_EQ(r.verdict, Verdict::Unknown);
}

TEST(GlobalLadder, SimRefutesDhallEffectSet) {
  // Two light tasks occupy both processors for 1 tick every 5; the
  // heavy task gets at most 24 of the 25 ticks it needs by t = 30.
  const TaskSet ts = set_of({tk(1, 5, 5), tk(1, 5, 5), tk(25, 30, 30)});
  EXPECT_TRUE(simulate_global_feasibility(ts, 2).infeasible());
  // The same set on 3 processors leaves a processor free for the heavy
  // task throughout: feasible.
  EXPECT_TRUE(simulate_global_feasibility(ts, 3).feasible());
}

// ---------------------------------------------------------------------------
// Oracle cross-validation fuzz: no sufficient test accepts a set the
// m-processor simulation refutes.
// ---------------------------------------------------------------------------

TEST(GlobalOracleFuzz, NoSufficientTestContradictsTheSimulation) {
  const std::size_t mult = fuzz_multiplier();
  std::size_t decided = 0;
  for (const std::uint32_t m : {2u, 3u, 4u}) {
    // Scale utilization with m so the fuzz straddles the boundary:
    // some sets saturate the platform, some leave headroom.
    for (const double u_per_proc : {0.35, 0.6, 0.85}) {
      const double u = u_per_proc * static_cast<double>(m);
      const std::size_t count = 10 * mult;
      const unsigned seed = 1000u * m + static_cast<unsigned>(u * 100);
      for (const TaskSet& ts : small_random_sets(count, u, seed)) {
        if (ts.empty()) continue;
        const Platform p{m};
        const FeasibilityResult oracle = simulate_global_feasibility(ts, m);
        struct Rung {
          const char* name;
          FeasibilityResult r;
        };
        const Rung rungs[] = {
            {"gfb", multi::gfb_density_test(ts, p)},
            {"gbl-bcl", multi::global_bcl_test(ts, p)},
            {"gbl-bcl-iter", multi::global_bcl_iterative_test(ts, p)},
            {"gbl-load", multi::global_load_test(ts, p)},
            {"gbl-rta", multi::global_rta_test(ts, p)},
        };
        for (const Rung& rung : rungs) {
          if (rung.r.feasible()) ++decided;
          if (rung.r.feasible() && oracle.infeasible()) {
            write_fuzz_artifact("multi_oracle_contradiction", ts.to_string());
            FAIL() << rung.name << " accepted on m=" << m
                   << " but the simulation missed a deadline:\n"
                   << ts.to_string();
          }
        }
      }
    }
  }
  // The family must actually exercise accepting rungs to mean anything.
  EXPECT_GT(decided, 0u);
}

// ---------------------------------------------------------------------------
// Global admission against partitioned placement: the two are
// incomparable — each admits a workload the other rejects.
// ---------------------------------------------------------------------------

TEST(GlobalAdmission, GlobalAdmitsWhatFragmentedPartitionsReject) {
  // Churn fragmentation: two heavy tasks fill two processors, a light
  // task lands beside each; removing the heavies strands 0.1
  // utilization on each. A re-arriving {heavy, light, light} group
  // (U = 1.2) fits on no single processor of a partitioned placement —
  // but the global view of the same two processors schedules it:
  // lights run [0, 2) on both processors, the heavy takes the remaining
  // 18 ticks of its window.
  const Task heavy = tk(18, 20, 20);
  const Task light = tk(2, 20, 20);

  AdmissionOptions ao;
  ao.platform = Platform{2};
  ao.return_certificate = true;
  AdmissionController global(ao);
  const AdmissionDecision gh1 = global.try_admit(heavy);
  const AdmissionDecision gh2 = global.try_admit(heavy);
  ASSERT_TRUE(gh1.admitted);
  ASSERT_TRUE(gh2.admitted);
  ASSERT_TRUE(global.try_admit(light).admitted);
  ASSERT_TRUE(global.try_admit(light).admitted);
  ASSERT_TRUE(global.remove(gh1.id));
  ASSERT_TRUE(global.remove(gh2.id));

  const std::vector<Task> group = {heavy, light, light};
  const GroupDecision gd = global.admit_group(group);
  EXPECT_TRUE(gd.admitted);
  // Every global-mode accept carries a verifying certificate.
  ASSERT_TRUE(gd.certificate.present());
  EXPECT_TRUE(gd.certificate.multiprocessor());
  EXPECT_EQ(gd.certificate.processors, 2u);
  const CertificateCheck check = verify(global.resident(), gd.certificate);
  EXPECT_TRUE(check.valid) << check.reason;
}

TEST(GlobalAdmission, PartitionedAdmitsWhatGlobalRejects) {
  // The Dhall effect: under global EDF the two light tasks preempt both
  // processors together, starving the heavy task (24 < 25 by t = 30).
  // Partitioned placement would isolate the heavy task on a processor
  // of its own (U = 5/6 there, 2/5 on the other).
  const Task light = tk(1, 5, 5);
  const Task heavy = tk(25, 30, 30);

  AdmissionOptions ao;
  ao.platform = Platform{2};
  ao.return_certificate = true;
  AdmissionController global(ao);
  ASSERT_TRUE(global.try_admit(light).admitted);
  ASSERT_TRUE(global.try_admit(light).admitted);
  const AdmissionDecision rejected = global.try_admit(heavy);
  EXPECT_FALSE(rejected.admitted);
  // A proven (simulation-refuted) reject also carries its certificate.
  if (rejected.certificate.present()) {
    EXPECT_TRUE(rejected.certificate.multiprocessor());
  }
  EXPECT_EQ(global.resident().size(), 2u);  // rollback left the set intact
}

TEST(GlobalAdmission, ResidentRecheckRunsThePlatformsOwnLadder) {
  // Three tasks of density 0.6 on four processors: GFB admits them all,
  // and U = 1.8 > 1 makes the uniprocessor exact test refute the same
  // healthy set. The re-check the server drain and edfkit_fsck run must
  // judge it on its own platform.
  AdmissionOptions ao;
  ao.platform = Platform{4};
  AdmissionController global(ao);
  EXPECT_TRUE(global.recheck_resident().feasible());  // empty
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(global.try_admit(tk(6, 10, 10)).admitted);
  }
  EXPECT_TRUE(global.analyze_resident(TestKind::ProcessorDemand).infeasible());
  EXPECT_TRUE(global.recheck_resident().feasible());

  // One processor keeps the exact processor-demand re-check.
  AdmissionController uni{AdmissionOptions{}};
  ASSERT_TRUE(uni.try_admit(tk(6, 10, 10)).admitted);
  EXPECT_FALSE(uni.try_admit(tk(6, 10, 10)).admitted);
  const FeasibilityResult r = uni.recheck_resident();
  const FeasibilityResult exact =
      uni.analyze_resident(TestKind::ProcessorDemand);
  EXPECT_TRUE(r.feasible());
  EXPECT_EQ(r.iterations, exact.iterations);
}

// ---------------------------------------------------------------------------
// Incremental GFB: the O(1) accept from IncrementalDemand's maintained
// density bounds must never accept what gfb_density_test refuses, and
// the controller must report exactly the from-scratch gfb outcome.
// ---------------------------------------------------------------------------

/// The predicate over a store holding `tasks`, and the from-scratch test.
bool bounds_accept(const std::vector<Task>& tasks, std::uint32_t m) {
  IncrementalDemand d;
  for (const Task& t : tasks) (void)d.add(t);
  return multi::gfb_bounds_accept(d.density_bounds(), m);
}
bool gfb_feasible(const std::vector<Task>& tasks, std::uint32_t m) {
  return multi::gfb_density_test(TaskSet(tasks), Platform{m}).feasible();
}

TEST(IncrementalGfb, ExactBoundaryAbstainsButTheControllerStillAdmits) {
  // m = 2, delta = 2/3 twice: sum + (m-1)*max = 4/3 + 2/3 == m exactly.
  // GFB accepts (<=); rounded-up bounds less a margin cannot prove a
  // tie, so the predicate abstains and the controller admits through
  // the from-scratch sweep. The first arrival (L = 4/3) takes the O(1)
  // path; both report the same outcome.
  const std::vector<Task> pair = {tk(2, 3, 3), tk(2, 3, 3)};
  EXPECT_FALSE(bounds_accept(pair, 2));
  EXPECT_TRUE(gfb_feasible(pair, 2));

  AdmissionOptions ao;
  ao.platform = Platform{2};
  ao.return_certificate = true;
  AdmissionController ctl(ao);
  for (std::size_t i = 0; i < pair.size(); ++i) {
    const AdmissionDecision d = ctl.try_admit(pair[i]);
    ASSERT_TRUE(d.admitted) << "arrival " << i;
    EXPECT_EQ(d.rung, AdmissionRung::Utilization);
    EXPECT_EQ(d.analysis.verdict, Verdict::Feasible);
    EXPECT_EQ(d.analysis.iterations, i + 1);
    EXPECT_EQ(d.certificate.kind, CertificateKind::MultiFeasibleDensity);
    EXPECT_TRUE(verify(ctl.resident(), d.certificate).valid);
  }
  EXPECT_TRUE(ctl.verify_consistency());
}

TEST(IncrementalGfb, MarginBoundaryIsExact) {
  // m = 2, two tasks of delta = (2^30 - 1)/(3 * 2^29): S*delta is an
  // integer and sum.hi + max.hi lands exactly on m*S - m*S*2^-30, the
  // largest value the predicate accepts.
  const Time c = (Time{1} << 30) - 1;
  const Time d = 3 * (Time{1} << 29);
  const std::vector<Task> at_margin = {tk(c, d, d), tk(c, d, d)};
  EXPECT_TRUE(bounds_accept(at_margin, 2));
  EXPECT_TRUE(gfb_feasible(at_margin, 2));
  // One tick shorter deadline and period: still inside GFB (L < 2),
  // but within the margin, so the predicate abstains.
  const std::vector<Task> inside_margin = {tk(c, d - 1, d - 1),
                                           tk(c, d - 1, d - 1)};
  EXPECT_FALSE(bounds_accept(inside_margin, 2));
  EXPECT_TRUE(gfb_feasible(inside_margin, 2));
}

TEST(IncrementalGfb, SetsJustInsideTheBoundAccept) {
  // L = 3 * (2e6 - 1)/3e6 = 2 - 1e-6 on m = 2; and a mixed set on m = 4.
  const std::vector<Task> near = {tk(1'999'999, 3'000'000, 3'000'000),
                                  tk(1'999'999, 3'000'000, 3'000'000)};
  EXPECT_TRUE(bounds_accept(near, 2));
  EXPECT_TRUE(gfb_feasible(near, 2));
  // 1.8 + 3 * 0.6 = 3.6 <= 4, with a one-shot (delta = C/D) and an
  // unconstrained deadline (delta = C/T) among them.
  const Task one_shot = tk(3, 10, kTimeInfinity);
  const std::vector<Task> mixed = {tk(6, 10, 10), tk(3, 40, 10), one_shot,
                                   tk(3, 5, 20)};
  EXPECT_TRUE(bounds_accept(mixed, 4));
  EXPECT_TRUE(gfb_feasible(mixed, 4));

  AdmissionOptions ao;
  ao.platform = Platform{4};
  AdmissionController ctl(ao);
  const GroupDecision g = ctl.admit_group(mixed);
  ASSERT_TRUE(g.admitted);
  EXPECT_EQ(g.rung, AdmissionRung::Utilization);
  EXPECT_EQ(g.analysis.iterations, mixed.size());
}

TEST(IncrementalGfb, IneligibleResidentsMakeThePredicateAbstain) {
  Task jittered = tk(1, 100, 100);
  jittered.jitter = 5;
  const Task c_above_d = tk(5, 4, 10);  // C > D
  const Task c_above_t = tk(5, 20, 4);  // C > T (D > T): delta > 1
  for (const Task& bad : {jittered, c_above_d, c_above_t}) {
    const std::vector<Task> set = {tk(1, 100, 100), bad};
    EXPECT_FALSE(bounds_accept(set, 8)) << bad.to_string();
    EXPECT_FALSE(gfb_feasible(set, 8)) << bad.to_string();

    // The count is exact-inverse: once the ineligible task departs, the
    // light remainder is accepted again.
    IncrementalDemand d;
    (void)d.add(tk(1, 100, 100));
    const TaskId id = d.add(bad);
    EXPECT_EQ(d.density_bounds().ineligible, 1u);
    d.rebuild();  // re-derives the same aggregate from the rows
    EXPECT_EQ(d.density_bounds().ineligible, 1u);
    EXPECT_TRUE(d.matches_rebuild());
    ASSERT_TRUE(d.remove(id));
    EXPECT_EQ(d.density_bounds().ineligible, 0u);
    EXPECT_TRUE(multi::gfb_bounds_accept(d.density_bounds(), 8));
    EXPECT_TRUE(d.matches_rebuild());
  }
}

TEST(IncrementalGfb, ChurnDecisionsMatchTheFromScratchTest) {
  // Random churn around the GFB boundary, with groups, ineligible
  // arrivals, and departures of the max-density resident (forcing the
  // stale-max rescan). For every decision: it settles as a GFB accept
  // iff the from-scratch test accepts the widened set, and then
  // reports iterations == |widened|.
  const std::uint64_t mult = fuzz_multiplier();
  std::size_t gfb_accepts = 0;
  std::size_t max_departures = 0;
  for (const std::uint32_t m : {2u, 4u, 8u}) {
    Rng rng(4242 + m);
    AdmissionOptions ao;
    ao.platform = Platform{m};
    ao.skip_exact = true;  // the Exact rungs cannot change the claim
    AdmissionController ctl(ao);
    std::vector<std::vector<TaskId>> live;
    const auto draw = [&] {
      const Time period = rng.uniform_time(10, 2000);
      const double delta = rng.uniform(0.02, 0.45);
      Time span = period;
      if (rng.bernoulli(0.3)) span = rng.uniform_time(period / 2, period);
      Task t = tk(std::max<Time>(1, static_cast<Time>(delta * span)),
                  span, period);
      if (rng.bernoulli(0.1)) t.deadline = period + rng.uniform_time(1, 50);
      if (rng.bernoulli(0.03)) t.jitter = rng.uniform_time(0, span - 1);
      if (rng.bernoulli(0.02)) {
        t.wcet = std::min(t.deadline, t.period) + 1;  // ineligible
      }
      return t;
    };
    const std::size_t events = 400 * mult;
    for (std::size_t e = 0; e < events; ++e) {
      const bool depart =
          !live.empty() && rng.bernoulli(live.size() > 4 * m ? 0.6 : 0.3);
      if (depart) {
        std::size_t victim = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<int>(live.size()) - 1));
        if (rng.bernoulli(0.3)) {
          // The resident group holding the largest eligible density.
          Int128 best = -1;
          for (std::size_t k = 0; k < live.size(); ++k) {
            for (const TaskId id : live[k]) {
              const Task* t = ctl.find(id);
              if (t == nullptr || !multi::gfb_eligible(*t)) continue;
              const Int128 hi = multi::density_pair(*t).hi;
              if (hi > best) {
                best = hi;
                victim = k;
              }
            }
          }
          ++max_departures;
        }
        EXPECT_EQ(ctl.remove_group(live[victim]), live[victim].size());
        live[victim] = live.back();
        live.pop_back();
      } else {
        std::vector<Task> offer{draw()};
        if (rng.bernoulli(0.2)) {
          const int extra = rng.uniform_int(1, 4);
          for (int i = 0; i < extra; ++i) offer.push_back(draw());
        }
        std::vector<Task> widened(ctl.resident().begin(),
                                  ctl.resident().end());
        widened.insert(widened.end(), offer.begin(), offer.end());
        const bool expected = gfb_feasible(widened, m);
        GroupDecision d;
        if (offer.size() == 1) {
          const AdmissionDecision a = ctl.try_admit(offer.front());
          d.admitted = a.admitted;
          d.rung = a.rung;
          d.analysis = a.analysis;
          if (a.admitted) d.ids = {a.id};
        } else {
          d = ctl.admit_group(offer);
        }
        const bool gfb_accept =
            d.admitted && d.rung == AdmissionRung::Utilization;
        ASSERT_EQ(gfb_accept, expected)
            << "m=" << m << " event " << e << " n=" << widened.size();
        if (gfb_accept) {
          ++gfb_accepts;
          EXPECT_EQ(d.analysis.iterations, widened.size());
          EXPECT_EQ(d.analysis.verdict, Verdict::Feasible);
        }
        if (d.admitted) live.push_back(d.ids);
      }
      if (e % 50 == 0) {
        ASSERT_TRUE(ctl.verify_consistency()) << "event " << e;
      }
    }
    EXPECT_TRUE(ctl.verify_consistency());
  }
  EXPECT_GT(gfb_accepts, 0u);
  EXPECT_GT(max_departures, 0u);
}

// ---------------------------------------------------------------------------
// Deadline split: gbl-bcl, gbl-bcl-iter and gbl-rta settle task checks
// from certified floors and compute exact window terms only where those
// cannot. Every FeasibilityResult field and every RTA response bound
// must match the pre-split reference kernels (multi_reference.hpp);
// gfb and gbl-load, whose exact-rational sums now stop at the first
// overflow, are held to theirs too.
// ---------------------------------------------------------------------------

namespace ref = testing::reference;

/// "" when the two results agree field for field, else the first field
/// that differs.
std::string result_diff(const FeasibilityResult& got,
                        const FeasibilityResult& want) {
  std::ostringstream os;
  if (got.verdict != want.verdict) {
    os << "verdict " << to_string(got.verdict) << " vs "
       << to_string(want.verdict);
  } else if (got.iterations != want.iterations) {
    os << "iterations " << got.iterations << " vs " << want.iterations;
  } else if (got.revisions != want.revisions) {
    os << "revisions " << got.revisions << " vs " << want.revisions;
  } else if (got.witness != want.witness) {
    os << "witness " << got.witness << " vs " << want.witness;
  } else if (got.max_interval_tested != want.max_interval_tested) {
    os << "max_interval_tested " << got.max_interval_tested << " vs "
       << want.max_interval_tested;
  } else if (got.degraded != want.degraded) {
    os << "degraded " << got.degraded << " vs " << want.degraded;
  }
  return os.str();
}

/// Outcome of one differential run of the five column kernels.
struct KernelDiff {
  std::string mismatch;        ///< "" when every kernel matched
  bool rta_feasible = false;
  bool window_check_passed = false;  ///< gbl-bcl got past its first check
};

KernelDiff diff_kernels(const std::vector<Task>& tasks, std::uint32_t m,
                        const multi::GlobalTestConfig& cfg = {}) {
  const TaskColumns c{std::span<const Task>(tasks)};
  const ref::Config rcfg{cfg.max_rounds, cfg.max_rta_iterations,
                         cfg.max_load_points};
  std::vector<Time> got_bounds;
  std::vector<Time> want_bounds;
  struct Pair {
    const char* name;
    FeasibilityResult got;
    FeasibilityResult want;
  };
  const Pair pairs[] = {
      {"gfb", multi::gfb_density_test(c, m), ref::gfb_density_test(c, m)},
      {"gbl-bcl", multi::global_bcl_test(c, m), ref::global_bcl_test(c, m)},
      {"gbl-bcl-iter", multi::global_bcl_iterative_test(c, m, cfg),
       ref::global_bcl_iterative_test(c, m, rcfg)},
      {"gbl-load", multi::global_load_test(c, m, cfg),
       ref::global_load_test(c, m, rcfg)},
      {"gbl-rta", multi::global_rta_test(c, m, cfg, &got_bounds),
       ref::global_rta_test(c, m, rcfg, &want_bounds)},
  };
  KernelDiff out;
  for (const Pair& p : pairs) {
    const std::string d = result_diff(p.got, p.want);
    if (!d.empty()) {
      out.mismatch = std::string(p.name) + ": " + d;
      return out;
    }
  }
  if (got_bounds != want_bounds) out.mismatch = "gbl-rta: response bounds";
  out.rta_feasible = pairs[4].got.feasible();
  out.window_check_passed = pairs[1].got.iterations > c.size();
  return out;
}

/// Reports a mismatch with its set, and drops the set as a fuzz artifact.
void expect_match(const KernelDiff& d, const std::vector<Task>& tasks,
                  std::uint32_t m, const char* artifact) {
  if (d.mismatch.empty()) return;
  const std::string set = "m=" + std::to_string(m) + "\n" +
                          TaskSet(tasks).to_string();
  write_fuzz_artifact(artifact, set);
  ADD_FAILURE() << d.mismatch << "\n" << set;
}

/// A random constrained-deadline set: n tasks, total utilization about
/// `u`, periods in [t_lo, t_hi], with deadline ties, C = 1, C = D and
/// one-shot rows mixed in.
std::vector<Task> constrained_set(Rng& rng, std::size_t n, double u,
                                  Time t_lo, Time t_hi) {
  std::vector<double> weight(n);
  double total = 0.0;
  for (double& w : weight) total += (w = rng.uniform(0.05, 1.0));
  const Time tied_deadline = rng.uniform_time(t_lo, t_hi);
  std::vector<Task> out;
  for (std::size_t i = 0; i < n; ++i) {
    const Time t = rng.uniform_time(t_lo, t_hi);
    Time d = rng.uniform_time(std::max<Time>(1, t / 2), t);
    if (rng.bernoulli(0.15)) d = std::min(t, tied_deadline);
    const double share = std::min(1.0, u * weight[i] / total);
    Time c = std::clamp<Time>(
        static_cast<Time>(share * static_cast<double>(t)), 1, d);
    if (rng.bernoulli(0.05)) c = 1;
    if (rng.bernoulli(0.03)) c = d;
    Task task = tk(c, d, t);
    if (rng.bernoulli(0.03)) task.period = kTimeInfinity;  // one-shot
    out.push_back(task);
  }
  return out;
}

TEST(DeadlineSplit, FloorLemmasHoldForEverySlackTheIterationCanWrite) {
  // Far lemma: against a task with a shorter deadline, row i's term is
  // exactly window_far_term under any slack. Near lemma: against a task
  // whose deadline is not shorter, it is at least window_near_floor for
  // every slack 0 <= s_i <= D_i - C_i (what BCL-iter and RTA write).
  Rng rng(1807);
  std::size_t far = 0;
  std::size_t near = 0;
  const std::size_t sets = 60 * fuzz_multiplier();
  for (std::size_t round = 0; round < sets; ++round) {
    const bool short_periods = rng.bernoulli(0.5);
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(2, 40));
    std::vector<Task> tasks =
        short_periods ? constrained_set(rng, n, 2.0, 2, 60)
                      : constrained_set(rng, n, 4.0, 10'000, 1'000'000);
    if (round % 10 == 0) {
      tasks.push_back(tk(kTimeInfinity - 5, kTimeInfinity - 2, kTimeInfinity));
    }
    const TaskColumns c{std::span<const Task>(tasks)};
    for (int trial = 0; trial < 4; ++trial) {
      std::vector<Time> s(c.size());
      for (std::size_t i = 0; i < c.size(); ++i) {
        const Time most = c.deadline[i] - c.wcet[i];
        s[i] = trial == 0 ? 0
               : trial == 1 ? most
                            : rng.uniform_time(0, most);
      }
      for (std::size_t k = 0; k < c.size(); ++k) {
        for (std::size_t i = 0; i < c.size(); ++i) {
          if (i == k) continue;
          const Time w = ref::window_term(c, i, c.deadline[k], s[i]);
          if (c.deadline[i] > c.deadline[k]) {
            ++far;
            ASSERT_EQ(w, multi::window_far_term(c, i))
                << "row " << i << " against " << k;
          } else {
            ++near;
            ASSERT_GE(w, multi::window_near_floor(c, i))
                << "row " << i << " against " << k << " slack " << s[i];
          }
        }
      }
    }
  }
  EXPECT_GT(far, 0u);
  EXPECT_GT(near, 0u);
}

TEST(DeadlineSplit, ColumnKernelsMatchTheReferenceOnRandomSets) {
  Rng rng(20261018);
  const std::size_t sets = 1000 * fuzz_multiplier();
  std::size_t rta_feasible = 0;
  std::size_t window_passes = 0;
  for (std::size_t round = 0; round < sets; ++round) {
    const auto m = static_cast<std::uint32_t>(rng.uniform_int(2, 8));
    // Mostly small sets, one in ten up to 300 tasks.
    const std::size_t n = static_cast<std::size_t>(
        round % 10 == 0 ? rng.uniform_int(40, 300) : rng.uniform_int(2, 40));
    // Per-processor load from light (round 1 passes most checks) to
    // saturated; period ranges short, long and mixed.
    const double u = rng.uniform(0.05, 1.0) * static_cast<double>(m);
    std::vector<Task> tasks;
    switch (round % 3) {
      case 0: tasks = constrained_set(rng, n, u, 2, 60); break;
      case 1: tasks = constrained_set(rng, n, u, 10'000, 1'000'000); break;
      default: tasks = constrained_set(rng, n, u, 5, 100'000); break;
    }
    // A tight round cap now and then exercises the caps' exits.
    multi::GlobalTestConfig cfg;
    if (round % 7 == 0) {
      cfg.max_rounds = 1 + round % 3;
      cfg.max_rta_iterations = 2 + static_cast<unsigned>(round % 5);
    }
    const KernelDiff d = diff_kernels(tasks, m, cfg);
    expect_match(d, tasks, m, "deadline_split_random");
    if (!d.mismatch.empty()) return;
    rta_feasible += d.rta_feasible;
    window_passes += d.window_check_passed;
  }
  // The family must reach both the accepting and the rejecting paths.
  EXPECT_GT(rta_feasible, 0u);
  EXPECT_GT(window_passes, 0u);
}

TEST(DeadlineSplit, ColumnKernelsMatchTheReferenceOnEdgeCases) {
  const Time inf = kTimeInfinity;
  const Time big = inf - 10;  // largest valid deadlines
  const std::vector<std::vector<Task>> cases = {
      // Deadline ties everywhere, and C = 1 rows.
      {tk(1, 10, 10), tk(1, 10, 20), tk(3, 10, 10), tk(2, 10, 15)},
      {tk(1, 7, 7), tk(1, 7, 7), tk(1, 7, 7), tk(1, 7, 7), tk(1, 7, 7)},
      // C = D rows (no slack to prove).
      {tk(5, 5, 10), tk(5, 5, 10), tk(1, 20, 20), tk(2, 9, 30)},
      {tk(10, 10, 10), tk(1, 3, 3)},
      // One-shot rows, one with a period of 2^62 (past kTimeInfinity).
      {tk(3, 10, inf), tk(4, 12, inf), tk(2, 8, 8), tk(1, 30, 40)},
      {tk(1, 1, inf), tk(1, 2, inf), tk(1, 3, Time{1} << 62)},
      // Values at the top of the Time range (three tasks at most: the
      // reference sums wrap beyond that).
      {tk(big / 2, big, inf), tk(big / 3, big - 1, inf)},
      {tk(1, big, big), tk(big - 1, big, inf), tk(7, big - 3, big)},
      {tk(big / 4, big / 2, big), tk(big / 8, big / 4, big / 2),
       tk(1, 100, 100)},
      // Budget overflow: m * L_k leaves the Time range at the third
      // check, after two passing ones.
      {tk(1, 10, 10), tk(1, 10, 10), tk(5, inf / 2, inf / 2)},
  };
  for (const std::vector<Task>& tasks : cases) {
    for (const std::uint32_t m : {2u, 3u, 4u, 8u}) {
      expect_match(diff_kernels(tasks, m), tasks, m, "deadline_split_edge");
    }
  }
  // The overflow case answers Unknown at the same check with the same
  // iterations as before: two passing checks and the third one.
  const TaskColumns overflow{std::span<const Task>(cases.back())};
  for (const FeasibilityResult& r :
       {multi::global_bcl_test(overflow, 4),
        multi::global_bcl_iterative_test(overflow, 4)}) {
    EXPECT_EQ(r.verdict, Verdict::Unknown);
    EXPECT_EQ(r.iterations, 9u);
  }
}

// ---------------------------------------------------------------------------
// Certificate mutation fuzz: corrupted multiprocessor certificates must
// fail the independent checker.
// ---------------------------------------------------------------------------

TEST(MultiCertificate, MutationsAreRejected) {
  std::size_t mutated_checked = 0;
  AdmissionOptions ao;
  ao.platform = Platform{2};
  ao.return_certificate = true;

  const std::size_t count = 8 * fuzz_multiplier();
  for (const TaskSet& ts : small_random_sets(count, 1.2, /*seed=*/90125)) {
    if (ts.empty()) continue;
    AdmissionController ctl(ao);
    GroupDecision gd = ctl.admit_group(std::vector<Task>(ts.begin(), ts.end()));
    if (!gd.admitted || !gd.certificate.multiprocessor()) continue;
    const TaskSet resident = ctl.resident();
    ASSERT_TRUE(verify(resident, gd.certificate).valid);

    // Mutation 1: claim a narrower platform than the accept was proven
    // on — the recomputation must not hold at the reduced width for a
    // set this dense (skip the rare sets that are feasible on m = 1).
    Certificate narrower = gd.certificate;
    narrower.processors = 1;
    const FeasibilityResult uni = simulate_global_feasibility(ts, 1);
    if (uni.infeasible()) {
      EXPECT_FALSE(verify(resident, narrower).valid)
          << "narrowed platform accepted:\n" << resident.to_string();
    }

    // Mutation 2: a window certificate that names no window test is
    // unverifiable — the checker recomputes the *named* condition and
    // must refuse when there is nothing to recompute.
    Certificate mismatched = gd.certificate;
    mismatched.kind = CertificateKind::MultiFeasibleWindow;
    mismatched.multi_test = MultiTest::None;
    EXPECT_FALSE(verify(resident, mismatched).valid);

    // Mutation 3: transplant onto a heavier set (every wcet = period):
    // utilization exceeds m, nothing feasible can be re-established.
    std::vector<Task> heavier(resident.begin(), resident.end());
    for (Task& t : heavier) t.wcet = 3 * t.period;
    EXPECT_FALSE(verify(TaskSet(heavier), gd.certificate).valid);

    // Mutation 4 (RTA form): shrink a claimed response bound below the
    // recomputed one / inflate past the deadline.
    if (gd.certificate.multi_test == MultiTest::Rta &&
        !gd.certificate.borders.empty()) {
      Certificate inflated = gd.certificate;
      inflated.borders[0] = resident[0].effective_deadline() + 1;
      EXPECT_FALSE(verify(resident, inflated).valid);
    }
    ++mutated_checked;
  }
  EXPECT_GT(mutated_checked, 0u);
}

TEST(MultiCertificate, QueryPlatformOutcomesVerify) {
  // The query-path equivalent of the admission test above: decided
  // multiprocessor outcomes through Query carry verifying certificates.
  std::size_t decided = 0;
  for (const TaskSet& ts : small_random_sets(10, 1.4, /*seed=*/3344)) {
    if (ts.empty()) continue;
    const Outcome out =
        Query::cascade(Platform{2}).run(Workload::periodic(ts));
    if (!out.decided) continue;
    ASSERT_TRUE(out.certificate.present()) << ts.to_string();
    const CertificateCheck check = verify(ts, out.certificate);
    EXPECT_TRUE(check.valid) << check.reason << "\n" << ts.to_string();
    ++decided;
  }
  EXPECT_GT(decided, 0u);
}

}  // namespace
}  // namespace edfkit
