#include "admission/controller.hpp"

#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "admission/replay.hpp"
#include "analysis/processor_demand.hpp"
#include "helpers.hpp"
#include "query/query.hpp"

namespace edfkit {
namespace {

using testing::set_of;
using testing::tk;

TEST(AdmissionController, EmptyAndSingleTask) {
  AdmissionController ctl;
  EXPECT_TRUE(ctl.empty());
  EXPECT_TRUE(ctl.analyze_resident().feasible() || ctl.empty());

  const AdmissionDecision d = ctl.try_admit(tk(2, 10, 20));
  EXPECT_TRUE(d.admitted);
  EXPECT_NE(d.id, kInvalidTaskId);
  EXPECT_EQ(ctl.size(), 1u);
  EXPECT_TRUE(ctl.analyze_resident().feasible());
  EXPECT_TRUE(ctl.verify_consistency());
}

TEST(AdmissionController, RejectsInfeasibleSingleTask) {
  AdmissionController ctl;
  // C > D with C <= T: infeasible although U < 1.
  const AdmissionDecision d = ctl.try_admit(tk(8, 4, 100));
  EXPECT_FALSE(d.admitted);
  EXPECT_EQ(d.analysis.verdict, Verdict::Infeasible);
  EXPECT_TRUE(ctl.empty());  // state restored
  EXPECT_TRUE(ctl.verify_consistency());
}

TEST(AdmissionController, UtilizationBoundaryExactlyOne) {
  AdmissionController ctl;
  // Implicit deadlines: U <= 1 is exact; fill to exactly 1.
  EXPECT_TRUE(ctl.try_admit(tk(1, 2, 2)).admitted);
  EXPECT_TRUE(ctl.try_admit(tk(1, 4, 4)).admitted);
  const AdmissionDecision full = ctl.try_admit(tk(1, 4, 4));  // U == 1
  EXPECT_TRUE(full.admitted);
  // Anything more is provably infeasible (U > 1), settled at rung 1.
  const AdmissionDecision over = ctl.try_admit(tk(1, 1000, 1000));
  EXPECT_FALSE(over.admitted);
  EXPECT_EQ(over.rung, AdmissionRung::Utilization);
  EXPECT_EQ(over.analysis.verdict, Verdict::Infeasible);
  // Departures restore admissibility.
  EXPECT_TRUE(ctl.remove(full.id));
  EXPECT_TRUE(ctl.try_admit(tk(1, 1000, 1000)).admitted);
}

TEST(AdmissionController, SkipExactModeStaysSound) {
  AdmissionOptions opts;
  opts.skip_exact = true;
  AdmissionController ctl(opts);
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    const TaskSet pool = draw_small_set(rng, 0.95);
    for (const Task& t : pool) {
      const AdmissionDecision d = ctl.try_admit(t);
      if (d.admitted) {
        EXPECT_NE(d.rung, AdmissionRung::Exact);
      } else {
        // Rejections without an infeasibility proof report Unknown.
        EXPECT_TRUE(d.analysis.verdict == Verdict::Unknown ||
                    d.analysis.verdict == Verdict::Infeasible);
      }
    }
  }
  // The standing invariant holds regardless of the weaker ladder.
  EXPECT_TRUE(ctl.empty() || ctl.analyze_resident().feasible());
}

TEST(AdmissionController, StatsAreConsistent) {
  AdmissionController ctl;
  Rng rng(17);
  const TaskSet pool = draw_small_set(rng, 0.9);
  std::vector<TaskId> ids;
  for (const Task& t : pool) {
    const AdmissionDecision d = ctl.try_admit(t);
    if (d.admitted) ids.push_back(d.id);
  }
  for (const TaskId id : ids) EXPECT_TRUE(ctl.remove(id));
  const AdmissionStats& s = ctl.stats();
  EXPECT_EQ(s.arrivals, pool.size());
  EXPECT_EQ(s.admitted + s.rejected, s.arrivals);
  EXPECT_EQ(s.removals, ids.size());
  std::uint64_t by_rung = 0;
  for (const std::uint64_t c : s.by_rung) by_rung += c;
  EXPECT_EQ(by_rung, s.arrivals);
  EXPECT_TRUE(ctl.empty());
}

/// The headline property (issue acceptance criterion): on randomized
/// churn traces, every single admission verdict agrees with a
/// from-scratch exact analysis of the widened set, and the resident set
/// stays provably feasible after every operation.
class ControllerChurnTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ControllerChurnTest, VerdictsMatchFromScratchAfterEveryOp) {
  Rng rng(GetParam());
  ChurnConfig cfg;
  cfg.events = 250;  // x4 seeds = 1000+ randomized ops overall
  cfg.warmup_arrivals = 6;
  cfg.depart_probability = 0.45;
  cfg.family = ChurnConfig::Family::Small;
  cfg.pool_utilization = 0.93;
  const std::vector<TraceEvent> trace = generate_churn_trace(rng, cfg);

  AdmissionController ctl;
  std::unordered_map<std::uint64_t, TaskId> resident;
  std::size_t checked = 0;
  for (const TraceEvent& ev : trace) {
    if (ev.op == TraceOp::Arrive) {
      // From-scratch oracle on the widened set, before mutating.
      TaskSet widened = ctl.snapshot();
      widened.add(ev.task);
      const bool oracle = processor_demand_test(widened).feasible();
      const AdmissionDecision d = ctl.try_admit(ev.task);
      ASSERT_EQ(d.admitted, oracle)
          << "op " << checked << " task " << ev.task.to_string() << "\n"
          << widened.to_string();
      if (d.admitted) resident.emplace(ev.key, d.id);
    } else {
      const auto it = resident.find(ev.key);
      if (it != resident.end()) {
        ASSERT_TRUE(ctl.remove(it->second));
        resident.erase(it);
      }
    }
    // The resident set must stay provably feasible throughout.
    if (!ctl.empty()) {
      ASSERT_TRUE(ctl.analyze_resident(TestKind::ProcessorDemand)
                      .feasible())
          << "op " << checked;
    }
    if (checked % 25 == 0) {
      ASSERT_TRUE(ctl.verify_consistency()) << "op " << checked;
    }
    ++checked;
  }
  EXPECT_GE(checked, 250u);
  EXPECT_GT(ctl.stats().admitted, 0u);
  EXPECT_GT(ctl.stats().removals, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ControllerChurnTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(AdmissionController, CertificateCarryingDecisions) {
  AdmissionOptions opts;
  opts.return_certificate = true;
  AdmissionController ctl(opts);

  // Admit: a feasibility certificate over the widened resident set,
  // independently re-checkable against a client-side copy of it.
  const AdmissionDecision a = ctl.try_admit(tk(2, 8, 10));
  ASSERT_TRUE(a.admitted);
  ASSERT_TRUE(a.certificate.present());
  const CertificateCheck ok = verify(ctl.snapshot(), a.certificate);
  EXPECT_TRUE(ok.valid) << ok.reason;

  // Group admit: one certificate for the whole widened set.
  const std::vector<Task> group = {tk(1, 10, 20), tk(2, 20, 40)};
  const GroupDecision g = ctl.admit_group(group);
  ASSERT_TRUE(g.admitted);
  ASSERT_TRUE(g.certificate.present());
  EXPECT_TRUE(verify(ctl.snapshot(), g.certificate).valid);

  // Proven reject: an infeasibility certificate, verifying against the
  // widened set the caller offered (residents + rejected arrival) —
  // and against nothing else.
  const AdmissionDecision r = ctl.try_admit(tk(9, 5, 100));
  ASSERT_FALSE(r.admitted);
  ASSERT_EQ(r.analysis.verdict, Verdict::Infeasible);
  ASSERT_TRUE(r.certificate.present());
  TaskSet widened = ctl.snapshot();
  widened.add(tk(9, 5, 100));
  EXPECT_TRUE(verify(widened, r.certificate).valid);
  EXPECT_FALSE(verify(ctl.snapshot(), r.certificate).valid);

  // Unknown rejects prove nothing and carry nothing. The pair is
  // feasible (demand 200 at t = 204), but the approximate rung leaves
  // the first task's envelope active there (its refinement stops at 16
  // jobs, border 155) and reads 204.5 > 204; with rung 3 skipped that
  // is a reject without proof.
  AdmissionOptions skip = opts;
  skip.skip_exact = true;
  AdmissionController sufficient(skip);
  ASSERT_TRUE(sufficient.try_admit(tk(5, 5, 10)).admitted);
  const AdmissionDecision u = sufficient.try_admit(tk(100, 204, 1000));
  EXPECT_FALSE(u.admitted);
  EXPECT_EQ(u.rung, AdmissionRung::Approximate);
  EXPECT_EQ(u.analysis.verdict, Verdict::Unknown);
  EXPECT_FALSE(u.certificate.present());
  // The full ladder's exact rung admits the same pair.
  AdmissionController exact(opts);
  ASSERT_TRUE(exact.try_admit(tk(5, 5, 10)).admitted);
  EXPECT_TRUE(exact.try_admit(tk(100, 204, 1000)).admitted);

  // Off (the default), decisions stay certificate-free.
  AdmissionController plain;
  EXPECT_FALSE(plain.try_admit(tk(2, 8, 10)).certificate.present());
}

TEST(AdmissionLadder, TestSelectionIsDiscoverable) {
  // The controller's rungs, as query kinds: utilization, the
  // epsilon-approximate scan, then QPA.
  const AdmissionOptions opts;
  const std::vector<TestKind> kinds =
      default_ladder_kinds(!opts.skip_exact);
  ASSERT_EQ(kinds.size(), 3u);
  EXPECT_EQ(kinds[0], TestKind::LiuLayland);
  EXPECT_EQ(kinds[1], TestKind::Chakraborty);
  EXPECT_EQ(kinds[2], TestKind::Qpa);
  EXPECT_EQ(default_ladder_kinds(false).size(), 2u);
}

}  // namespace
}  // namespace edfkit
