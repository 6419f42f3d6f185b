#include "query/query.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>

#include "../helpers.hpp"
#include "analysis/qpa.hpp"

namespace edfkit {
namespace {

using testing::set_of;
using testing::small_random_sets;
using testing::tk;

TaskSet demo_set() {
  return set_of({tk(2, 6, 8), tk(3, 10, 12), tk(4, 20, 24)});
}

// ---------------------------------------------------------- validation

TEST(QueryValidation, RejectsEpsilonOutsideUnitInterval) {
  for (const double eps : {0.0, -0.25, 1.0, 1.5}) {
    EXPECT_THROW((void)Query::single(TestKind::Chakraborty,
                                     ChakrabortyParams{eps})
                     .run(demo_set()),
                 std::invalid_argument)
        << eps;
  }
  EXPECT_NO_THROW((void)Query::single(TestKind::Chakraborty,
                                      ChakrabortyParams{0.5})
                      .run(demo_set()));
}

TEST(QueryValidation, RejectsSuperposLevelBelowOne) {
  EXPECT_THROW((void)Query::single(TestKind::SuperPos, SuperPosParams{0})
                   .run(demo_set()),
               std::invalid_argument);
  EXPECT_THROW((void)Query::single(TestKind::SuperPos, SuperPosParams{-3})
                   .run(demo_set()),
               std::invalid_argument);
}

TEST(QueryValidation, RejectsZeroTaskWorkloads) {
  EXPECT_THROW((void)Query::single(TestKind::Qpa).run(Workload()),
               std::invalid_argument);
  EXPECT_THROW(
      (void)Query::single(TestKind::Qpa).run(Workload::event_streams({})),
      std::invalid_argument);
}

TEST(QueryValidation, RejectsMismatchedParamsVariant) {
  // epsilon params handed to the superpos backend: caught at the
  // boundary instead of silently running with defaults.
  EXPECT_THROW((void)Query::single(TestKind::SuperPos,
                                   ChakrabortyParams{0.25})
                   .run(demo_set()),
               std::invalid_argument);
}

TEST(QueryValidation, RejectsEmptySelection) {
  Query empty;
  EXPECT_THROW((void)empty.run(demo_set()), std::invalid_argument);
}

TEST(QueryValidation, SingleRejectsUnsupportedWorkloadKind) {
  std::vector<EventStreamTask> streams;
  streams.push_back(
      EventStreamTask{EventStream::periodic(20), 3, 15, "s"});
  const Workload w = Workload::event_streams(streams);
  EXPECT_THROW((void)Query::single(TestKind::LiuLayland).run(w),
               std::invalid_argument);
}

// ------------------------------------------------------------ policies

TEST(QueryPolicy, SingleMatchesDirectBackend) {
  const TaskSet ts = demo_set();
  const Outcome out = Query::single(TestKind::Qpa).run(ts);
  EXPECT_TRUE(out.decided);
  EXPECT_EQ(out.decided_by, TestKind::Qpa);
  EXPECT_EQ(out.verdict, Verdict::Feasible);
  EXPECT_EQ(out.attempts.size(), 1u);
}

TEST(QueryPolicy, LadderEscalatesAndStopsAtFirstDecision) {
  // This easy set is settled before the exact rung.
  const Outcome easy = Query::ladder().run(set_of({tk(1, 8, 8)}));
  EXPECT_TRUE(easy.decided);
  EXPECT_EQ(easy.verdict, Verdict::Feasible);
  EXPECT_LT(easy.attempts.size(), default_ladder_kinds().size());

  // A borderline-infeasible set must escalate to the exact fallback.
  const TaskSet hard = set_of({tk(3, 4, 8), tk(5, 6, 12)});
  const Outcome esc = Query::ladder().run(hard);
  EXPECT_TRUE(esc.decided);
  EXPECT_EQ(esc.verdict, Verdict::Infeasible);
  EXPECT_EQ(esc.decided_by, TestKind::Qpa);
  EXPECT_EQ(esc.attempts.size(), default_ladder_kinds().size());
}

TEST(QueryPolicy, LadderSkipsStreamIncapableBackends) {
  std::vector<EventStreamTask> streams;
  streams.push_back(
      EventStreamTask{EventStream::bursty(100, 2, 5), 4, 30, "b"});
  const Outcome out = Query::ladder().run(Workload::event_streams(streams));
  ASSERT_EQ(out.skipped.size(), 1u);
  EXPECT_EQ(out.skipped.front(), TestKind::LiuLayland);
  EXPECT_TRUE(out.decided);
}

TEST(QueryPolicy, StopTokenCancelsEveryLongRunningBackend) {
  // Each long-running exact backend observes a pre-raised token and
  // returns Unknown + cancelled instead of scanning. The set is tight
  // enough (U ~ 0.92) that every test's bound admits real iterations —
  // a loose set would return Feasible before reaching a checkpoint.
  const TaskSet ts = set_of({tk(4, 5, 8), tk(5, 11, 12)});
  std::atomic<bool> stop{true};
  ProcessorDemandOptions pd;
  pd.stop = &stop;
  const FeasibilityResult r1 = processor_demand_test(ts, pd);
  EXPECT_TRUE(r1.cancelled);
  EXPECT_EQ(r1.verdict, Verdict::Unknown);
  const FeasibilityResult r2 = qpa_test(ts, &stop);
  EXPECT_TRUE(r2.cancelled);
  EXPECT_EQ(r2.verdict, Verdict::Unknown);
  DynamicTestOptions dy;
  dy.stop = &stop;
  const FeasibilityResult r3 = dynamic_error_test(ts, dy);
  EXPECT_TRUE(r3.cancelled);
  EXPECT_EQ(r3.verdict, Verdict::Unknown);
  AllApproxOptions aa;
  aa.stop = &stop;
  const FeasibilityResult r4 = all_approx_test(ts, aa);
  EXPECT_TRUE(r4.cancelled);
  EXPECT_EQ(r4.verdict, Verdict::Unknown);
}

TEST(QueryPolicy, UserStopTokensSurviveNonPortfolioPolicies) {
  // A caller-supplied token in the typed params must reach the backend
  // under Single too (the portfolio's own arming must not clobber it).
  const TaskSet ts = set_of({tk(4, 5, 8), tk(5, 11, 12)});
  std::atomic<bool> stop{true};
  ProcessorDemandOptions pd;
  pd.stop = &stop;
  const Outcome out = Query::single(TestKind::ProcessorDemand, pd)
                          .with_certificates(false)
                          .run(ts);
  EXPECT_TRUE(out.analysis.cancelled);
  EXPECT_EQ(out.verdict, Verdict::Unknown);
}

TEST(QueryPolicy, PortfolioLosersObserveTheStopToken) {
  // A processor-demand backend pointed at an astronomically distant
  // bound would walk ~1e14 deadlines; QPA decides the same (feasible)
  // set in microseconds. The portfolio's stop token must reach the
  // loser: it returns early with `cancelled` after a tiny fraction of
  // its bound. (The iteration cap is a safety valve so a cancellation
  // regression fails this test in seconds instead of hanging CI.)
  const TaskSet ts = set_of({tk(1, 4, 8), tk(2, 8, 16)});
  ProcessorDemandOptions slow;
  slow.bound = Time{1'000'000'000'000'000};
  slow.max_iterations = 500'000'000;
  const Outcome out = Query()
                          .add(TestKind::Qpa)
                          .add(TestKind::ProcessorDemand, slow)
                          .with_policy(ExecPolicy::Portfolio)
                          .with_certificates(false)
                          .run(ts);
  ASSERT_TRUE(out.decided);
  EXPECT_EQ(out.verdict, Verdict::Feasible);
  const BackendAttempt* pd = nullptr;
  for (const BackendAttempt& a : out.attempts) {
    if (a.kind == TestKind::ProcessorDemand) pd = &a;
  }
  ASSERT_NE(pd, nullptr);
  EXPECT_TRUE(pd->result.cancelled);
  EXPECT_EQ(pd->result.verdict, Verdict::Unknown);
  EXPECT_LT(pd->result.iterations, 500'000'000u);
}

TEST(QueryPolicy, PortfolioRacesExactBackendsToAgreement) {
  for (const TaskSet& ts : small_random_sets(6, 0.9, /*seed=*/5)) {
    if (ts.empty()) continue;
    const Outcome out = Query::portfolio().run(ts);
    ASSERT_TRUE(out.decided);
    EXPECT_TRUE(is_exact(out.decided_by));
    // Every exact attempt that finished decisively must agree.
    for (const BackendAttempt& a : out.attempts) {
      if (a.result.verdict != Verdict::Unknown) {
        EXPECT_EQ(a.result.verdict, out.verdict) << to_string(a.kind);
      }
    }
    EXPECT_TRUE(verify(ts, out.certificate).valid);
  }
}

TEST(QueryPolicy, BatchRunsEverySelectedBackend) {
  const Outcome out =
      Query::batch(all_test_kinds()).with_certificates(false).run(demo_set());
  // The global backends are platform-filtered out of a uniprocessor run
  // (skipped, not attempted); every uniprocessor backend runs.
  const std::size_t uni =
      BackendRegistry::instance().kinds_for(Platform{}).size();
  EXPECT_EQ(out.attempts.size(), uni);
  EXPECT_EQ(out.skipped.size(), all_test_kinds().size() - uni);
  EXPECT_TRUE(out.decided);
  EXPECT_TRUE(is_exact(out.decided_by));  // exact verdicts take precedence
  EXPECT_EQ(out.verdict, Verdict::Feasible);
}

TEST(QueryPolicy, ResourceLimitsReachTheProcessorDemandBackend) {
  // A period-ratio-heavy set forces many PD iterations; the query-level
  // cap turns the verdict into a bounded Unknown.
  const TaskSet ts = set_of({tk(2, 8, 20), tk(3, 25, 30), tk(4, 40, 50),
                             tk(6, 60, 70), tk(9, 90, 100),
                             tk(14, 140, 150), tk(20, 190, 200),
                             tk(30, 290, 300), tk(46, 390, 400),
                             tk(72, 580, 600)});
  ResourceLimits limits;
  limits.max_iterations = 2;
  const Outcome capped = Query::single(TestKind::ProcessorDemand)
                             .with_limits(limits)
                             .run(ts);
  EXPECT_EQ(capped.verdict, Verdict::Unknown);
  EXPECT_FALSE(capped.certificate.present());

  const Outcome open = Query::single(TestKind::ProcessorDemand).run(ts);
  EXPECT_EQ(open.verdict, Verdict::Feasible);
}

TEST(QueryPolicy, CertificatesCanBeDisabled) {
  const Outcome out = Query::single(TestKind::Qpa)
                          .with_certificates(false)
                          .run(demo_set());
  EXPECT_TRUE(out.decided);
  EXPECT_FALSE(out.certificate.present());
}

TEST(QueryPolicy, SingleRunsEveryUniprocessorKind) {
  // This set is exactly feasible; exact tests must say so, sufficient
  // tests may either accept or give up, but never claim infeasibility.
  for (const TestKind k : BackendRegistry::instance().kinds_for(Platform{})) {
    const FeasibilityResult r =
        Query::single(k).with_certificates(false).run(demo_set()).analysis;
    EXPECT_NE(r.verdict, Verdict::Infeasible) << to_string(k);
    if (is_exact(k)) {
      EXPECT_EQ(r.verdict, Verdict::Feasible) << to_string(k);
    }
  }
}

TEST(QueryPolicy, TypedParamsReachTheTests) {
  const TaskSet ts = set_of({tk(2, 8, 20), tk(3, 25, 30), tk(4, 40, 50),
                             tk(6, 60, 70), tk(9, 90, 100), tk(14, 140, 150),
                             tk(20, 190, 200), tk(30, 290, 300),
                             tk(46, 390, 400), tk(72, 580, 600)});
  const auto verdict = [&](TestKind k, BackendParams p) {
    return Query::single(k, std::move(p))
        .with_certificates(false)
        .run(ts)
        .verdict;
  };
  DynamicTestOptions strict;
  strict.max_level = 1;  // degrade dynamic to SuperPos(1)
  EXPECT_EQ(verdict(TestKind::Dynamic, strict), Verdict::Unknown);
  EXPECT_EQ(verdict(TestKind::Dynamic, DynamicTestOptions{}),
            Verdict::Feasible);
  EXPECT_EQ(verdict(TestKind::SuperPos, SuperPosParams{1}), Verdict::Unknown);
  EXPECT_EQ(verdict(TestKind::SuperPos, SuperPosParams{32}),
            Verdict::Feasible);
}

TEST(QueryPolicy, ComparisonTableMentionsEveryTest) {
  const std::string table =
      comparison_table(Workload::periodic(set_of({tk(1, 4, 8)})));
  for (const TestKind k : BackendRegistry::instance().kinds_for(Platform{})) {
    EXPECT_NE(table.find(to_string(k)), std::string::npos) << to_string(k);
  }
}

TEST(QueryPolicy, OutcomeToStringMentionsVerdictAndBackend) {
  const Outcome out = Query::single(TestKind::Qpa).run(demo_set());
  const std::string s = out.to_string();
  EXPECT_NE(s.find("feasible"), std::string::npos);
  EXPECT_NE(s.find("qpa"), std::string::npos);
  EXPECT_NE(s.find("certificate"), std::string::npos);
}

}  // namespace
}  // namespace edfkit
