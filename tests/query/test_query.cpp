#include "query/query.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "../helpers.hpp"

namespace edfkit {
namespace {

using testing::set_of;
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

TEST(QueryPolicy, BatchRunsEverySelectedBackend) {
  const Outcome out =
      Query::batch(all_test_kinds()).with_certificates(false).run(demo_set());
  // The global backends are platform-filtered out of a uniprocessor run
  // (skipped, not attempted); every uniprocessor backend runs.
  const std::vector<TestKind> uni =
      BackendRegistry::instance().kinds_for(Platform{});
  EXPECT_EQ(out.attempts.size(), uni.size());
  EXPECT_EQ(out.skipped.size(), all_test_kinds().size() - uni.size());
  // The backends run one after another, so the attempts come back in
  // selection order.
  std::vector<TestKind> attempted;
  for (const BackendAttempt& a : out.attempts) attempted.push_back(a.kind);
  EXPECT_EQ(attempted, uni);
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
