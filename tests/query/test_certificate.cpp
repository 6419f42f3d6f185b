#include "query/certificate.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "../helpers.hpp"
#include "analysis/utilization.hpp"
#include "demand/dbf.hpp"
#include "query/query.hpp"

namespace edfkit {
namespace {

using testing::paper_random_sets;
using testing::set_of;
using testing::small_random_sets;
using testing::tk;

/// Field-by-field equality of two certificates (the byte-for-byte claim:
/// every field a certificate serializes).
void expect_same_certificate(const Certificate& a, const Certificate& b,
                             const std::string& where) {
  EXPECT_EQ(a.kind, b.kind) << where;
  EXPECT_EQ(a.witness, b.witness) << where;
  EXPECT_EQ(a.bound, b.bound) << where;
  EXPECT_EQ(a.borders, b.borders) << where;
  EXPECT_EQ(a.processors, b.processors) << where;
  EXPECT_EQ(a.multi_test, b.multi_test) << where;
}

/// A walk that certifies itself must still report every result field as
/// the uncertified walk does.
void expect_same_analysis(const FeasibilityResult& a,
                          const FeasibilityResult& b,
                          const std::string& where) {
  EXPECT_EQ(a.verdict, b.verdict) << where;
  EXPECT_EQ(a.iterations, b.iterations) << where;
  EXPECT_EQ(a.revisions, b.revisions) << where;
  EXPECT_EQ(a.max_interval_tested, b.max_interval_tested) << where;
  EXPECT_EQ(a.final_level, b.final_level) << where;
  EXPECT_EQ(a.witness, b.witness) << where;
  EXPECT_EQ(a.degraded, b.degraded) << where;
  EXPECT_EQ(a.cancelled, b.cancelled) << where;
}

/// Arbitrary deadlines: D anywhere in [C, 3T], so many tasks have D > T.
std::vector<TaskSet> arbitrary_deadline_sets(int count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<TaskSet> out;
  for (int k = 0; k < count; ++k) {
    TaskSet ts;
    const int n = rng.uniform_int(2, 7);
    for (int i = 0; i < n; ++i) {
      Task t;
      t.period = rng.uniform_time(3, 40);
      t.wcet = rng.uniform_time(1, std::max<Time>(1, t.period / 3));
      t.deadline = rng.uniform_time(t.wcet, 3 * t.period);
      ts.add(std::move(t));
    }
    out.push_back(std::move(ts));
  }
  return out;
}

TEST(Certificate, EveryExactDecisiveOutcomeCarriesAValidCertificate) {
  // The acceptance criterion of the query API: fuzzed task sets, every
  // exact backend, every decisive outcome ships evidence the independent
  // checker signs off on. The dynamic and all-approx walks certify their
  // own accepts, so they must also leave every result field as the
  // uncertified walk reports it, and an all-approx accept must carry the
  // builder's certificate exactly.
  std::vector<Workload> inputs;
  for (const double u : {0.7, 0.95, 1.05}) {
    for (const TaskSet& ts : small_random_sets(12, u, /*seed=*/421)) {
      if (!ts.empty()) inputs.push_back(Workload::periodic(ts));
    }
  }
  const std::size_t arbitrary_begin = inputs.size();
  for (const TaskSet& ts : arbitrary_deadline_sets(16, /*seed=*/903)) {
    inputs.push_back(Workload::periodic(ts));
  }
  const std::size_t arbitrary_end = inputs.size();
  // A one-shot task (infinite period) popped after the dynamic walk's
  // level has grown stays exact past its only deadline: at I = 4 the
  // demand 2.8 + 2 exceeds 4, so the level is 2 when I = 20 is popped.
  inputs.push_back(Workload::periodic(
      set_of({tk(2, 2, 5), tk(2, 4, 5), tk(1, 20, kTimeInfinity)})));
  std::vector<EventStreamTask> streams;
  streams.push_back(
      EventStreamTask{EventStream::bursty(120, 3, 4), 6, 30, "irq"});
  streams.push_back(
      EventStreamTask{EventStream::periodic(40), 11, 38, "worker"});
  streams.push_back(
      EventStreamTask{EventStream::periodic(90), 17, 140, "logger"});
  // Two one-shot events; the dynamic walk keeps the first exact at 60.
  streams.push_back(EventStreamTask{
      EventStream({EventTuple{kTimeInfinity, 0},
                   EventTuple{kTimeInfinity, 90}}),
      24, 60, "boot"});
  inputs.push_back(Workload::event_streams(streams));

  std::size_t feasible_seen = 0;
  std::size_t infeasible_seen = 0;
  std::size_t arbitrary_feasible = 0;
  for (std::size_t w = 0; w < inputs.size(); ++w) {
    const Workload& work = inputs[w];
    const TaskSet& ts = work.tasks();
    for (const TestKind k : BackendRegistry::instance().exact_kinds()) {
      const std::string where = std::string(to_string(k)) + " on input " +
                                std::to_string(w) + "\n" + ts.to_string();
      const Outcome out = Query::single(k).run(work);
      ASSERT_TRUE(out.decided) << where;
      ASSERT_TRUE(out.certificate.present()) << where;
      const CertificateCheck check = verify(work, out.certificate);
      EXPECT_TRUE(check.valid) << check.reason << " " << where;
      (out.feasible() ? feasible_seen : infeasible_seen) += 1;
      if (out.feasible() && w >= arbitrary_begin && w < arbitrary_end) {
        ++arbitrary_feasible;
      }
      if (k != TestKind::Dynamic && k != TestKind::AllApprox) continue;
      const Outcome plain =
          Query::single(k).with_certificates(false).run(work);
      expect_same_analysis(out.analysis, plain.analysis, where);
      // A batch settles on its first decisive exact backend: ahead of
      // QPA the walk's own certificate rides the outcome; behind it the
      // walk runs uncertified and QPA's verdict gets its certificate.
      const Outcome ahead = Query::batch({k, TestKind::Qpa}).run(work);
      expect_same_certificate(ahead.certificate, out.certificate, where);
      const Outcome behind = Query::batch({TestKind::Qpa, k}).run(work);
      EXPECT_EQ(behind.decided_by, TestKind::Qpa) << where;
      EXPECT_TRUE(verify(work, behind.certificate).valid) << where;
      if (k == TestKind::AllApprox &&
          out.certificate.kind == CertificateKind::FeasibleBorders) {
        const auto built = build_feasibility_certificate(ts);
        ASSERT_TRUE(built.has_value()) << where;
        expect_same_certificate(out.certificate, *built, where);
      }
    }
  }
  // The fuzz families must exercise both verdicts to mean anything, and
  // the D > T family must include accepts.
  EXPECT_GT(feasible_seen, 0u);
  EXPECT_GT(infeasible_seen, 0u);
  EXPECT_GT(arbitrary_feasible, 0u);
}

TEST(Certificate, StepCappedWalksFallBackToAVerifyingCertificate) {
  // A certifying walk that passes certificate_step_cap gives up its
  // borders; the query then falls back to the builder under the same
  // cap. Either way the result fields stay the uncertified walk's, the
  // certificate verifies, and an all-approx accept carries exactly the
  // builder's certificate.
  //
  // U == 1 (1/4 each): a walk stops at its bound without borders (its
  // list never drains past it), so every cap is the builder's alone.
  const TaskSet saturated =
      set_of({tk(1, 3, 4), tk(2, 7, 8), tk(3, 12, 12), tk(4, 16, 16)});
  ASSERT_EQ(classify_utilization(saturated), UtilizationClass::ExactlyOne);
  // U = 1127/1170: all-approx reaches its bound in 43 steps and drains
  // in 44, dynamic in 29 and 35, so these caps fall before a bound,
  // between a bound and its drain, and past both drains.
  const TaskSet near =
      set_of({tk(2, 8, 20), tk(2, 3, 9), tk(6, 18, 18), tk(4, 9, 13)});
  ASSERT_EQ(classify_utilization(near), UtilizationClass::BelowOne);
  const std::vector<std::uint64_t> caps = {0, 3, 30, 43, 44, 1u << 20};
  for (const TaskSet* ts : {&saturated, &near}) {
    for (const std::uint64_t cap : caps) {
      ResourceLimits limits;
      limits.certificate_step_cap = cap;
      for (const TestKind k : {TestKind::Dynamic, TestKind::AllApprox}) {
        const std::string where = std::string(to_string(k)) + " cap " +
                                  std::to_string(cap) + "\n" +
                                  ts->to_string();
        const Outcome out = Query::single(k).with_limits(limits).run(*ts);
        ASSERT_TRUE(out.feasible()) << where;
        ASSERT_TRUE(out.certificate.present()) << where;
        const CertificateCheck check = verify(*ts, out.certificate);
        EXPECT_TRUE(check.valid) << check.reason << " " << where;
        const Outcome plain =
            Query::single(k).with_certificates(false).run(*ts);
        expect_same_analysis(out.analysis, plain.analysis, where);
        if (k == TestKind::AllApprox) {
          const auto built = build_feasibility_certificate(*ts, cap);
          ASSERT_TRUE(built.has_value()) << where;
          expect_same_certificate(out.certificate, *built, where);
        }
        if (ts == &near) {
          // Borders exactly when the cap covers the walk to its drain
          // (the builder's own count: test-list pops plus revised tasks);
          // dynamic's are its own, short of its cap the builder's
          // exhaustive form.
          const std::uint64_t drain_steps = k == TestKind::AllApprox ? 44 : 35;
          EXPECT_EQ(out.certificate.kind,
                    cap >= drain_steps ? CertificateKind::FeasibleBorders
                                       : CertificateKind::FeasibleExhaustive)
              << where;
          // A caller's own infinite bound walks to the drain with or
          // without certificates: the cap never turns it into Unknown.
          DynamicTestOptions dyn;
          dyn.bound = kTimeInfinity;
          AllApproxOptions aa;
          aa.bound = kTimeInfinity;
          const BackendParams unbounded =
              k == TestKind::Dynamic ? BackendParams{dyn} : BackendParams{aa};
          const Outcome walked =
              Query::single(k, unbounded).with_limits(limits).run(*ts);
          const Outcome walked_plain =
              Query::single(k, unbounded).with_certificates(false).run(*ts);
          ASSERT_TRUE(walked_plain.feasible()) << where;
          expect_same_analysis(walked.analysis, walked_plain.analysis,
                               where + " unbounded");
          EXPECT_TRUE(verify(*ts, walked.certificate).valid) << where;
        }
      }
    }
  }
}

TEST(Certificate, NeverDrainingSaturatedSetsSkipTheWalk) {
  // U == 1 with the fully approximated demand I + 1/4 + 2/8 above the
  // capacity line: the unbounded walk never drains, so the builder
  // decides by the exact demand up to the checker's horizon (64 =
  // lcm 48 + D_max 16) instead of running its whole step cap.
  const TaskSet saturated =
      set_of({tk(1, 3, 4), tk(2, 7, 8), tk(3, 12, 12), tk(4, 16, 16)});
  ASSERT_EQ(classify_utilization(saturated), UtilizationClass::ExactlyOne);
  const auto start = std::chrono::steady_clock::now();
  const auto built = build_feasibility_certificate(saturated, 1u << 24);
  const auto took = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(built.has_value());
  EXPECT_EQ(built->kind, CertificateKind::FeasibleExhaustive);
  EXPECT_EQ(built->bound, 64);
  const CertificateCheck check = verify(saturated, *built);
  EXPECT_TRUE(check.valid) << check.reason;
  EXPECT_LT(took, std::chrono::milliseconds(50));

  // Zero offset (implicit deadlines; D > T on one task balancing D < T
  // on another): the fully approximated demand meets the line, the walk
  // drains and its borders are the certificate.
  const TaskSet implicit =
      set_of({tk(1, 4, 4), tk(2, 8, 8), tk(3, 12, 12), tk(4, 16, 16)});
  const TaskSet balanced =
      set_of({tk(1, 5, 4), tk(2, 7, 8), tk(3, 12, 12), tk(4, 16, 16)});
  for (const TaskSet* ts : {&implicit, &balanced}) {
    ASSERT_EQ(classify_utilization(*ts), UtilizationClass::ExactlyOne);
    const auto borders = build_feasibility_certificate(*ts);
    ASSERT_TRUE(borders.has_value()) << ts->to_string();
    EXPECT_EQ(borders->kind, CertificateKind::FeasibleBorders)
        << ts->to_string();
    const CertificateCheck c = verify(*ts, *borders);
    EXPECT_TRUE(c.valid) << c.reason << " " << ts->to_string();
  }

  // Never draining and infeasible (dbf(3) = 4): no certificate.
  const TaskSet overloaded = set_of({tk(2, 2, 4), tk(2, 3, 4)});
  ASSERT_EQ(classify_utilization(overloaded), UtilizationClass::ExactlyOne);
  EXPECT_FALSE(build_feasibility_certificate(overloaded).has_value());
}

TEST(Certificate, PaperSizedSetsCertifyToo) {
  for (const TaskSet& ts : paper_random_sets(6, 0.9, /*seed=*/77)) {
    const Outcome out =
        Query::single(TestKind::AllApprox).run(Workload::periodic(ts));
    ASSERT_TRUE(out.decided);
    ASSERT_TRUE(out.certificate.present());
    const CertificateCheck check = verify(ts, out.certificate);
    EXPECT_TRUE(check.valid) << check.reason;
  }
}

TEST(Certificate, MutatedFeasibleBordersAreRejected) {
  std::size_t mutated_checked = 0;
  for (const TaskSet& ts : small_random_sets(10, 0.85, /*seed=*/11)) {
    const Outcome out =
        Query::single(TestKind::Qpa).run(Workload::periodic(ts));
    if (!out.feasible() ||
        out.certificate.kind != CertificateKind::FeasibleBorders) {
      continue;
    }
    ASSERT_TRUE(verify(ts, out.certificate).valid);

    // Mutation 1: push a border below the task's first deadline — no
    // longer a job deadline, whatever the period lattice.
    Certificate off = out.certificate;
    off.borders[0] = ts[0].effective_deadline() - 1;
    EXPECT_FALSE(verify(ts, off).valid);

    // Mutation 2: drop a border (count mismatch).
    Certificate dropped = out.certificate;
    dropped.borders.pop_back();
    EXPECT_FALSE(verify(ts, dropped).valid);

    // Mutation 3: transplant the certificate onto a heavier workload —
    // the replayed demand comparison must catch it.
    std::vector<Task> heavier(ts.begin(), ts.end());
    for (Task& t : heavier) t.wcet = t.period;  // drive demand to U >= 1
    Certificate transplanted = out.certificate;
    EXPECT_FALSE(verify(TaskSet(heavier), transplanted).valid);
    ++mutated_checked;
  }
  EXPECT_GT(mutated_checked, 0u);
}

TEST(Certificate, MutatedWitnessIsRejected) {
  // U = 3/8 + 5/12 < 1 but dbf(6) = 3 + 5 = 8 > 6: a genuine demand
  // overflow, so the witness (not the overload) form is emitted.
  const TaskSet ts = set_of({tk(3, 4, 8), tk(5, 6, 12)});
  const Outcome out =
      Query::single(TestKind::ProcessorDemand).run(Workload::periodic(ts));
  ASSERT_TRUE(out.infeasible());
  ASSERT_EQ(out.certificate.kind, CertificateKind::InfeasibleWitness);
  ASSERT_TRUE(verify(ts, out.certificate).valid);

  // An interval where demand fits is no witness.
  Certificate bogus = out.certificate;
  bogus.witness = 1;  // dbf(1) == 0 <= 1
  EXPECT_FALSE(verify(ts, bogus).valid);
  bogus.witness = -5;
  EXPECT_FALSE(verify(ts, bogus).valid);
}

TEST(Certificate, OverloadCertificateChecksUtilization) {
  const TaskSet over = set_of({tk(7, 8, 8), tk(3, 10, 10)});  // U > 1
  const Outcome out =
      Query::single(TestKind::Qpa).run(Workload::periodic(over));
  ASSERT_TRUE(out.infeasible());
  ASSERT_EQ(out.certificate.kind, CertificateKind::InfeasibleOverload);
  EXPECT_TRUE(verify(over, out.certificate).valid);

  // The same claim against a U < 1 set must be rejected.
  const TaskSet light = set_of({tk(1, 8, 8)});
  EXPECT_FALSE(verify(light, out.certificate).valid);
}

TEST(Certificate, ExhaustiveFormVerifiesAndDetectsShrunkBound) {
  const TaskSet ts = set_of({tk(2, 6, 8), tk(3, 10, 12), tk(4, 20, 24)});
  // Force the exhaustive fallback with a zero-step cap.
  const auto cert = build_feasibility_certificate(ts, /*step_cap=*/0);
  ASSERT_TRUE(cert.has_value());
  ASSERT_EQ(cert->kind, CertificateKind::FeasibleExhaustive);
  EXPECT_TRUE(verify(ts, *cert).valid);

  Certificate shrunk = *cert;
  shrunk.bound = 1;  // below the checker's own sound horizon
  EXPECT_FALSE(verify(ts, shrunk).valid);

  // Transplanting onto an infeasible set fails the replay.
  const TaskSet bad = set_of({tk(3, 4, 8), tk(5, 6, 12)});
  EXPECT_FALSE(verify(bad, *cert).valid);
}

TEST(Certificate, BuilderRefusesInfeasibleSets) {
  // Demand overflow under U < 1: the sweep runs out of approximations at
  // the failing interval and must refuse to certify.
  const TaskSet bad = set_of({tk(3, 4, 8), tk(5, 6, 12)});
  EXPECT_FALSE(build_feasibility_certificate(bad).has_value());
  const TaskSet over = set_of({tk(9, 8, 8)});  // U > 1
  EXPECT_FALSE(build_feasibility_certificate(over).has_value());
}

TEST(Certificate, EmptySetHasTrivialBordersCertificate) {
  const TaskSet empty;
  const auto cert = build_feasibility_certificate(empty);
  ASSERT_TRUE(cert.has_value());
  EXPECT_EQ(cert->kind, CertificateKind::FeasibleBorders);
  EXPECT_TRUE(verify(empty, *cert).valid);
}

TEST(Certificate, NoneNeverVerifies) {
  const TaskSet ts = set_of({tk(1, 4, 8)});
  EXPECT_FALSE(verify(ts, Certificate{}).valid);
}

TEST(Certificate, StreamWorkloadCertificatesVerifyAgainstExpansion) {
  std::vector<EventStreamTask> streams;
  streams.push_back(
      EventStreamTask{EventStream::bursty(200, 4, 5), 8, 40, "irq"});
  streams.push_back(
      EventStreamTask{EventStream::periodic(50), 11, 45, "worker"});
  const Workload w = Workload::event_streams(streams);
  const Outcome out = Query::single(TestKind::AllApprox).run(w);
  ASSERT_TRUE(out.decided);
  ASSERT_TRUE(out.certificate.present());
  EXPECT_TRUE(verify(w, out.certificate).valid);
}

}  // namespace
}  // namespace edfkit
