/// \file test_cross_validation.cpp
/// The repository's central property suite: every implemented test is
/// cross-validated against every other on shared random workloads.
///
///   * Exact tests (processor demand, QPA, dynamic-error, all-approx)
///     and the simulation oracle must agree bit-for-bit on verdicts.
///   * Sufficient tests (Liu&Layland on constrained sets, Devi,
///     SuperPos(x), Chakraborty, RTC) may give up but must never accept
///     an infeasible set nor claim infeasibility of a feasible one.
///   * The acceptance hierarchy of §3 holds:
///       RTC <= Devi == SuperPos(1) <= SuperPos(2) <= ... <= exact.
#include <gtest/gtest.h>

#include "../helpers.hpp"
#include "analysis/chakraborty.hpp"
#include "analysis/devi.hpp"
#include "analysis/processor_demand.hpp"
#include "analysis/qpa.hpp"
#include "analysis/utilization.hpp"
#include "core/all_approx.hpp"
#include "core/dynamic_test.hpp"
#include "core/superpos.hpp"
#include "query/query.hpp"
#include "rtc/rtc_feas.hpp"
#include "sim/oracle.hpp"

namespace edfkit {
namespace {

struct Workload {
  const char* name;
  bool simulable;
  double u_lo;
  double u_hi;
};

class CrossValidation
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {
 protected:
  static constexpr Workload kWorkloads[] = {
      {"small-mid", true, 0.50, 0.90},
      {"small-high", true, 0.90, 1.05},
      {"paper-mid", false, 0.80, 0.93},
      {"paper-high", false, 0.93, 0.995},
  };

  TaskSet draw(Rng& rng) const {
    const Workload& w = kWorkloads[std::get<0>(GetParam())];
    const double u = rng.uniform(w.u_lo, w.u_hi);
    return w.simulable ? draw_small_set(rng, u) : draw_fig8_set(rng, u);
  }
  bool simulable() const {
    return kWorkloads[std::get<0>(GetParam())].simulable;
  }
  Rng make_rng() const {
    return Rng(std::get<1>(GetParam()) * 7919 +
               static_cast<std::uint64_t>(std::get<0>(GetParam())));
  }
};

TEST_P(CrossValidation, ExactTestsAgree) {
  Rng rng = make_rng();
  for (int i = 0; i < 15; ++i) {
    const TaskSet ts = draw(rng);
    const Verdict pd = processor_demand_test(ts).verdict;
    EXPECT_EQ(pd, qpa_test(ts).verdict) << ts.to_string();
    EXPECT_EQ(pd, dynamic_error_test(ts).verdict) << ts.to_string();
    EXPECT_EQ(pd, all_approx_test(ts).verdict) << ts.to_string();
    if (simulable()) {
      const Verdict oracle = simulate_feasibility(ts).verdict;
      if (oracle != Verdict::Unknown) {
        EXPECT_EQ(pd, oracle) << ts.to_string();
      }
    }
  }
}

TEST_P(CrossValidation, SufficientTestsNeverLie) {
  Rng rng = make_rng();
  for (int i = 0; i < 15; ++i) {
    const TaskSet ts = draw(rng);
    const Verdict truth = processor_demand_test(ts).verdict;
    for (const TestKind k :
         {TestKind::LiuLayland, TestKind::Devi, TestKind::SuperPos,
          TestKind::Chakraborty}) {
      const Verdict v =
          Query::single(k).with_certificates(false).run(ts).verdict;
      if (v == Verdict::Feasible) {
        EXPECT_EQ(truth, Verdict::Feasible)
            << to_string(k) << " accepted an infeasible set\n"
            << ts.to_string();
      }
      if (v == Verdict::Infeasible) {
        EXPECT_EQ(truth, Verdict::Infeasible)
            << to_string(k) << " rejected a feasible set as infeasible\n"
            << ts.to_string();
      }
    }
    const Verdict rtc = rtc::rtc_feasibility_test(ts).verdict;
    if (rtc == Verdict::Feasible) {
      EXPECT_EQ(truth, Verdict::Feasible) << ts.to_string();
    }
  }
}

TEST_P(CrossValidation, AcceptanceHierarchyHolds) {
  Rng rng = make_rng();
  for (int i = 0; i < 10; ++i) {
    const TaskSet ts = draw(rng);
    const bool rtc = rtc::rtc_feasibility_test(ts).feasible();
    const bool devi = devi_test(ts).feasible();
    const bool sp1 = superpos_test(ts, 1).feasible();
    const bool sp3 = superpos_test(ts, 3).feasible();
    const bool exact = processor_demand_test(ts).feasible();
    EXPECT_EQ(devi, sp1) << "Lemma 2 violated\n" << ts.to_string();
    if (rtc) {
      EXPECT_TRUE(devi) << ts.to_string();
    }
    if (sp1) {
      EXPECT_TRUE(sp3) << ts.to_string();
    }
    if (sp3) {
      EXPECT_TRUE(exact) << ts.to_string();
    }
  }
}

TEST_P(CrossValidation, EffortNeverExceedsProcessorDemandGrossly) {
  // The new tests' whole point: on no workload family may their mean
  // effort exceed the processor-demand test's by more than a small
  // constant (they are usually far below it).
  Rng rng = make_rng();
  std::uint64_t pd = 0;
  std::uint64_t dyn = 0;
  std::uint64_t aa = 0;
  for (int i = 0; i < 15; ++i) {
    const TaskSet ts = draw(rng);
    pd += processor_demand_test(ts).iterations;
    dyn += dynamic_error_test(ts).effort();
    aa += all_approx_test(ts).effort();
  }
  EXPECT_LE(dyn, 3 * pd + 500) << "dynamic test effort out of line";
  EXPECT_LE(aa, 3 * pd + 500) << "all-approx effort out of line";
}

std::string workload_name(
    const ::testing::TestParamInfo<std::tuple<int, std::uint64_t>>& info) {
  static const char* const names[] = {"SmallMid", "SmallHigh", "PaperMid",
                                      "PaperHigh"};
  return std::string(names[std::get<0>(info.param)]) + "_seed" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, CrossValidation,
    ::testing::Combine(::testing::Range(0, 4),
                       ::testing::Values<std::uint64_t>(1, 2, 3, 4, 5)),
    workload_name);

TEST(CrossValidationEdge, JitterTightensVerdictMonotonically) {
  // Adding release jitter can only make a set harder: a set infeasible
  // without jitter stays infeasible with it.
  Rng rng(77);
  for (int i = 0; i < 25; ++i) {
    const TaskSet base = draw_small_set(rng, rng.uniform(0.7, 1.0));
    TaskSet jittered;
    for (Task t : base) {
      t.jitter = std::min<Time>(t.deadline - 1, 1);
      jittered.add(std::move(t));
    }
    const bool base_ok = processor_demand_test(base).feasible();
    const bool jit_ok = processor_demand_test(jittered).feasible();
    if (jit_ok) {
      EXPECT_TRUE(base_ok) << base.to_string();
    }
    // And the new tests agree on the jittered variant too.
    EXPECT_EQ(processor_demand_test(jittered).verdict,
              all_approx_test(jittered).verdict);
    EXPECT_EQ(processor_demand_test(jittered).verdict,
              dynamic_error_test(jittered).verdict);
  }
}

TEST(CrossValidationEdge, ScalingInvariance) {
  // Multiplying all task parameters by a constant must not change any
  // verdict (pure integer-time scaling).
  Rng rng(101);
  for (int i = 0; i < 20; ++i) {
    const TaskSet base = draw_small_set(rng, rng.uniform(0.6, 1.0));
    const TaskSet scaled = base.scaled(1000);
    EXPECT_EQ(processor_demand_test(base).verdict,
              processor_demand_test(scaled).verdict);
    EXPECT_EQ(all_approx_test(base).verdict,
              all_approx_test(scaled).verdict);
    EXPECT_EQ(dynamic_error_test(base).verdict,
              dynamic_error_test(scaled).verdict);
    EXPECT_EQ(devi_test(base).verdict, devi_test(scaled).verdict);
  }
}

}  // namespace
}  // namespace edfkit
