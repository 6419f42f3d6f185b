/// \file test_regression.cpp
/// Golden-value pins: exact iteration counts and verdicts for fixed
/// inputs. These lock down the instrumented behaviour the bench/ figure
/// and table programs print; any algorithmic change that shifts them must
/// be deliberate.
#include <gtest/gtest.h>

#include "../helpers.hpp"
#include "analysis/bounds.hpp"
#include "analysis/devi.hpp"
#include "analysis/processor_demand.hpp"
#include "core/all_approx.hpp"
#include "core/dynamic_test.hpp"
#include "lit/literature.hpp"
#include "model/io.hpp"

namespace edfkit {
namespace {

using testing::set_of;
using testing::tk;

TEST(Regression, QuickstartDemoSet) {
  const TaskSet ts = parse_task_set(R"(
    task video    2   8   20
    task audio    3  25   30
    task control  4  40   50
    task sensor   6  60   70
    task fusion   9  90  100
    task plan    14 140  150
    task log     20 190  200
    task net     30 290  300
    task disk    46 390  400
    task ui      72 580  600
  )");
  EXPECT_EQ(ts.utilization().to_string(), "4133/4200");
  EXPECT_EQ(devi_test(ts).verdict, Verdict::Unknown);

  const FeasibilityResult dyn = dynamic_error_test(ts);
  EXPECT_EQ(dyn.verdict, Verdict::Feasible);
  EXPECT_EQ(dyn.iterations, 11u);
  EXPECT_EQ(dyn.revisions, 2u);

  const FeasibilityResult aa = all_approx_test(ts);
  EXPECT_EQ(aa.verdict, Verdict::Feasible);
  EXPECT_EQ(aa.iterations, 14u);
  EXPECT_EQ(aa.revisions, 5u);

  const FeasibilityResult pd = processor_demand_test(ts);
  EXPECT_EQ(pd.verdict, Verdict::Feasible);
  EXPECT_EQ(pd.iterations, 78u);
}

TEST(Regression, LiteratureTable1) {
  // Our measured Table 1 (bench/table1_literature prints it; its file
  // comment lists the paper's values): iteration counts per set.
  struct Row {
    const char* name;
    bool devi_ok;
    std::uint64_t dyn_effort;
    std::uint64_t aa_effort;
    std::uint64_t pd_iters;
  };
  const Row expect[] = {
      {"Burns", true, 14, 14, 843},
      {"Ma&Shin", false, 13, 19, 78},
      {"GAP", true, 18, 18, 183},
      {"Gresser1", false, 15, 14, 131},
      {"Gresser2", false, 32, 26, 101},
  };
  const auto sets = lit::all_literature_sets();
  ASSERT_EQ(sets.size(), 5u);
  for (std::size_t i = 0; i < sets.size(); ++i) {
    const Row& row = expect[i];
    const auto& s = sets[i];
    EXPECT_EQ(s.name, row.name);
    EXPECT_EQ(devi_test(s.tasks).feasible(), row.devi_ok) << s.name;
    EXPECT_EQ(dynamic_error_test(s.tasks).effort(), row.dyn_effort) << s.name;
    EXPECT_EQ(all_approx_test(s.tasks).effort(), row.aa_effort) << s.name;
    EXPECT_EQ(processor_demand_test(s.tasks).iterations, row.pd_iters)
        << s.name;
  }
}

TEST(Regression, BoundsOnBurns) {
  const TaskSet burns = lit::burns_set().tasks;
  const auto george = george_bound(burns);
  const auto sup = superposition_bound(burns);
  ASSERT_TRUE(george.has_value());
  ASSERT_TRUE(sup.has_value());
  // Superposition bound = max(Dmax, George) for constrained deadlines.
  EXPECT_EQ(*sup, std::max(burns.max_deadline(), *george));
  EXPECT_EQ(implicit_test_bound(burns), *sup);
}

TEST(Regression, WitnessPin) {
  const TaskSet bad = set_of({tk(3, 4, 8), tk(5, 10, 12), tk(5, 16, 24)});
  EXPECT_EQ(processor_demand_test(bad).witness, 22);
  EXPECT_EQ(all_approx_test(bad).witness, 22);
  EXPECT_EQ(dynamic_error_test(bad).witness, 22);
}

TEST(Regression, GeneratorStability) {
  // The seeded generator underpins every figure; pin one draw.
  Rng rng(42);
  const TaskSet ts = draw_fig8_set(rng, 0.95);
  EXPECT_EQ(ts.size(), 77u);
  EXPECT_NEAR(ts.utilization_double(), 0.95, 0.002);
  Rng rng2(42);
  EXPECT_EQ(draw_fig8_set(rng2, 0.95), ts);
}

}  // namespace
}  // namespace edfkit
