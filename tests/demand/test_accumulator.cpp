#include "demand/accumulator.hpp"

#include <gtest/gtest.h>

#include "../helpers.hpp"
#include "demand/approx.hpp"
#include "demand/dbf.hpp"
#include "util/fixedpoint.hpp"
#include "util/random.hpp"

namespace edfkit {
namespace {

TEST(Accumulator, ExactJobsOnly) {
  const TaskSet ts;
  DemandAccumulator acc(ts);
  acc.add_job(3);
  acc.add_job(4);
  EXPECT_EQ(acc.compare_demand(7), Ordering::Less);    // 7 <= 7
  EXPECT_EQ(acc.compare_demand(6), Ordering::Greater); // 7 > 6
}

TEST(Accumulator, ApproximatedSlopeAccrues) {
  const Task t = testing::tk(2, 10, 10);  // utilization 1/5
  const TaskSet ts = testing::set_of({t});
  DemandAccumulator acc(ts);
  acc.add_job(t.wcet);   // frontier at the first deadline, demand 2
  acc.approximate(0);
  EXPECT_TRUE(acc.approximated(0));
  acc.advance(10);       // +10 * 1/5 = 2 -> demand 4 at I=20
  // The raw interval decides clear thresholds...
  EXPECT_EQ(acc.compare_demand(5), Ordering::Less);
  EXPECT_EQ(acc.compare_demand(3), Ordering::Greater);
  // ...and is ambiguous exactly at the hairline (2^62 % 5 != 0), where
  // the refresh path (at the frontier, I = 20) settles cleanly.
  EXPECT_EQ(acc.compare_demand(4), Ordering::Unknown);
  bool degraded = false;
  EXPECT_EQ(acc.compare_with_refresh(20, &degraded), Ordering::Less);
  EXPECT_FALSE(degraded);
}

TEST(Accumulator, ReviseRestoresExactDemand) {
  // Approximate at the first deadline, advance past it, revise: the
  // value must equal the exact dbf again.
  const Task t = testing::tk(3, 8, 10);
  const TaskSet ts = testing::set_of({t});
  DemandAccumulator acc(ts);
  acc.add_job(t.wcet);
  acc.approximate(0);
  acc.advance(5);  // frontier 13; envelope = 3*(13-8+10)/10 = 4.5
  acc.revise(0, 13);  // exact dbf(13) = 3
  EXPECT_FALSE(acc.approximated(0));
  EXPECT_EQ(acc.compare_demand(4), Ordering::Less);
  EXPECT_EQ(acc.compare_demand(2), Ordering::Greater);
}

TEST(Accumulator, CompareWithRefreshSettlesEquality) {
  // Construct a case where dbf' == I exactly (utilization 1/2 task,
  // approximated; at I = 16 the envelope is 8 exactly... pick values so
  // the incremental interval straddles and rationals resolve it).
  const Task t = testing::tk(5, 10, 10);
  const TaskSet ts = testing::set_of({t});
  DemandAccumulator acc(ts);
  acc.add_job(t.wcet);
  acc.approximate(0);
  acc.advance(10);  // frontier 20: envelope 5*(20-10+10)/10 = 10
  bool degraded = false;
  // demand exactly 10 vs capacity 10: must be proven <=.
  EXPECT_EQ(acc.compare_with_refresh(20, &degraded), Ordering::Less);
  EXPECT_FALSE(degraded);
}

TEST(RecomputeScaled, BracketsRationalRecompute) {
  Rng rng(21);
  for (int trial = 0; trial < 20; ++trial) {
    const TaskSet ts = draw_small_set(rng, rng.uniform(0.4, 1.0));
    std::vector<bool> approx(ts.size());
    for (std::size_t i = 0; i < ts.size(); ++i) approx[i] = rng.bernoulli(0.5);
    // Only intervals at/after each approximated task's first deadline
    // are meaningful envelope inputs; use a large interval.
    const Time interval = 500 + rng.uniform_time(0, 500);
    const ScaledDemand sd = recompute_demand_scaled(ts, approx, interval);
    const Rational exact = recompute_demand(ts, approx, interval);
    ASSERT_TRUE(exact.exact());
    const double val = exact.to_double();
    const double s = static_cast<double>(kFixedPointScale);
    EXPECT_LE(static_cast<double>(sd.lo) / s, val + 1e-9);
    EXPECT_GE(static_cast<double>(sd.hi) / s, val - 1e-9);
  }
}

/// Property: an incremental walk over every task's first deadline
/// (advance + add_job + approximate, ties grouped) stays within one
/// fixed-point unit per operation of the from-scratch recompute.
class AccumulatorWalk : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AccumulatorWalk, IncrementalMatchesRecompute) {
  Rng rng(GetParam());
  const TaskSet ts = draw_small_set(rng, rng.uniform(0.4, 0.95));
  std::vector<bool> approximated(ts.size(), false);
  std::vector<std::size_t> order(ts.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return ts[a].effective_deadline() < ts[b].effective_deadline();
  });
  DemandAccumulator acc(ts);
  Time frontier = 0;
  std::size_t k = 0;
  while (k < order.size()) {
    const Time point = ts[order[k]].effective_deadline();
    acc.advance(point - frontier);
    frontier = point;
    // Drain every task whose first deadline sits at this point, so the
    // incremental state and the approximated[] flags describe the same
    // configuration before comparing.
    while (k < order.size() &&
           ts[order[k]].effective_deadline() == point) {
      acc.add_job(ts[order[k]].wcet);
      acc.approximate(order[k]);
      approximated[order[k]] = true;
      ++k;
    }
    for (std::size_t i = 0; i < ts.size(); ++i) {
      ASSERT_EQ(acc.approximated(i), approximated[i]) << "task " << i;
    }
    const ScaledDemand sd = recompute_demand_scaled(ts, approximated, point);
    // Any comparison the fresh bounds decide at the frontier, the
    // incremental state must decide identically (same true value).
    const ScaledCompare fresh =
        compare_scaled(ScaledPair{sd.lo, sd.hi}, point);
    bool degraded = false;
    DemandAccumulator copy = acc;
    const Ordering inc = copy.compare_with_refresh(point, &degraded);
    EXPECT_FALSE(degraded);
    if (fresh == ScaledCompare::LessOrEqual) {
      EXPECT_NE(inc, Ordering::Greater) << "point " << point;
    } else if (fresh == ScaledCompare::Greater) {
      EXPECT_EQ(inc, Ordering::Greater) << "point " << point;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AccumulatorWalk,
                         ::testing::Range<std::uint64_t>(0, 12));

}  // namespace
}  // namespace edfkit
