#include "admission/incremental_dbf.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "analysis/chakraborty.hpp"
#include "analysis/processor_demand.hpp"
#include "demand/dbf.hpp"
#include "helpers.hpp"

namespace edfkit {
namespace {

using testing::set_of;
using testing::tk;

TEST(IncrementalDemand, EmptySetFitsAndIsFullySlack) {
  IncrementalDemand d(0.25);
  EXPECT_TRUE(d.empty());
  const DemandCheck c = d.check();
  EXPECT_TRUE(c.fits);
  EXPECT_EQ(d.certificate(), kFixedPointScale);
  EXPECT_EQ(d.utilization_class(), UtilizationClass::BelowOne);
}

TEST(IncrementalDemand, AddRemoveRoundTripsAggregates) {
  IncrementalDemand d(0.25);
  const TaskId a = d.add(tk(1, 4, 8));
  const TaskId b = d.add(tk(2, 6, 12));
  const TaskId c = d.add(tk(3, 10, 20));
  EXPECT_EQ(d.size(), 3u);
  EXPECT_TRUE(d.matches_rebuild());
  EXPECT_TRUE(d.remove(b));
  EXPECT_FALSE(d.remove(b));  // already gone
  EXPECT_TRUE(d.matches_rebuild());
  EXPECT_TRUE(d.remove(a));
  EXPECT_TRUE(d.remove(c));
  EXPECT_TRUE(d.empty());
  EXPECT_EQ(d.checkpoint_count(), 0u);
  EXPECT_TRUE(d.matches_rebuild());
}

TEST(IncrementalDemand, FindAndLevels) {
  IncrementalDemand d(0.5);  // k = 2
  const TaskId id = d.add(tk(1, 5, 10));
  ASSERT_NE(d.find(id), nullptr);
  EXPECT_EQ(d.find(id)->wcet, 1);
  EXPECT_EQ(d.level_of(id), 2);
  EXPECT_EQ(d.find(12345), nullptr);
  EXPECT_EQ(d.level_of(12345), 0);
}

TEST(IncrementalDemand, ExactDbfMatchesOfflineDbf) {
  IncrementalDemand d(0.25);
  d.add(tk(1, 4, 8));
  d.add(tk(2, 6, 12));
  const TaskSet ts = d.snapshot();
  for (const Time i : {1, 4, 6, 8, 12, 16, 24, 100}) {
    EXPECT_EQ(d.exact_dbf_at(i), dbf(ts, i)) << "I=" << i;
  }
}

TEST(IncrementalDemand, UtilizationClassificationMatchesOffline) {
  IncrementalDemand d(0.25);
  d.add(tk(1, 4, 8));
  d.add(tk(3, 8, 8));
  EXPECT_EQ(d.utilization_class(), classify_utilization(d.snapshot()));
  // Push to exactly 1: 1/8 + 3/8 + 4/8 == 1.
  const TaskId id = d.add(tk(4, 8, 8));
  EXPECT_EQ(d.utilization_class(), UtilizationClass::ExactlyOne);
  EXPECT_EQ(classify_utilization(d.snapshot()), UtilizationClass::ExactlyOne);
  // And over.
  d.add(tk(1, 100, 100));
  EXPECT_EQ(d.utilization_class(), UtilizationClass::AboveOne);
  EXPECT_FALSE(d.check().fits);
  d.remove(id);
  EXPECT_NE(d.utilization_class(), UtilizationClass::AboveOne);
}

TEST(IncrementalDemand, BudgetZeroMatchesChakraborty) {
  // With no refinement budget the scan's verdict semantics equal the
  // epsilon-approximate test at level k on the same set.
  Rng rng(42);
  for (int trial = 0; trial < 40; ++trial) {
    const double u = 0.6 + 0.01 * (trial % 40);
    const TaskSet ts = draw_small_set(rng, u);
    for (const double eps : {1.0, 0.5, 0.25, 0.1}) {
      IncrementalDemand d(eps);
      for (const Task& t : ts) d.add(t);
      const DemandCheck c = d.check(/*max_revisions=*/0);
      const ChakrabortyResult ref = chakraborty_test(ts, eps);
      EXPECT_EQ(c.fits, ref.base.feasible())
          << "eps=" << eps << " trial=" << trial << "\n"
          << ts.to_string();
    }
  }
}

TEST(IncrementalDemand, RefinedCheckVerdictsAreExact) {
  // With refinement, fits is a feasibility proof and overflow_proof an
  // infeasibility proof — both must agree with the exact offline test.
  Rng rng(7);
  int proofs = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const double u = 0.8 + 0.003 * trial;
    const TaskSet ts = draw_small_set(rng, u);
    IncrementalDemand d(0.25);
    for (const Task& t : ts) d.add(t);
    const DemandCheck c = d.check();
    const bool feasible = processor_demand_test(ts).feasible();
    if (c.fits) {
      EXPECT_TRUE(feasible) << ts.to_string();
      ++proofs;
    } else if (c.overflow_proof) {
      EXPECT_FALSE(feasible) << ts.to_string();
      EXPECT_GT(dbf(ts, c.witness), c.witness);
      ++proofs;
    }
  }
  // The refined scan decides a healthy share outright (the rest exceed
  // the refinement ceiling on these coarse-period sets and escalate).
  EXPECT_GT(proofs, 10);
}

TEST(IncrementalDemand, CertificateAdmitsAreSound) {
  Rng rng(11);
  int covered = 0;
  for (int trial = 0; trial < 30; ++trial) {
    const TaskSet ts = draw_small_set(rng, 0.6);
    IncrementalDemand d(0.25);
    for (const Task& t : ts) d.add(t);
    if (!d.check().fits) continue;
    const TaskSet extra = draw_small_set(rng, 0.2);
    for (const Task& t : extra) {
      if (!d.certificate_covers(t)) continue;
      ++covered;
      d.add(t);
      // The fast-path admit must preserve provable feasibility.
      EXPECT_TRUE(processor_demand_test(d.snapshot()).feasible())
          << d.snapshot().to_string();
    }
  }
  EXPECT_GT(covered, 5);  // the fast path actually fires
}

TEST(IncrementalDemand, MatchesRebuildUnderRandomChurn) {
  Rng rng(23);
  IncrementalDemand d(0.25);
  std::vector<TaskId> live;
  std::vector<Task> pool;
  for (int i = 0; i < 400; ++i) {
    if (pool.empty()) {
      const TaskSet ts = draw_small_set(rng, 0.9);
      pool.assign(ts.begin(), ts.end());
    }
    if (!live.empty() && rng.bernoulli(0.45)) {
      const std::size_t pick = static_cast<std::size_t>(
          rng.uniform_time(0, static_cast<Time>(live.size()) - 1));
      ASSERT_TRUE(d.remove(live[pick]));
      live[pick] = live.back();
      live.pop_back();
    } else {
      live.push_back(d.add(pool.back()));
      pool.pop_back();
    }
    (void)d.check();  // exercises refinement state as well
    if (i % 16 == 0) {
      ASSERT_TRUE(d.matches_rebuild()) << "op " << i;
    }
  }
}

TEST(IncrementalDemand, OneShotTasksAreSingleCorners) {
  IncrementalDemand d(0.25);
  Task one_shot = tk(2, 10, kTimeInfinity);
  d.add(one_shot);
  EXPECT_EQ(d.checkpoint_count(), 1u);
  EXPECT_TRUE(d.check().fits);
  EXPECT_EQ(d.utilization_double(), 0.0);
  // A second one: demand 4 at I = 10 <= 10 still fits.
  d.add(one_shot);
  EXPECT_TRUE(d.check().fits);
  // Eleven of them overflow interval 10.
  for (int i = 0; i < 9; ++i) d.add(one_shot);
  const DemandCheck c = d.check();
  EXPECT_FALSE(c.fits);
  EXPECT_TRUE(c.overflow_proof);  // one-shots carry no approximation
  EXPECT_EQ(c.witness, 10);
}

TEST(IncrementalDemand, SlackIndexEngagesByResidentCountWithHysteresis) {
  // Default thresholds: the index engages at 48 residents and lets go
  // below 32. Constrained deadlines keep every check on the scan path;
  // distinct deadlines and periods give each task k = 4 checkpoints of
  // its own, and U stays near 0.04 so every segment has slack.
  IncrementalDemand d(0.25);
  const auto task = [](int i) {
    return tk(1, 100 + 7 * i, 1000 + 13 * i);
  };
  std::vector<TaskId> ids;
  const auto expect_one_flat_segment = [&](const char* when) {
    const DemandCheck c = d.check();
    EXPECT_TRUE(c.fits) << when;
    EXPECT_EQ(c.segments_fast_forwarded, 0u) << when;
    EXPECT_EQ(d.header().segments, 1u) << when;
  };

  // Below 48 residents, through adds, removes and checks, the store
  // stays one segment and no scan skips anything.
  for (int i = 0; i < 40; ++i) ids.push_back(d.add(task(i)));
  expect_one_flat_segment("40 residents");
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(d.remove(ids.back()));
    ids.pop_back();
  }
  expect_one_flat_segment("35 residents");
  for (int i = 35; i < 47; ++i) {
    ids.push_back(d.add(task(i)));
    expect_one_flat_segment("below 48 residents");
  }

  // The 48th resident engages the index; with >= 192 live checkpoints
  // the next check partitions the store.
  ids.push_back(d.add(task(47)));
  ASSERT_EQ(d.size(), 48u);
  ASSERT_GE(d.checkpoint_count(), 192u);
  const DemandCheck first = d.check();
  EXPECT_TRUE(first.fits);
  EXPECT_GT(d.header().segments, 1u);

  // Bounds measured by that scan survive a light arrival: the next
  // check fast-forwards segments instead of walking them.
  ids.push_back(d.add(task(48)));
  const DemandCheck later = d.check();
  EXPECT_TRUE(later.fits);
  EXPECT_GE(later.segments_fast_forwarded, 1u);

  // Hysteresis: between the thresholds the store stays partitioned...
  while (d.size() > 32) {
    ASSERT_TRUE(d.remove(ids.back()));
    ids.pop_back();
  }
  EXPECT_TRUE(d.check().fits);
  EXPECT_GT(d.header().segments, 1u);
  // ...and below 32 the next check returns it to one segment.
  ASSERT_TRUE(d.remove(ids.back()));
  ids.pop_back();
  ASSERT_EQ(d.size(), 31u);
  expect_one_flat_segment("31 residents");
  EXPECT_TRUE(d.matches_rebuild());
}

TEST(IncrementalDemand, InvalidEpsilonAndTasksThrow) {
  EXPECT_THROW(IncrementalDemand(0.0), std::invalid_argument);
  EXPECT_THROW(IncrementalDemand(1.5), std::invalid_argument);
  IncrementalDemand d(0.25);
  Task bad = tk(0, 4, 8);  // C must be > 0
  EXPECT_THROW(d.add(bad), std::invalid_argument);
  EXPECT_TRUE(d.empty());
}

}  // namespace
}  // namespace edfkit
