#include "admission/replay.hpp"

#include <gtest/gtest.h>

#include <set>

#include "helpers.hpp"

namespace edfkit {
namespace {

TEST(ChurnTrace, ValidatesConfig) {
  ChurnConfig bad;
  bad.depart_probability = 1.5;
  Rng rng(1);
  EXPECT_THROW(generate_churn_trace(rng, bad), std::invalid_argument);
  bad = ChurnConfig{};
  bad.pool_utilization = 0.0;
  EXPECT_THROW(generate_churn_trace(rng, bad), std::invalid_argument);
}

TEST(ChurnTrace, DeterministicAndWellFormed) {
  ChurnConfig cfg;
  cfg.events = 300;
  cfg.warmup_arrivals = 10;
  cfg.family = ChurnConfig::Family::Small;
  Rng a(99);
  Rng b(99);
  const auto t1 = generate_churn_trace(a, cfg);
  const auto t2 = generate_churn_trace(b, cfg);
  ASSERT_EQ(t1.size(), t2.size());
  EXPECT_EQ(t1.size(), cfg.events + cfg.warmup_arrivals);
  std::size_t arrivals = 0;
  std::set<std::uint64_t> seen;
  std::set<std::uint64_t> departed;
  for (std::size_t i = 0; i < t1.size(); ++i) {
    EXPECT_EQ(t1[i].op, t2[i].op);
    EXPECT_EQ(t1[i].key, t2[i].key);
    if (t1[i].op == TraceOp::Arrive) {
      ++arrivals;
      EXPECT_TRUE(t1[i].task == t2[i].task);
      EXPECT_TRUE(seen.insert(t1[i].key).second) << "duplicate arrival key";
    } else {
      // Departures reference an earlier arrival, at most once.
      EXPECT_TRUE(seen.count(t1[i].key) == 1);
      EXPECT_TRUE(departed.insert(t1[i].key).second);
    }
  }
  EXPECT_GE(arrivals, cfg.warmup_arrivals);
  // Warmup is all arrivals.
  for (std::size_t i = 0; i < cfg.warmup_arrivals; ++i) {
    EXPECT_EQ(t1[i].op, TraceOp::Arrive);
  }
}

TEST(Replay, ControllerStatsAddUp) {
  ChurnConfig cfg;
  cfg.events = 400;
  cfg.family = ChurnConfig::Family::Small;
  cfg.pool_utilization = 0.9;
  Rng rng(7);
  const auto trace = generate_churn_trace(rng, cfg);

  AdmissionController ctl;
  const ReplayStats s = replay_trace(trace, ctl);
  EXPECT_EQ(s.admitted + s.rejected, s.arrivals);
  std::uint64_t by_rung = 0;
  for (const std::uint64_t c : s.by_rung) by_rung += c;
  EXPECT_EQ(by_rung, s.arrivals);
  // Resident accounting: admitted minus applied departures.
  EXPECT_EQ(ctl.size(),
            s.admitted - (s.departures - s.skipped_departures));
  EXPECT_GE(s.peak_resident, ctl.size());
  EXPECT_GT(s.peak_utilization, 0.0);
  // The invariant after the whole trace.
  EXPECT_TRUE(ctl.empty() || ctl.analyze_resident().feasible());
  EXPECT_NE(s.to_string().find("arrivals="), std::string::npos);
}

TEST(Replay, FixedFamilyHonorsTaskCount) {
  ChurnConfig cfg;
  cfg.events = 0;
  cfg.warmup_arrivals = 12;
  cfg.family = ChurnConfig::Family::Fixed;
  cfg.fixed_tasks = 12;
  cfg.pool_utilization = 0.8;
  Rng rng(3);
  const auto trace = generate_churn_trace(rng, cfg);
  ASSERT_EQ(trace.size(), 12u);
  double u = 0.0;
  for (const TraceEvent& ev : trace) u += ev.task.utilization_double();
  EXPECT_NEAR(u, 0.8, 0.05);  // one generated set, flattened in order
}

}  // namespace
}  // namespace edfkit
