#include "admission/engine.hpp"

#include <gtest/gtest.h>

#include <future>
#include <thread>
#include <vector>

#include "helpers.hpp"

namespace edfkit {
namespace {

using testing::tk;

TEST(AdmissionEngine, RejectsZeroShards) {
  EngineOptions opts;
  opts.shards = 0;
  EXPECT_THROW(AdmissionEngine{opts}, std::invalid_argument);
}

TEST(AdmissionEngine, FirstFitFillsLowShardsFirst) {
  EngineOptions opts;
  opts.shards = 3;
  opts.workers = 1;
  opts.placement = PlacementPolicy::FirstFit;
  AdmissionEngine engine(opts);
  // Each shard holds exactly two of these (U = 0.5 each).
  for (int i = 0; i < 4; ++i) {
    const PlacementDecision d = engine.admit(tk(5, 10, 10));
    ASSERT_TRUE(d.admitted);
    EXPECT_EQ(d.id.shard, static_cast<std::uint32_t>(i / 2));
  }
  const EngineStats s = engine.stats();
  EXPECT_EQ(s.shard_resident[0], 2u);
  EXPECT_EQ(s.shard_resident[1], 2u);
  EXPECT_EQ(s.shard_resident[2], 0u);
}

TEST(AdmissionEngine, WorstFitBalances) {
  EngineOptions opts;
  opts.shards = 4;
  opts.workers = 1;
  opts.placement = PlacementPolicy::WorstFit;
  AdmissionEngine engine(opts);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(engine.admit(tk(1, 10, 10)).admitted);
  }
  const EngineStats s = engine.stats();
  for (std::size_t i = 0; i < engine.shards(); ++i) {
    EXPECT_EQ(s.shard_resident[i], 2u) << "shard " << i;
  }
}

TEST(AdmissionEngine, CapacityScalesWithShards) {
  // Four tasks of U = 0.6 cannot share fewer than 4 processors.
  for (const std::size_t shards : {std::size_t{2}, std::size_t{4}}) {
    EngineOptions opts;
    opts.shards = shards;
    opts.workers = 1;
    AdmissionEngine engine(opts);
    std::size_t admitted = 0;
    for (int i = 0; i < 4; ++i) {
      const PlacementDecision d = engine.admit(tk(6, 10, 10));
      admitted += d.admitted ? 1 : 0;
      if (!d.admitted) {
        EXPECT_EQ(d.shards_tried, shards);  // tried everywhere
      }
    }
    EXPECT_EQ(admitted, shards);
  }
}

TEST(AdmissionEngine, RemoveAndInvalidIds) {
  EngineOptions opts;
  opts.shards = 2;
  opts.workers = 1;
  AdmissionEngine engine(opts);
  const PlacementDecision d = engine.admit(tk(1, 5, 10));
  ASSERT_TRUE(d.admitted);
  EXPECT_TRUE(engine.remove(d.id));
  EXPECT_FALSE(engine.remove(d.id));  // gone
  EXPECT_FALSE(engine.remove(GlobalTaskId{}));
  EXPECT_FALSE(engine.remove(GlobalTaskId{99, 1}));  // bad shard
  EXPECT_EQ(engine.stats().resident, 0u);
}

TEST(AdmissionEngine, SubmitRunsOnWorkerPool) {
  EngineOptions opts;
  opts.shards = 2;
  opts.workers = 2;
  AdmissionEngine engine(opts);
  std::vector<std::future<PlacementDecision>> futs;
  for (int i = 0; i < 16; ++i) futs.push_back(engine.submit(tk(1, 20, 40)));
  std::size_t admitted = 0;
  for (auto& f : futs) admitted += f.get().admitted ? 1 : 0;
  EXPECT_EQ(admitted, 16u);
  EXPECT_EQ(engine.stats().resident, 16u);
}

TEST(AdmissionEngine, ConcurrentChurnKeepsEveryShardFeasible) {
  EngineOptions opts;
  opts.shards = 4;
  opts.workers = 2;
  opts.placement = PlacementPolicy::WorstFit;
  AdmissionEngine engine(opts);

  const auto client = [&](std::uint64_t seed) {
    Rng rng(seed);
    std::vector<GlobalTaskId> mine;
    for (int i = 0; i < 200; ++i) {
      if (!mine.empty() && rng.bernoulli(0.4)) {
        const std::size_t pick = static_cast<std::size_t>(
            rng.uniform_time(0, static_cast<Time>(mine.size()) - 1));
        engine.remove(mine[pick]);
        mine[pick] = mine.back();
        mine.pop_back();
      } else {
        const Time period = rng.uniform_time(10, 100);
        const Time deadline = rng.uniform_time(5, period);
        const Time wcet = rng.uniform_time(1, std::max<Time>(1, deadline / 4));
        const PlacementDecision d = engine.admit(tk(wcet, deadline, period));
        if (d.admitted) mine.push_back(d.id);
      }
    }
  };
  {
    std::vector<std::thread> clients;
    for (std::uint64_t s = 1; s <= 4; ++s) clients.emplace_back(client, s);
    for (std::thread& c : clients) c.join();
  }

  const EngineStats s = engine.stats();
  EXPECT_EQ(s.admission.arrivals, s.admission.admitted + s.admission.rejected);
  std::size_t resident = 0;
  for (std::size_t i = 0; i < engine.shards(); ++i) {
    resident += s.shard_resident[i];
    // The partitioned invariant: every shard's resident set is provably
    // EDF-feasible under an exact from-scratch test. (QPA: the resident
    // utilization can end up arbitrarily close to 1, where the plain
    // processor-demand test's bound explodes.)
    const FeasibilityResult r = engine.analyze_shard(i, TestKind::Qpa);
    EXPECT_TRUE(engine.shard_snapshot(i).empty() || r.feasible())
        << "shard " << i;
  }
  EXPECT_EQ(resident, s.resident);
}

}  // namespace
}  // namespace edfkit
