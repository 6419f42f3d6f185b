/// \file test_pipeline.cpp
/// The high-throughput admission pipeline: tombstoned removals against
/// a store rebuilt before every scan (differential fuzz), batch group
/// admission (atomicity, rollback bit-identity, per-task-loop
/// agreement), and the demand store's header and its epoch.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "admission/controller.hpp"
#include "admission/replay.hpp"
#include "admission/snapshot.hpp"
#include "analysis/processor_demand.hpp"
#include "demand/task_view.hpp"
#include "helpers.hpp"

namespace edfkit {
namespace {

using testing::tk;

// ---------------------------------------------------------- tombstones

/// A churned store must agree on every verdict with a twin that takes
/// the same operations but calls rebuild() before every check() — the
/// from-scratch reference, rebuilt from the rows at their levels with
/// no tombstones — and both must match their own rebuilds through
/// churn at U -> 1. EDFKIT_FUZZ_MULT deepens the churn (the nightly
/// long-fuzz workflow runs 20x); a divergence drops a repro artifact
/// for upload.
TEST(Tombstones, DifferentialFuzzAgainstRebuild) {
  Rng rng(20050307);
  IncrementalDemand rebuilt(0.25);
  IncrementalDemand lazy(0.25);
  rebuilt.set_index_thresholds(0, 0);
  lazy.set_index_thresholds(0, 0);
  std::vector<std::pair<TaskId, TaskId>> live;
  std::vector<Task> pool;
  std::size_t max_dead = 0;
  const int ops =
      1200 * static_cast<int>(testing::fuzz_multiplier());
  for (int op = 0; op < ops; ++op) {
    if (pool.empty()) {
      const TaskSet ts = draw_small_set(rng, 0.99);  // ride the boundary
      pool.assign(ts.begin(), ts.end());
    }
    if (!live.empty() && rng.bernoulli(0.45)) {
      const std::size_t pick = static_cast<std::size_t>(
          rng.uniform_time(0, static_cast<Time>(live.size()) - 1));
      ASSERT_TRUE(rebuilt.remove(live[pick].first));
      ASSERT_TRUE(lazy.remove(live[pick].second));
      live[pick] = live.back();
      live.pop_back();
    } else {
      live.emplace_back(rebuilt.add(pool.back()), lazy.add(pool.back()));
      pool.pop_back();
    }
    rebuilt.rebuild();
    const DemandCheck a = rebuilt.check();
    const DemandCheck b = lazy.check();
    if (a.fits != b.fits || a.overflow_proof != b.overflow_proof) {
      testing::write_fuzz_artifact(
          "tombstone_fuzz_divergence.txt",
          "tombstone-vs-rebuild divergence\nseed=20050307 op=" +
              std::to_string(op) + " rebuilt.fits=" +
              std::to_string(a.fits) + " lazy.fits=" +
              std::to_string(b.fits) + "\n");
    }
    ASSERT_EQ(a.fits, b.fits) << "op " << op;
    ASSERT_EQ(a.overflow_proof, b.overflow_proof) << "op " << op;
    if (a.overflow_proof) {
      ASSERT_EQ(a.witness, b.witness) << "op " << op;
    }
    ASSERT_EQ(rebuilt.checkpoint_count(), lazy.checkpoint_count())
        << "op " << op;
    EXPECT_EQ(rebuilt.dead_checkpoints(), 0u);  // rebuild leaves none
    max_dead = std::max(max_dead, lazy.dead_checkpoints());
    if (op % 64 == 0) {
      ASSERT_TRUE(rebuilt.matches_rebuild()) << "op " << op;
      ASSERT_TRUE(lazy.matches_rebuild()) << "op " << op;
    }
  }
  // Tombstones actually accumulate between compactions (the mechanism
  // is exercised), but deferred compaction keeps them bounded.
  EXPECT_GT(max_dead, 0u);
  EXPECT_LT(max_dead,
            lazy.checkpoint_count() + lazy.dead_checkpoints() + 4096);
}

TEST(Tombstones, RemovalBurstDefersThenCompacts) {
  // A drain leaves tombstones rather than memmoving the store; deferred
  // compaction reclaims them, and removing everything empties the live
  // view either way.
  IncrementalDemand d(0.25);
  d.set_index_thresholds(SIZE_MAX, SIZE_MAX);  // one flat segment
  Rng rng(3);
  const TaskSet ts = draw_fig8_set(rng, 0.7);
  std::vector<TaskId> ids;
  ids.reserve(ts.size());
  for (const Task& t : ts) ids.push_back(d.add(t));
  ASSERT_TRUE(d.check().fits);
  const std::size_t before = d.checkpoint_count();
  std::size_t seen_dead = 0;
  for (const TaskId id : ids) {
    ASSERT_TRUE(d.remove(id));
    seen_dead = std::max(seen_dead, d.dead_checkpoints());
  }
  EXPECT_GT(before, 0u);
  EXPECT_GT(seen_dead, 0u);  // tombstones appeared mid-burst
  EXPECT_EQ(d.size(), 0u);
  EXPECT_EQ(d.checkpoint_count(), 0u);  // no live checkpoints remain
  EXPECT_TRUE(d.check().fits);
  EXPECT_TRUE(d.matches_rebuild());
}

// ------------------------------------------------------- group admits

TEST(GroupAdmit, EmptyAndImplicitGroups) {
  AdmissionController ctl;
  const GroupDecision none = ctl.admit_group({});
  EXPECT_TRUE(none.admitted);
  EXPECT_TRUE(none.ids.empty());
  EXPECT_EQ(ctl.size(), 0u);

  // Implicit deadlines at U <= 1: settled by the utilization rung.
  const std::vector<Task> g{tk(1, 10, 10), tk(2, 20, 20), tk(3, 30, 30)};
  const GroupDecision d = ctl.admit_group(g);
  EXPECT_TRUE(d.admitted);
  EXPECT_EQ(d.ids.size(), 3u);
  EXPECT_EQ(d.rung, AdmissionRung::Utilization);
  EXPECT_EQ(ctl.size(), 3u);
  EXPECT_EQ(ctl.stats().groups, 2u);
  EXPECT_EQ(ctl.stats().arrivals, 3u);
}

TEST(GroupAdmit, OverUtilizationGroupRejectedWithoutMutation) {
  AdmissionController ctl;
  (void)ctl.admit_group(std::vector<Task>{tk(4, 8, 8)});
  const AdmissionStats pre = ctl.stats();
  // Sum utilization 0.5 + 0.4 + 0.4 > 1: rung-1 infeasibility proof.
  const std::vector<Task> g{tk(4, 10, 10), tk(4, 10, 10)};
  const GroupDecision d = ctl.admit_group(g);
  EXPECT_FALSE(d.admitted);
  EXPECT_TRUE(d.ids.empty());
  EXPECT_EQ(d.rung, AdmissionRung::Utilization);
  EXPECT_EQ(d.analysis.verdict, Verdict::Infeasible);
  EXPECT_EQ(ctl.size(), 1u);
  EXPECT_EQ(ctl.stats().rejected, pre.rejected + 2);
  EXPECT_TRUE(ctl.verify_consistency());
}

TEST(GroupAdmit, RejectionRollbackRestoresMembership) {
  AdmissionOptions opts;
  opts.skip_exact = true;  // force the rollback path on borderline sets
  AdmissionController ctl(opts);
  Rng rng(23);
  // Fill from a handful of moderate pools (whatever admits, admits).
  for (int round = 0; round < 6; ++round) {
    const TaskSet ts = draw_small_set(rng, 0.6);
    for (const Task& t : ts) (void)ctl.try_admit(t);
  }
  ASSERT_GT(ctl.size(), 0u);
  ASSERT_TRUE(ctl.verify_consistency());

  // Groups that pass the utilization rung (tiny u) but provably
  // overflow a tight deadline force the tentative-insert + rollback
  // path; drawn groups add variety (any reject must also roll back).
  // The baseline is re-captured per trial: a rejected group keeps the
  // refinement its scan learned (like a rejected single arrival), but
  // membership and every aggregate return exact-inverse.
  int rejections = 0;
  for (int trial = 0; trial < 60 && rejections < 5; ++trial) {
    const TaskSet before = ctl.snapshot();
    const StoreHeader h_before = ctl.demand_header();
    std::vector<Task> g;
    if (trial % 2 == 0) {
      // dbf(6) = 15 > 6 while U stays ~0.015: overflow-proof reject.
      g = {tk(5, 6, 1000), tk(5, 6, 1000), tk(5, 6, 1000)};
    } else {
      const TaskSet extra = draw_small_set(rng, 0.5);
      g.assign(extra.begin(), extra.end());
    }
    const GroupDecision d = ctl.admit_group(g);
    if (d.admitted) {
      // Keep the store roughly where it was for the next trial.
      for (const TaskId id : d.ids) ASSERT_TRUE(ctl.remove(id));
      continue;
    }
    ++rejections;
    const TaskSet after = ctl.snapshot();
    ASSERT_EQ(before.size(), after.size());
    for (std::size_t i = 0; i < before.size(); ++i) {
      EXPECT_EQ(before[i].wcet, after[i].wcet) << i;
      EXPECT_EQ(before[i].deadline, after[i].deadline) << i;
      EXPECT_EQ(before[i].period, after[i].period) << i;
    }
    // The incremental aggregates still equal a from-scratch rebuild —
    // tombstones left by the rollback are invisible.
    EXPECT_EQ(ctl.demand_header().residents, h_before.residents);
    ASSERT_TRUE(ctl.verify_consistency());
  }
  EXPECT_GT(rejections, 0);  // the rollback path actually ran
}

/// The per-task all-or-nothing loop (admit each; roll back on the first
/// reject) is the semantic baseline for admit_group. With the exact
/// rung enabled both must agree decision-for-decision: EDF feasibility
/// is monotone under subsets, so "union feasible" == "every prefix
/// feasible".
TEST(GroupAdmit, AgreesWithPerTaskRollbackLoop) {
  ChurnConfig churn;
  churn.warmup_arrivals = 40;
  churn.events = 300;
  churn.pool_utilization = 0.95;
  churn.family = ChurnConfig::Family::Fixed;
  churn.fixed_tasks = 40;
  churn.group_probability = 0.35;
  churn.group_size = 5;
  Rng rng(77);
  const std::vector<TraceEvent> trace = generate_churn_trace(rng, churn);

  AdmissionOptions opts;  // full ladder: decisions are exact-backed
  AdmissionController grouped(opts);
  AdmissionController looped(opts);
  std::vector<std::pair<std::uint64_t, std::vector<TaskId>>> g_live;
  std::vector<std::pair<std::uint64_t, std::vector<TaskId>>> l_live;

  const auto depart = [](auto& live, AdmissionController& ctl,
                         std::uint64_t key) {
    for (std::size_t i = 0; i < live.size(); ++i) {
      if (live[i].first != key) continue;
      for (const TaskId id : live[i].second) {
        EXPECT_TRUE(ctl.remove(id));
      }
      live[i] = live.back();
      live.pop_back();
      return;
    }
  };

  for (const TraceEvent& ev : trace) {
    if (ev.op == TraceOp::Depart) {
      depart(g_live, grouped, ev.key);
      depart(l_live, looped, ev.key);
      continue;
    }
    const std::vector<Task> group =
        ev.op == TraceOp::ArriveGroup ? ev.group
                                      : std::vector<Task>{ev.task};
    const GroupDecision gd = grouped.admit_group(group);
    // Per-task baseline: admit in order, roll back on first reject.
    std::vector<TaskId> ids;
    bool all = true;
    for (const Task& t : group) {
      const AdmissionDecision d = looped.try_admit(t);
      if (!d.admitted) {
        all = false;
        break;
      }
      ids.push_back(d.id);
    }
    if (!all) {
      for (auto it = ids.rbegin(); it != ids.rend(); ++it) {
        ASSERT_TRUE(looped.remove(*it));
      }
      ids.clear();
    }
    ASSERT_EQ(gd.admitted, all) << "key " << ev.key;
    if (gd.admitted) {
      g_live.emplace_back(ev.key, gd.ids);
      l_live.emplace_back(ev.key, ids);
    }
  }
  EXPECT_TRUE(grouped.verify_consistency());
  EXPECT_TRUE(looped.verify_consistency());
  EXPECT_GT(grouped.stats().groups, 0u);
}

TEST(GroupAdmit, ReplayDrivesGroupTraces) {
  ChurnConfig churn;
  churn.warmup_arrivals = 20;
  churn.events = 400;
  churn.pool_utilization = 0.9;
  churn.family = ChurnConfig::Family::Fixed;
  churn.fixed_tasks = 30;
  churn.group_probability = 0.5;
  churn.group_size = 4;
  Rng rng(123);
  const std::vector<TraceEvent> trace = generate_churn_trace(rng, churn);
  AdmissionOptions opts;
  opts.skip_exact = true;
  AdmissionController ctl(opts);
  const ReplayStats stats = replay_trace(trace, ctl);
  EXPECT_GT(stats.groups, 0u);
  EXPECT_EQ(stats.admitted + stats.rejected, stats.arrivals);
  EXPECT_TRUE(ctl.verify_consistency());
}

TEST(GroupAdmit, GroupCertificateCoverIsSound) {
  // The read-only group cover simulation must only ever approve groups
  // whose union is provably feasible (it mirrors the sequential
  // cover-then-charge walk the real adds perform).
  Rng rng(31);
  int covered_groups = 0;
  for (int trial = 0; trial < 40; ++trial) {
    IncrementalDemand d(0.25);
    const TaskSet ts = draw_small_set(rng, 0.55);
    for (const Task& t : ts) (void)d.add(t);
    if (!d.check().fits) continue;  // publish a certificate
    // Light long-deadline members plus one drawn task: a group shape
    // the decayed per-region charges can actually cover.
    std::vector<Task> g{tk(1, 400, 400), tk(1, 800, 800)};
    const TaskSet extra = draw_small_set(rng, 0.1);
    if (!extra.empty()) g.push_back(extra[0]);
    if (!d.certificate_covers(std::span<const Task>(g))) continue;
    ++covered_groups;
    std::vector<TaskId> ids;
    d.add_group(g, ids);
    EXPECT_TRUE(processor_demand_test(d.resident()).feasible())
        << d.resident().to_string();
  }
  EXPECT_GT(covered_groups, 3);  // the fast path actually fires
}

TEST(GroupAdmit, TaskViewBatchInsertIsAllOrNothing) {
  TaskView v;
  const std::vector<Task> good{tk(1, 4, 8), tk(2, 6, 12)};
  const std::vector<TaskView::Slot> slots = v.add_batch(good);
  EXPECT_EQ(slots.size(), 2u);
  EXPECT_EQ(v.size(), 2u);
  std::vector<Task> bad{tk(3, 10, 20), tk(0, 4, 8)};  // C == 0 invalid
  EXPECT_THROW((void)v.add_batch(bad), std::invalid_argument);
  EXPECT_EQ(v.size(), 2u);  // untouched: validation precedes insertion
}

// --------------------------------------------------------- read paths

TEST(EpochReads, StoreHeaderReflectsCounters) {
  IncrementalDemand d(0.25);
  const StoreHeader h0 = d.header();
  EXPECT_EQ(h0.epoch, 2u);  // the constructor's step
  EXPECT_EQ(h0.residents, 0u);
  EXPECT_EQ(h0.live_checkpoints, 0u);
  const TaskId a = d.add(tk(1, 4, 8));
  EXPECT_EQ(d.header().epoch, h0.epoch + 2);
  (void)d.check();
  StoreHeader h1 = d.header();
  EXPECT_EQ(h1.epoch, h0.epoch + 4);
  EXPECT_EQ(h1.residents, 1u);
  EXPECT_EQ(h1.live_checkpoints, d.checkpoint_count());
  EXPECT_GE(h1.cert_ratio, 0.0);  // passing scan published a certificate
  EXPECT_NEAR(h1.utilization, 0.125, 1e-9);

  // Const calls and no-op removals leave the epoch alone.
  (void)d.certificate_covers(tk(1, 40, 80));
  (void)d.density_bounds();
  (void)d.utilization();
  EXPECT_FALSE(d.remove(a + 100));
  const TaskId unknown[] = {a + 100, a + 101};
  EXPECT_EQ(d.remove_group(unknown), 0u);
  EXPECT_EQ(d.header().epoch, h1.epoch);

  std::vector<TaskId> ids;
  d.add_group(std::vector<Task>{tk(1, 10, 20), tk(2, 30, 40)}, ids);
  EXPECT_EQ(d.header().epoch, h1.epoch + 2);
  EXPECT_EQ(d.remove_group(ids), 2u);
  EXPECT_EQ(d.header().epoch, h1.epoch + 4);
  d.rebuild();
  EXPECT_EQ(d.header().epoch, h1.epoch + 6);

  ASSERT_TRUE(d.remove(a));
  StoreHeader h2 = d.header();
  EXPECT_EQ(h2.epoch, h1.epoch + 8);
  EXPECT_EQ(h2.residents, 0u);
  EXPECT_EQ(h2.live_checkpoints, 0u);
  EXPECT_EQ(h2.dead_checkpoints, d.dead_checkpoints());

  // The snapshot loader and the cold-recovery reset step it too.
  AdmissionController src;
  (void)src.try_admit(tk(1, 4, 8));
  AdmissionController ctl;
  const std::uint64_t e0 = ctl.demand_header().epoch;
  (void)load_snapshot_bytes(ctl, encode_snapshot(src, 0));
  EXPECT_EQ(ctl.demand_header().epoch, e0 + 2);
  EXPECT_EQ(ctl.demand_header().residents, 1u);
  (void)recover(ctl, "", "");
  EXPECT_EQ(ctl.demand_header().epoch, e0 + 4);
  EXPECT_EQ(ctl.demand_header().residents, 0u);
}

}  // namespace
}  // namespace edfkit
