/// \file test_kernel_equivalence.cpp
/// Differential fuzz suite pinning the SoA demand kernel
/// (demand/task_view.hpp) and the cached-slack index
/// (admission/incremental_dbf.hpp) to the legacy scan semantics: flat
/// columns must agree with Task/TaskSet arithmetic everywhere
/// (including add_saturating overflow edges), and an IncrementalDemand
/// with the slack index enabled must decide exactly like one without
/// it on identical churn sequences — U -> 1 saturation and
/// removal-credit churn included.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "admission/incremental_dbf.hpp"
#include "analysis/processor_demand.hpp"
#include "analysis/qpa.hpp"
#include "core/superpos.hpp"
#include "demand/dbf.hpp"
#include "demand/task_view.hpp"
#include "gen/scenario.hpp"
#include "helpers.hpp"

namespace edfkit {
namespace {

using testing::set_of;
using testing::tk;

// --------------------------------------------------------------- columns

TEST(KernelEquivalence, ColumnsMatchTaskArithmeticOnRandomSets) {
  // 600 random sets x several probe intervals: every flat-row helper
  // must agree with the Task-struct arithmetic it replaced.
  Rng rng(20050301);
  for (int trial = 0; trial < 600; ++trial) {
    const double u = 0.3 + 0.0012 * trial;  // spans into U > 1 territory
    const TaskSet ts = draw_small_set(rng, u);
    const TaskColumns cols(ts.tasks());
    ASSERT_EQ(cols.size(), ts.size());
    for (int probe = 0; probe < 8; ++probe) {
      const Time i = rng.uniform_time(1, 5000);
      ASSERT_EQ(columns_dbf(cols, i), dbf(ts, i)) << "I=" << i;
      for (std::size_t r = 0; r < ts.size(); ++r) {
        ASSERT_EQ(row_dbf(cols, r, i), dbf(ts[r], i));
        ASSERT_EQ(row_next_deadline_after(cols, r, i),
                  ts[r].next_deadline_after(i));
        ASSERT_EQ(row_job_deadline(cols, r, probe),
                  ts[r].job_deadline(probe));
      }
    }
  }
}

TEST(KernelEquivalence, ColumnsSaturateExactlyLikeDbf) {
  // add_saturating overflow edges: near-infinite WCETs and deadlines
  // must saturate identically through the flat path.
  const Time huge = kTimeInfinity / 2;
  TaskSet ts;
  ts.add(tk(huge, huge, kTimeInfinity));      // one-shot, giant C
  ts.add(tk(huge, huge + 10, kTimeInfinity));
  ts.add(tk(3, 7, 11));
  const TaskColumns cols(ts.tasks());
  for (const Time i : {Time{1}, Time{7}, huge, huge + 5, huge + 10,
                       kTimeInfinity - 1}) {
    EXPECT_EQ(columns_dbf(cols, i), dbf(ts, i)) << "I=" << i;
  }
  EXPECT_TRUE(is_time_infinite(columns_dbf(cols, kTimeInfinity - 1)));
  // Predecessor-deadline scan agrees with the per-task formula at the
  // saturation boundary too.
  const Time below = columns_max_deadline_below(cols, kTimeInfinity);
  EXPECT_GE(below, huge + 10);
}

TEST(KernelEquivalence, TaskViewSlotsSurviveChurn) {
  // Slot handles stay valid across swap-removes; dense rows and the
  // zero-copy TaskSet always agree with the surviving tasks.
  Rng rng(7);
  TaskView view;
  std::vector<std::pair<TaskView::Slot, Task>> live;
  for (int op = 0; op < 2000; ++op) {
    if (!live.empty() && rng.bernoulli(0.45)) {
      const std::size_t pick = static_cast<std::size_t>(
          rng.uniform_time(0, static_cast<Time>(live.size()) - 1));
      ASSERT_TRUE(view.remove(live[pick].first));
      live[pick] = live.back();
      live.pop_back();
    } else {
      const Task t = tk(1 + rng.uniform_time(1, 9),
                        10 + rng.uniform_time(0, 90),
                        100 + rng.uniform_time(0, 900));
      live.emplace_back(view.add(t), t);
    }
    ASSERT_EQ(view.size(), live.size());
    ASSERT_EQ(view.as_task_set().size(), live.size());
    if (op % 64 == 0) {
      for (const auto& [slot, t] : live) {
        ASSERT_TRUE(view.contains(slot));
        ASSERT_EQ(view[slot], t);
        const std::size_t row = view.row_of(slot);
        ASSERT_EQ(view.columns().wcet[row], t.wcet);
        ASSERT_EQ(view.columns().deadline[row], t.effective_deadline());
        ASSERT_EQ(view.slot_of(row), slot);
      }
    }
  }
}

// ------------------------------------------------------ offline backends

TEST(KernelEquivalence, RewiredBackendsMatchBruteForceOverflow) {
  // The SoA-rewired exact scans (processor-demand, QPA) must agree
  // with the brute-force dbf walk on 300 random sets around U = 1.
  Rng rng(42);
  for (int trial = 0; trial < 300; ++trial) {
    const double u = 0.85 + 0.0007 * trial;
    const TaskSet ts = draw_small_set(rng, u);
    const FeasibilityResult pd = processor_demand_test(ts);
    const FeasibilityResult qp = qpa_test(ts);
    ASSERT_EQ(pd.verdict, qp.verdict) << ts.to_string();
    if (pd.infeasible() && pd.witness >= 0) {
      ASSERT_GT(dbf(ts, pd.witness), pd.witness) << ts.to_string();
    }
    if (!utilization_exceeds_one(ts)) {
      const Time brute = first_overflow_brute(ts, 2000);
      if (brute >= 0) {
        ASSERT_TRUE(pd.infeasible()) << "overflow at " << brute << "\n"
                                     << ts.to_string();
      }
    }
    // The sufficient superposition test stays sound: an accept implies
    // the exact tests accept.
    const FeasibilityResult sp = superpos_test(ts, 3);
    if (sp.feasible()) {
      ASSERT_TRUE(pd.feasible()) << ts.to_string();
    }
  }
}

// ---------------------------------------------- cached-slack index fuzz

struct TwinDemand {
  IncrementalDemand plain{0.25};
  IncrementalDemand indexed{0.25};
  std::vector<std::pair<TaskId, TaskId>> live;  // (plain id, indexed id)

  TwinDemand() {
    // These sets are small; pin the plain store disengaged and force
    // the index to engage regardless of the resident-count hysteresis,
    // so the twin genuinely diverges in mechanism (bounds maintained,
    // segments partitioned) while verdicts must stay identical.
    plain.set_index_thresholds(SIZE_MAX, SIZE_MAX);
    indexed.set_index_thresholds(0, 0);
  }

  void arrive(const Task& t) {
    live.emplace_back(plain.add(t), indexed.add(t));
  }
  void depart(std::size_t pick) {
    ASSERT_TRUE(plain.remove(live[pick].first));
    ASSERT_TRUE(indexed.remove(live[pick].second));
    live[pick] = live.back();
    live.pop_back();
  }
  void check_agreement(int tag) {
    const DemandCheck a = plain.check();
    const DemandCheck b = indexed.check();
    ASSERT_EQ(a.fits, b.fits) << "op " << tag;
    ASSERT_EQ(a.overflow_proof, b.overflow_proof) << "op " << tag;
    if (a.overflow_proof) {
      ASSERT_EQ(a.witness, b.witness) << "op " << tag;
    }
  }
};

TEST(KernelEquivalence, SlackIndexAgreesUnderSaturationChurn) {
  // U -> 1 churn: admissions ride the boundary, so scans keep failing,
  // refining, and re-passing — the regime the index accelerates. Both
  // structures must produce identical verdicts and witnesses at every
  // step, and match their own from-scratch rebuilds.
  Rng rng(20050307);
  TwinDemand twin;
  std::vector<Task> pool;
  int checked = 0;
  for (int op = 0; op < 260; ++op) {
    if (pool.empty()) {
      const TaskSet ts = draw_small_set(rng, 0.99);
      pool.assign(ts.begin(), ts.end());
    }
    if (!twin.live.empty() && rng.bernoulli(0.4)) {
      twin.depart(static_cast<std::size_t>(rng.uniform_time(
          0, static_cast<Time>(twin.live.size()) - 1)));
    } else {
      twin.arrive(pool.back());
      pool.pop_back();
    }
    twin.check_agreement(op);
    ++checked;
    if (op % 32 == 0) {
      ASSERT_TRUE(twin.plain.matches_rebuild()) << "op " << op;
      ASSERT_TRUE(twin.indexed.matches_rebuild()) << "op " << op;
    }
  }
  EXPECT_GE(checked, 260);
}

TEST(KernelEquivalence, SlackIndexAgreesUnderRemovalCreditChurn) {
  // Departure-heavy churn exercises the credit path (removals restore
  // cached slack): drain and refill the structure repeatedly.
  Rng rng(99);
  TwinDemand twin;
  for (int round = 0; round < 12; ++round) {
    const TaskSet ts = draw_small_set(rng, 0.9);
    for (const Task& t : ts) {
      twin.arrive(t);
      twin.check_agreement(round);
    }
    // Drain most of the resident set, checking after every removal.
    while (twin.live.size() > 2) {
      twin.depart(static_cast<std::size_t>(rng.uniform_time(
          0, static_cast<Time>(twin.live.size()) - 1)));
      twin.check_agreement(round);
    }
  }
  ASSERT_TRUE(twin.indexed.matches_rebuild());
}

TEST(KernelEquivalence, SlackIndexAgreesOnLargeStructures) {
  // Push past the single-segment threshold (192 checkpoints) so the
  // index genuinely partitions, then churn at the boundary.
  Rng rng(1234);
  TwinDemand twin;
  std::vector<Task> pool;
  for (int op = 0; op < 400; ++op) {
    if (pool.empty()) {
      const TaskSet ts = draw_fig8_set(rng, 0.97);
      pool.assign(ts.begin(), ts.end());
    }
    if (!twin.live.empty() && rng.bernoulli(0.2)) {
      twin.depart(static_cast<std::size_t>(rng.uniform_time(
          0, static_cast<Time>(twin.live.size()) - 1)));
    } else {
      twin.arrive(pool.back());
      pool.pop_back();
    }
    twin.check_agreement(op);
  }
  EXPECT_GT(twin.indexed.checkpoint_count(), std::size_t{192});
  ASSERT_TRUE(twin.indexed.matches_rebuild());
}

TEST(KernelEquivalence, SlackIndexAgreesOnSaturatingOneShots) {
  // add_saturating overflow edges inside the incremental structure:
  // giant one-shot WCETs saturate exact_dbf_at identically on both
  // paths, and verdicts still agree.
  TwinDemand twin;
  const Time huge = kTimeInfinity / 3;
  twin.arrive(tk(huge, huge, kTimeInfinity));
  twin.check_agreement(0);
  twin.arrive(tk(huge, huge, kTimeInfinity));
  twin.check_agreement(1);
  twin.arrive(tk(huge, huge, kTimeInfinity));  // 3x huge saturates
  twin.check_agreement(2);
  for (const Time i : {huge, huge + 1, kTimeInfinity - 1}) {
    ASSERT_EQ(twin.plain.exact_dbf_at(i), twin.indexed.exact_dbf_at(i));
    ASSERT_EQ(twin.plain.exact_dbf_at(i),
              dbf(twin.plain.snapshot(), i));
  }
  // The triple overload is a genuine infeasibility: one-shots carry no
  // approximation, so both paths prove it.
  const DemandCheck c = twin.indexed.check();
  EXPECT_FALSE(c.fits);
  EXPECT_TRUE(c.overflow_proof);
}

TEST(KernelEquivalence, CertificatesStaySoundWithIndex) {
  // Fast-path admits through the indexed structure must still be
  // feasibility proofs (the certificate calculus is shared, but the
  // published values now flow through segment bounds).
  Rng rng(11);
  int covered = 0;
  for (int trial = 0; trial < 25; ++trial) {
    const TaskSet ts = draw_small_set(rng, 0.6);
    IncrementalDemand d(0.25);
    d.set_index_thresholds(0, 0);  // engage on these small sets too
    for (const Task& t : ts) d.add(t);
    if (!d.check().fits) continue;
    const TaskSet extra = draw_small_set(rng, 0.2);
    for (const Task& t : extra) {
      if (!d.certificate_covers(t)) continue;
      ++covered;
      d.add(t);
      ASSERT_TRUE(processor_demand_test(d.resident()).feasible())
          << d.resident().to_string();
    }
  }
  EXPECT_GT(covered, 5);  // the fast path actually fires
}

}  // namespace
}  // namespace edfkit
