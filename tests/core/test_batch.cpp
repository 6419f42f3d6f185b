#include "core/batch.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "../helpers.hpp"
#include "lit/literature.hpp"
#include "model/io.hpp"

namespace edfkit {
namespace {

using testing::set_of;
using testing::tk;

std::vector<BatchEntry> demo_entries() {
  std::vector<BatchEntry> es;
  es.push_back({"feasible", set_of({tk(2, 6, 8), tk(3, 10, 12)})});
  es.push_back({"infeasible",
                set_of({tk(3, 4, 8), tk(5, 10, 12), tk(5, 16, 24)})});
  es.push_back({"overload", set_of({tk(9, 8, 8)})});
  return es;
}

TEST(Batch, RowsKeepOrderAndVerdicts) {
  const BatchReport r = run_batch(demo_entries());
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0].name, "feasible");
  EXPECT_EQ(r.rows[1].name, "infeasible");
  ASSERT_EQ(r.rows[0].cells.size(), 4u);  // default: devi/dyn/aa/pd
  // Exact columns (1..3) must agree row-wise.
  for (const BatchRow& row : r.rows) {
    const Verdict expect = row.cells[3].verdict;  // processor demand
    EXPECT_EQ(row.cells[1].verdict, expect) << row.name;
    EXPECT_EQ(row.cells[2].verdict, expect) << row.name;
  }
  EXPECT_TRUE(r.exact_disagreements.empty());
}

TEST(Batch, AcceptedCountsAndEffortStats) {
  const BatchReport r = run_batch(demo_entries());
  // devi accepts only the feasible set; exact tests accept exactly one.
  EXPECT_EQ(r.accepted[1], 1u);
  EXPECT_EQ(r.accepted[2], 1u);
  EXPECT_EQ(r.accepted[3], 1u);
  EXPECT_EQ(r.effort[3].count(), 3u);
  EXPECT_GT(r.effort[3].max(), 0.0);
}

TEST(Batch, CustomTestSelection) {
  const BatchReport r = run_batch(
      demo_entries(), Query::batch({TestKind::LiuLayland, TestKind::Qpa}));
  ASSERT_EQ(r.rows[0].cells.size(), 2u);
  EXPECT_EQ(r.tests[1], TestKind::Qpa);
  EXPECT_EQ(r.rows[2].cells[0].verdict, Verdict::Infeasible);  // U > 1
}

TEST(Batch, LiteratureSetsProduceCleanReport) {
  std::vector<BatchEntry> es;
  for (const auto& s : lit::all_literature_sets()) {
    es.push_back({s.name, s.tasks});
  }
  const BatchReport r = run_batch(es);
  EXPECT_TRUE(r.exact_disagreements.empty());
  // All five literature sets are feasible: every exact column accepts 5.
  EXPECT_EQ(r.accepted[1], 5u);
  EXPECT_EQ(r.accepted[2], 5u);
  EXPECT_EQ(r.accepted[3], 5u);
  // Devi accepts exactly Burns and GAP.
  EXPECT_EQ(r.accepted[0], 2u);
}

TEST(Batch, TextAndCsvRendering) {
  const BatchReport r = run_batch(demo_entries());
  const std::string text = r.to_string();
  EXPECT_NE(text.find("feasible"), std::string::npos);
  EXPECT_NE(text.find("accepted:"), std::string::npos);
  EXPECT_EQ(text.find("!!"), std::string::npos);  // no disagreements
  const std::string csv = r.to_csv();
  EXPECT_NE(csv.find("set,n,utilization"), std::string::npos);
  EXPECT_NE(csv.find("processor-demand_verdict"), std::string::npos);
  // header + 3 rows
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 4);
}

TEST(Batch, FileLoadingRoundTrip) {
  const std::string dir = ::testing::TempDir();
  const std::string p1 = dir + "edfkit_batch_a.txt";
  const std::string p2 = dir + "edfkit_batch_b.txt";
  save_task_set(p1, set_of({tk(2, 6, 8)}));
  save_task_set(p2, set_of({tk(9, 8, 8)}));
  const BatchReport r = run_batch_files({p1, p2});
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0].cells[3].verdict, Verdict::Feasible);
  EXPECT_EQ(r.rows[1].cells[3].verdict, Verdict::Infeasible);
  std::remove(p1.c_str());
  std::remove(p2.c_str());
  EXPECT_THROW((void)run_batch_files({"/no/such/file.txt"}),
               std::runtime_error);
}

TEST(Batch, EmptyBatch) {
  const BatchReport r = run_batch({});
  EXPECT_TRUE(r.rows.empty());
  EXPECT_FALSE(r.to_string().empty());
}

}  // namespace
}  // namespace edfkit
