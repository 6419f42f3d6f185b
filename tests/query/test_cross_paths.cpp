/// Cross-validation of the query API's policies against each other:
/// the ladder policy against the admission ladder preview (batch_analyze
/// --ladder's column set), and the batch report rendering.
#include <gtest/gtest.h>

#include "../helpers.hpp"
#include "admission/controller.hpp"
#include "core/batch.hpp"
#include "query/query.hpp"

namespace edfkit {
namespace {

using testing::small_random_sets;

TEST(CrossPaths, LadderAgreesWithAdmissionLadderPreview) {
  // batch_analyze --ladder previews the admission controller by running
  // the ladder's kinds as batch columns; the ladder policy must reach
  // the same decision as reading those columns in escalation order.
  const AdmissionOptions admission;  // epsilon 0.25; rung 3 runs qpa
  const std::vector<TestKind> rungs =
      default_ladder_kinds(!admission.skip_exact);
  ASSERT_EQ(rungs.size(), 3u);

  std::vector<BatchEntry> entries;
  int idx = 0;
  for (const double u : {0.7, 0.97}) {
    for (const TaskSet& ts : small_random_sets(8, u, /*seed=*/99)) {
      if (!ts.empty()) entries.push_back({"s" + std::to_string(idx++), ts});
    }
  }

  // Query::batch runs every column with default params: epsilon 0.25,
  // the controller's default.
  const BatchReport preview = run_batch(entries, Query::batch(rungs));
  EXPECT_TRUE(preview.exact_disagreements.empty());

  for (std::size_t row = 0; row < entries.size(); ++row) {
    const Outcome ladder =
        Query::ladder(admission.epsilon)
            .with_certificates(false)
            .run(Workload::periodic(entries[row].tasks));
    // First decisive column in escalation order == ladder's decision.
    Verdict expected = Verdict::Unknown;
    for (std::size_t k = 0; k < rungs.size(); ++k) {
      const Verdict v = preview.rows[row].cells[k].verdict;
      if (v != Verdict::Unknown) {
        expected = v;
        break;
      }
    }
    EXPECT_EQ(ladder.verdict, expected) << entries[row].name;
  }
}

TEST(CrossPaths, JsonReportIsEmittedAndNamesEveryTest) {
  std::vector<BatchEntry> entries;
  entries.push_back({"demo \"quoted\"", small_random_sets(1, 0.8).front()});
  const BatchReport r = run_batch(entries);
  const std::string json = r.to_json();
  for (const TestKind k : r.tests) {
    EXPECT_NE(json.find(to_string(k)), std::string::npos) << to_string(k);
  }
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(json.find("\"rows\""), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

}  // namespace
}  // namespace edfkit
