/// \file batch.hpp
/// Batch feasibility analysis: route many task sets through one query and
/// aggregate verdicts, effort and disagreements into a report — the
/// workflow of a design-space exploration loop or a CI gate over a
/// directory of task-set files.
///
/// The batch runner is the query API's Batch execution policy applied
/// per entry: `run_batch(entries, query)` takes any Query (its backend
/// selection defines the column order) and runs it on every entry. To
/// preview the online admission controller's escalation ladder offline,
/// pass `Query::batch(default_ladder_kinds(...))` — the batch_analyze
/// example exposes that as `--ladder`.
#pragma once

#include <string>
#include <vector>

#include "model/task_set.hpp"
#include "query/query.hpp"
#include "util/stats.hpp"

namespace edfkit {

struct BatchEntry {
  std::string name;
  TaskSet tasks;
};

struct BatchCell {
  Verdict verdict = Verdict::Unknown;
  std::uint64_t effort = 0;
};

struct BatchRow {
  std::string name;
  std::size_t tasks = 0;
  double utilization = 0.0;
  std::vector<BatchCell> cells;  ///< one per selected backend
};

struct BatchReport {
  std::vector<TestKind> tests;
  std::vector<BatchRow> rows;
  /// Effort statistics per test, across all rows.
  std::vector<OnlineStats> effort;
  /// Names of sets where two *exact* tests disagreed (must stay empty —
  /// a non-empty list indicates an implementation bug).
  std::vector<std::string> exact_disagreements;
  /// Count of rows each test accepted.
  std::vector<std::size_t> accepted;

  /// Render as an aligned text table.
  [[nodiscard]] std::string to_string() const;
  /// Render as CSV (header + one line per row).
  [[nodiscard]] std::string to_csv() const;
  /// Render as machine-readable JSON (tests, rows, aggregates).
  [[nodiscard]] std::string to_json() const;
};

/// The default column set: Devi's sufficient test, then the paper's two
/// exact tests and processor demand as the exact reference.
[[nodiscard]] inline Query default_batch_query() {
  return Query::batch({TestKind::Devi, TestKind::Dynamic,
                       TestKind::AllApprox, TestKind::ProcessorDemand});
}

/// Run `query`'s backend selection over every entry (Batch policy; the
/// query's params and limits apply per backend). Rows keep input order.
[[nodiscard]] BatchReport run_batch(
    const std::vector<BatchEntry>& entries,
    const Query& query = default_batch_query());

/// Convenience: load every path as a task-set file and run the batch.
/// \throws on unreadable/malformed files (fail fast — a CI gate should
/// not silently skip inputs).
[[nodiscard]] BatchReport run_batch_files(
    const std::vector<std::string>& paths,
    const Query& query = default_batch_query());

}  // namespace edfkit
