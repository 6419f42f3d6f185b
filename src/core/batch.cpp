#include "core/batch.hpp"

#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "model/io.hpp"

namespace edfkit {
namespace {

/// JSON string escaping for set names (quotes/backslashes/control chars).
std::string json_escape(const std::string& s) {
  std::ostringstream os;
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          os << "\\u" << std::hex << std::setw(4) << std::setfill('0')
             << static_cast<int>(c) << std::dec << std::setfill(' ');
        } else {
          os << c;
        }
    }
  }
  return os.str();
}

}  // namespace

BatchReport run_batch(const std::vector<BatchEntry>& entries,
                      const Query& query) {
  Query batch_query = query;
  batch_query.with_policy(ExecPolicy::Batch).with_certificates(false);
  batch_query.validate();

  BatchReport report;
  for (const BackendSelection& sel : batch_query.backends()) {
    report.tests.push_back(sel.kind);
  }
  report.effort.resize(report.tests.size());
  report.accepted.assign(report.tests.size(), 0);

  for (const BatchEntry& entry : entries) {
    BatchRow row;
    row.name = entry.name;
    row.tasks = entry.tasks.size();
    row.utilization = entry.tasks.utilization_double();
    row.cells.reserve(report.tests.size());

    std::vector<BackendAttempt> attempts;
    if (!entry.tasks.empty()) {
      attempts = batch_query.run(entry.tasks).attempts;
      if (attempts.size() != report.tests.size()) {
        throw std::logic_error(
            "run_batch: a backend was skipped; columns would misalign");
      }
    } else {
      // Preserve the historical trivially-Feasible row for empty sets.
      for (const TestKind k : report.tests) {
        attempts.push_back({k, make_verdict(Verdict::Feasible)});
      }
    }

    bool saw_exact_feasible = false;
    bool saw_exact_infeasible = false;
    for (std::size_t k = 0; k < attempts.size(); ++k) {
      const FeasibilityResult& r = attempts[k].result;
      BatchCell cell;
      cell.verdict = r.verdict;
      cell.effort = r.effort();
      row.cells.push_back(cell);
      report.effort[k].add(static_cast<double>(cell.effort));
      if (r.feasible()) ++report.accepted[k];
      if (is_exact(attempts[k].kind)) {
        saw_exact_feasible |= r.feasible();
        saw_exact_infeasible |= r.infeasible();
      }
    }
    if (saw_exact_feasible && saw_exact_infeasible) {
      report.exact_disagreements.push_back(entry.name);
    }
    report.rows.push_back(std::move(row));
  }
  return report;
}

namespace {

std::vector<BatchEntry> load_entries(const std::vector<std::string>& paths) {
  std::vector<BatchEntry> entries;
  entries.reserve(paths.size());
  for (const std::string& path : paths) {
    BatchEntry e;
    e.name = path;
    e.tasks = load_task_set(path);
    entries.push_back(std::move(e));
  }
  return entries;
}

}  // namespace

BatchReport run_batch_files(const std::vector<std::string>& paths,
                            const Query& query) {
  return run_batch(load_entries(paths), query);
}

std::string BatchReport::to_string() const {
  std::ostringstream os;
  os << std::left << std::setw(24) << "set" << std::setw(5) << "n"
     << std::setw(9) << "U";
  for (const TestKind k : tests) {
    os << std::setw(22) << edfkit::to_string(k);
  }
  os << "\n";
  for (const BatchRow& row : rows) {
    os << std::left << std::setw(24) << row.name << std::setw(5) << row.tasks
       << std::setw(9) << std::fixed << std::setprecision(4)
       << row.utilization;
    for (const BatchCell& c : row.cells) {
      std::ostringstream cell;
      cell << edfkit::to_string(c.verdict) << " (" << c.effort << ")";
      os << std::setw(22) << cell.str();
    }
    os << "\n";
  }
  os << "\naccepted:";
  for (std::size_t k = 0; k < tests.size(); ++k) {
    os << "  " << edfkit::to_string(tests[k]) << "=" << accepted[k] << "/"
       << rows.size();
  }
  os << "\nmean effort:";
  for (std::size_t k = 0; k < tests.size(); ++k) {
    os << "  " << edfkit::to_string(tests[k]) << "="
       << std::setprecision(1) << effort[k].mean();
  }
  os << "\n";
  if (!exact_disagreements.empty()) {
    os << "!! exact tests disagreed on:";
    for (const std::string& n : exact_disagreements) os << " " << n;
    os << "\n";
  }
  return os.str();
}

std::string BatchReport::to_csv() const {
  std::ostringstream os;
  os << "set,n,utilization";
  for (const TestKind k : tests) {
    os << "," << edfkit::to_string(k) << "_verdict,"
       << edfkit::to_string(k) << "_effort";
  }
  os << "\n";
  for (const BatchRow& row : rows) {
    os << row.name << "," << row.tasks << "," << row.utilization;
    for (const BatchCell& c : row.cells) {
      os << "," << edfkit::to_string(c.verdict) << "," << c.effort;
    }
    os << "\n";
  }
  return os.str();
}

std::string BatchReport::to_json() const {
  std::ostringstream os;
  os << "{\"tests\":[";
  for (std::size_t k = 0; k < tests.size(); ++k) {
    os << (k != 0 ? "," : "") << "\"" << edfkit::to_string(tests[k]) << "\"";
  }
  os << "],\"rows\":[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const BatchRow& row = rows[i];
    os << (i != 0 ? "," : "") << "{\"set\":\"" << json_escape(row.name)
       << "\",\"n\":" << row.tasks << ",\"utilization\":" << std::fixed
       << std::setprecision(6) << row.utilization << ",\"results\":[";
    for (std::size_t k = 0; k < row.cells.size(); ++k) {
      const BatchCell& c = row.cells[k];
      os << (k != 0 ? "," : "") << "{\"test\":\""
         << edfkit::to_string(tests[k]) << "\",\"verdict\":\""
         << edfkit::to_string(c.verdict) << "\",\"effort\":" << c.effort
         << "}";
    }
    os << "]}";
  }
  os << "],\"accepted\":{";
  for (std::size_t k = 0; k < tests.size(); ++k) {
    os << (k != 0 ? "," : "") << "\"" << edfkit::to_string(tests[k])
       << "\":" << accepted[k];
  }
  os << "},\"mean_effort\":{";
  for (std::size_t k = 0; k < tests.size(); ++k) {
    os << (k != 0 ? "," : "") << "\"" << edfkit::to_string(tests[k])
       << "\":" << std::setprecision(3) << effort[k].mean();
  }
  os << "},\"exact_disagreements\":[";
  for (std::size_t k = 0; k < exact_disagreements.size(); ++k) {
    os << (k != 0 ? "," : "") << "\"" << json_escape(exact_disagreements[k])
       << "\"";
  }
  os << "]}";
  return os.str();
}

}  // namespace edfkit
