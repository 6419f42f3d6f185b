/// \file batch_analyze.cpp
/// Command-line batch analyzer — the CI-gate workflow: point it at task-
/// set files, get a verdict/effort table, CSV/JSON for dashboards, and a
/// non-zero exit code when anything is infeasible (or when exact tests
/// disagree, which would indicate a library bug).
///
///   ./batch_analyze set1.txt set2.txt ...
///       [--tests qpa,chakraborty,...]   (registry names, see --list)
///       [--ladder] [--epsilon 0.25]
///       [--csv out.csv] [--json | --json=out.json] [--quiet] [--list]
///       [--metrics-json | --metrics-json=out.json]
///
/// `--metrics-json` re-runs every (set, backend) cell standalone with a
/// wall-clock probe and emits the obs metrics registry (per-backend
/// `query_ns_<backend>` latency histograms, log2 buckets) as JSON — the
/// dashboard-friendly companion to the effort columns.
///
/// Test selection is by backend-registry name (`--list` prints the
/// capability table), so the selection survives enum reordering and new
/// backends become selectable the moment they register.
///
/// `--ladder` selects exactly the tests the online AdmissionController
/// escalates through (utilization bound -> epsilon-approximate -> qpa;
/// see query/query.hpp default_ladder_kinds), so an offline batch
/// previews which rung would settle each set at admission time.
/// `--epsilon` tunes the approximate rung.
///
/// Without file arguments it demonstrates on the built-in literature
/// sets (paper Table 1).
#include <cstdio>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/batch.hpp"
#include "lit/literature.hpp"
#include "model/io.hpp"
#include "obs/obs.hpp"
#include "query/query.hpp"
#include "util/cli.hpp"

namespace {

using namespace edfkit;

/// CliFlags' generic `--name value` parsing is greedy: a bare boolean
/// flag followed by a positional (`batch_analyze --json setA.txt`) would
/// absorb the file name — worst case opening an *input* file for output.
/// The boolean-ish flags --json and --list are therefore parsed strictly
/// as `--flag` / `--flag=value` from argv, and a space-separated token
/// that CliFlags absorbed is restored to the file list.
struct BareFlag {
  bool present = false;
  std::string value;  ///< from the `--flag=value` spelling only
};

BareFlag scan_bare(int argc, char** argv, const std::string& name,
                   std::vector<std::string>& restored) {
  BareFlag out;
  const std::string bare = "--" + name;
  const std::string eq = bare + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string tok = argv[i];
    if (tok == bare) {
      out.present = true;
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        restored.push_back(argv[i + 1]);  // absorbed positional
        ++i;
      }
    } else if (tok.rfind(eq, 0) == 0) {
      out.present = true;
      out.value = tok.substr(eq.size());
    }
  }
  return out;
}

std::vector<TestKind> parse_tests(const std::string& spec) {
  std::vector<TestKind> out;
  std::istringstream is(spec);
  std::string token;
  while (std::getline(is, token, ',')) {
    // resolve() throws UnknownBackendError with a did-you-mean list for
    // close names (--list shows the full registry).
    out.push_back(BackendRegistry::instance().resolve(token).kind);
  }
  if (out.empty()) throw std::invalid_argument("--tests selected nothing");
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliFlags flags(argc, argv);
    std::vector<std::string> files = flags.rest();
    const BareFlag list_flag = scan_bare(argc, argv, "list", files);
    const BareFlag json_flag = scan_bare(argc, argv, "json", files);
    const BareFlag metrics_flag =
        scan_bare(argc, argv, "metrics-json", files);
    if (list_flag.present) {
      std::printf("%s", BackendRegistry::instance().capability_table().c_str());
      return 0;
    }

    Query query;
    const double epsilon = flags.get_double("epsilon", 0.25);
    if (flags.get_bool("ladder", false)) {
      // Mirror the online admission controller's escalation ladder.
      query = Query::ladder(epsilon);
      std::printf("admission ladder: ");
      for (const BackendSelection& s : query.backends()) {
        std::printf("%s ", to_string(s.kind));
      }
      std::printf("(epsilon=%.3f)\n\n", epsilon);
    } else {
      const std::vector<TestKind> kinds =
          flags.has("tests")
              ? parse_tests(flags.get("tests", ""))
              : std::vector<TestKind>{TestKind::Devi, TestKind::Dynamic,
                                      TestKind::AllApprox,
                                      TestKind::ProcessorDemand};
      for (const TestKind k : kinds) {
        BackendParams p = default_params(k);
        if (auto* ck = std::get_if<ChakrabortyParams>(&p)) {
          ck->epsilon = epsilon;
        }
        query.add(k, std::move(p));
      }
    }

    // The entries stay materialized (rather than going through
    // run_batch_files) so the --metrics-json timing pass below can
    // reuse them.
    std::vector<BatchEntry> entries;
    if (!files.empty()) {
      for (const std::string& path : files) {
        entries.push_back({path, load_task_set(path)});
      }
    } else {
      std::printf("no files given; analyzing the built-in literature sets\n"
                  "(usage: batch_analyze <taskset.txt>... [--tests a,b] "
                  "[--csv out.csv] [--json out.json])\n\n");
      for (const auto& s : lit::all_literature_sets()) {
        entries.push_back({s.name, s.tasks});
      }
    }
    const BatchReport report = run_batch(entries, query);

    if (!flags.get_bool("quiet", false)) {
      std::printf("%s", report.to_string().c_str());
    }
    if (flags.has("csv")) {
      std::ofstream out(flags.get("csv", "batch.csv"));
      out << report.to_csv();
      std::printf("csv written to %s\n", flags.get("csv", "").c_str());
    }
    if (json_flag.present) {
      // `--json` alone prints to stdout; `--json=FILE` writes the file.
      if (json_flag.value.empty()) {
        std::printf("%s\n", report.to_json().c_str());
      } else {
        std::ofstream out(json_flag.value);
        out << report.to_json();
        std::printf("json written to %s\n", json_flag.value.c_str());
      }
    }
    if (metrics_flag.present) {
      // Per-backend wall-clock latency: every (set, backend) cell runs
      // once more standalone, timed into a `query_ns_<backend>`
      // histogram. A second pass costs one extra batch but keeps the
      // main report's effort columns untouched by probe overhead.
      obs::Obs obs(obs::ObsConfig{true, false, 0});
      for (const BackendSelection& s : query.backends()) {
        obs::Histogram h = obs.query_ns(to_string(s.kind));
        const Query one = Query::single(s.kind, s.params);
        for (const BatchEntry& e : entries) {
          try {
            const std::uint64_t t0 = obs::now_ns();
            (void)one.run(e.tasks);
            h.record(obs::now_ns() - t0);
          } catch (const std::invalid_argument&) {
            // Backend does not support this workload kind — the main
            // report already shows the cell as skipped.
          }
        }
      }
      if (metrics_flag.value.empty()) {
        std::printf("%s\n", obs.registry().to_json().c_str());
      } else {
        std::ofstream out(metrics_flag.value);
        out << obs.registry().to_json();
        std::printf("metrics json written to %s\n",
                    metrics_flag.value.c_str());
      }
    }

    if (!report.exact_disagreements.empty()) return 3;  // library bug!
    // Gate: fail if any *exact* test found any set infeasible.
    for (const BatchRow& row : report.rows) {
      for (std::size_t k = 0; k < report.tests.size(); ++k) {
        if (is_exact(report.tests[k]) &&
            row.cells[k].verdict == Verdict::Infeasible) {
          std::printf("GATE: %s is infeasible\n", row.name.c_str());
          return 1;
        }
      }
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
