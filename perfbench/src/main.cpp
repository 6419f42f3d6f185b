/// \file main.cpp
/// The benchmark program. perfbench/run.py builds it and runs
///
///   perfbench --workload NAME --seed N --seconds S --trace 0|1
///             --server PATH --work-dir DIR [--spans-out FILE]
///
/// It prints what it measured, then one JSON line: {"correct",
/// "attempted", "failed", "metrics"} — the end-to-end metrics, or with
/// --trace 1 the per-layer ones. Exit 0 on a correct run, 1 when a
/// decision check failed, 2 on a usage or runtime error.
#include <signal.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <set>
#include <string>

#include "runs.hpp"
#include "util/cli.hpp"

namespace {

using namespace perfbench;

void usage(std::FILE* out) {
  std::fprintf(out,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --server PATH --work-dir DIR [--spans-out FILE]\n"
               "workloads:");
  for (const std::string& w : workload_names()) std::fprintf(out, " %s", w.c_str());
  std::fputc('\n', out);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const edfkit::CliFlags flags(argc, argv);
    if (flags.has("help")) {
      usage(stdout);
      return 0;
    }
    const std::string workload = flags.get("workload", "");
    RunOptions opt;
    opt.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
    opt.seconds = flags.get_double("seconds", 10.0);
    opt.server_path = flags.get("server", "");
    opt.work_dir = flags.get("work-dir", "");
    opt.spans_out = flags.get("spans-out", "");
    const bool trace = flags.get_int("trace", 0) != 0;
    const WireSpec* spec = find_wire_spec(workload);
    if ((spec == nullptr && workload != "offline-exact") ||
        opt.seconds <= 0 || (spec != nullptr && opt.server_path.empty()) ||
        opt.work_dir.empty()) {
      usage(stderr);
      return 2;
    }
    std::filesystem::create_directories(opt.work_dir);
    ::signal(SIGPIPE, SIG_IGN);

    std::printf("workload %s seed %llu seconds %g trace %d\n",
                workload.c_str(), static_cast<unsigned long long>(opt.seed),
                opt.seconds, trace ? 1 : 0);
    print_host(stdout, pin_to_one_cpu());
    Report report;
    RunOutcome out;
    if (spec != nullptr) {
      out = trace ? run_wire_traced(*spec, opt, report)
                  : run_wire(*spec, opt, report);
    } else {
      out = trace ? run_offline_traced(opt, report) : run_offline(opt, report);
    }
    if (trace) {
      // Layers this workload does not exercise read 0 (flat).
      std::set<std::string> have;
      for (const Metric& m : report.metrics()) have.insert(m.name);
      Report ordered;
      for (const LayerMetric& lm : per_layer_metrics()) {
        const Metric* found = nullptr;
        for (const Metric& m : report.metrics()) {
          if (m.name == lm.name) found = &m;
        }
        if (found != nullptr) {
          ordered.add(found->name, found->value, found->unit, found->samples);
        } else {
          ordered.add(lm.name, 0.0, lm.unit);
        }
        have.erase(lm.name);
      }
      if (!have.empty()) {
        throw std::logic_error("unlisted per-layer metric " + *have.begin());
      }
      report = ordered;
    }
    std::printf("%s metrics:\n", trace ? "per-layer" : "end-to-end");
    report.print(stdout);
    std::printf("%s\n", report.json(out.correct, out.attempted, out.failed).c_str());
    std::fflush(stdout);
    return out.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 2;
  }
}
