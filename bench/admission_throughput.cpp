/// \file admission_throughput.cpp
/// Admission-decision throughput: the incremental controller vs
/// from-scratch re-analysis per decision, over identical churn traces.
///
///   ./admission_throughput [--events 2000] [--epsilon 0.25]
///                          [--baseline qpa] [--utilization 0.9]
///                          [--seed N] [--sets N] [--csv out.csv]
///
/// For each resident-set size n and admission regime — `operational`
/// (utilization headroom policy at 0.90, how a production controller
/// runs) and `saturated` (no cap: every arrival that provably fits is
/// admitted, the adversarial regime) — a trace of `events` churn
/// operations is replayed twice: through an AdmissionController
/// (incremental demand state + escalation ladder) and through a
/// baseline that re-runs an exact test on the full widened set for
/// every arrival (a from-scratch Query per decision).
/// Decisions must agree on every event — both paths are exact — and
/// the headline number is the decisions/sec ratio (target: >= 5x at
/// n >= 50 in the operational regime).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <vector>

#include "admission/controller.hpp"
#include "admission/replay.hpp"
#include "bench_common.hpp"
#include "query/query.hpp"

namespace {

using namespace edfkit;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// From-scratch baseline: admit iff the same policy gate passes and a
/// single-backend Query on the widened set accepts (the repo's offline
/// analysis workflow). Stateless by design — both the utilization sum
/// and the analysis are recomputed per arrival.
struct ScratchAdmission {
  TestKind kind;
  double utilization_cap;
  std::vector<std::pair<std::uint64_t, Task>> live;

  bool try_admit(std::uint64_t key, const Task& t) {
    if (utilization_cap < 1.0) {
      double u = t.utilization_double();
      for (const auto& [k, task] : live) u += task.utilization_double();
      if (u > utilization_cap) return false;
    }
    std::vector<Task> widened;
    widened.reserve(live.size() + 1);
    for (const auto& [k, task] : live) widened.push_back(task);
    widened.push_back(t);
    const bool ok = Query::single(kind)
                        .with_certificates(false)
                        .run(Workload::periodic(TaskSet(std::move(widened))))
                        .feasible();
    if (ok) live.emplace_back(key, t);
    return ok;
  }
  /// Departures need no analysis from scratch either (monotone), so the
  /// comparison isolates the per-arrival analysis cost.
  void depart(std::uint64_t key) {
    for (auto it = live.begin(); it != live.end(); ++it) {
      if (it->first == key) {
        live.erase(it);
        return;
      }
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliFlags flags(argc, argv);
    // `sets` = timing repetitions per point; best-of is reported (the
    // usual throughput-bench noise shield on shared machines).
    bench::BenchSetup setup(flags, /*default_sets=*/3);
    bench::banner("admission throughput: incremental vs from-scratch",
                  "online subsystem (no paper figure); workload of §5 Fig. 8",
                  setup);

    const auto events =
        static_cast<std::size_t>(flags.get_int("events", 2000));
    const double epsilon = flags.get_double("epsilon", 0.25);
    const double pool_u = flags.get_double("utilization", 0.9);
    TestKind baseline_kind = TestKind::Qpa;
    if (flags.has("baseline")) {
      const std::string want = flags.get("baseline", "");
      bool found = false;
      for (const TestKind k : all_test_kinds()) {
        if (want == to_string(k) && is_exact(k)) {
          baseline_kind = k;
          found = true;
        }
      }
      if (!found) {
        throw std::invalid_argument("--baseline must name an exact test");
      }
    }

    setup.csv.header({"regime", "n", "events", "incremental_dps",
                      "scratch_dps", "speedup", "exact_escalations"});
    std::printf("%-12s %6s %10s %14s %14s %9s %8s\n", "regime", "n",
                "events", "incr dps", "scratch dps", "speedup", "exact%");

    for (const double cap : {0.9, 1.0}) {
      const char* regime = cap < 1.0 ? "operational" : "saturated";
      for (const std::size_t n : {std::size_t{10}, std::size_t{25},
                                  std::size_t{50}, std::size_t{100}}) {
        ChurnConfig churn;
        churn.warmup_arrivals = n;
        churn.events = events;
        churn.pool_utilization = pool_u;
        // Fixed per-set task count: per-task utilization ~ pool_u/n, so
        // the warm resident set sits near the admission boundary
        // regardless of n and the sweep scales size, not saturation.
        churn.family = ChurnConfig::Family::Fixed;
        churn.fixed_tasks = static_cast<int>(n);
        Rng rng(setup.seed + n);
        const std::vector<TraceEvent> trace =
            generate_churn_trace(rng, churn);

        AdmissionOptions opts;
        opts.epsilon = epsilon;
        opts.exact_fallback = baseline_kind;
        opts.utilization_cap = cap;
        double incr_secs = 1e300;
        ReplayStats incr;
        for (std::int64_t rep = 0; rep < setup.sets; ++rep) {
          AdmissionController controller(opts);
          const auto t0 = std::chrono::steady_clock::now();
          incr = replay_trace(trace, controller);
          incr_secs = std::min(incr_secs, seconds_since(t0));
        }
        if (flags.get_bool("verbose", false)) {
          std::printf("  incremental: %s\n", incr.to_string().c_str());
        }

        // From-scratch baseline over the same trace, timed pure…
        double scratch_secs = 1e300;
        for (std::int64_t rep = 0; rep < setup.sets; ++rep) {
          ScratchAdmission pure{baseline_kind, cap, {}};
          const auto t1 = std::chrono::steady_clock::now();
          for (const TraceEvent& ev : trace) {
            if (ev.op == TraceOp::Arrive) {
              (void)pure.try_admit(ev.key, ev.task);
            } else {
              pure.depart(ev.key);
            }
          }
          scratch_secs = std::min(scratch_secs, seconds_since(t1));
        }

        // …then re-run both untimed, asserting decision agreement.
        std::uint64_t disagreements = 0;
        {
          ScratchAdmission scratch{baseline_kind, cap, {}};
          AdmissionController shadow(opts);
          std::vector<std::pair<std::uint64_t, TaskId>> shadow_ids;
          for (const TraceEvent& ev : trace) {
            if (ev.op == TraceOp::Arrive) {
              const bool ok = scratch.try_admit(ev.key, ev.task);
              const AdmissionDecision d = shadow.try_admit(ev.task);
              if (d.admitted != ok) ++disagreements;
              if (d.admitted) shadow_ids.emplace_back(ev.key, d.id);
            } else {
              scratch.depart(ev.key);
              for (auto it = shadow_ids.begin(); it != shadow_ids.end();
                   ++it) {
                if (it->first == ev.key) {
                  shadow.remove(it->second);
                  shadow_ids.erase(it);
                  break;
                }
              }
            }
          }
        }
        if (disagreements != 0) {
          // The feasibility analyses are exact and must agree; the
          // utilization-cap policy gate is float-rounded on both sides,
          // so boundary-exact collisions could in principle differ —
          // treat any disagreement as an error until observed otherwise.
          std::fprintf(stderr,
                       "BUG: %llu decision mismatches (regime=%s n=%zu)\n",
                       static_cast<unsigned long long>(disagreements),
                       regime, n);
          return 3;
        }

        const double total = static_cast<double>(trace.size());
        const double incr_dps = total / incr_secs;
        const double scratch_dps = total / scratch_secs;
        const double speedup = incr_dps / scratch_dps;
        const double exact_pct =
            100.0 *
            static_cast<double>(
                incr.by_rung[static_cast<std::size_t>(
                    AdmissionRung::Exact)]) /
            static_cast<double>(incr.arrivals);
        std::printf("%-12s %6zu %10zu %14.0f %14.0f %8.1fx %7.1f%%\n",
                    regime, n, trace.size(), incr_dps, scratch_dps,
                    speedup, exact_pct);
        setup.csv.row_of(regime, static_cast<long long>(n),
                         static_cast<long long>(trace.size()), incr_dps,
                         scratch_dps, speedup, exact_pct);
      }
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
