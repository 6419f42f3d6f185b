// offline-exact: one thread decides a fixed corpus with each exact test
// of the query layer and checks that their verdicts agree. Nothing but
// query, analysis and core runs, so their changes show here alone.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "gen/taskset_gen.hpp"
#include "query/query.hpp"
#include "runs.hpp"
#include "spans.hpp"

namespace perfbench {

namespace {

using edfkit::TaskSet;
using edfkit::TestKind;
using edfkit::Verdict;

/// The paper's §4 tests and QPA, which must agree on every set.
constexpr std::array<TestKind, 3> kKinds = {TestKind::Dynamic,
                                            TestKind::AllApprox, TestKind::Qpa};
constexpr std::array<const char*, 3> kSpanNames = {
    "query.dynamic", "query.all-approx", "query.qpa"};
constexpr std::array<const char*, 3> kMetricNames = {"dynamic", "all-approx",
                                                     "qpa"};

// The corpus: the paper's fig8 and fig9 families plus near-saturation
// sets. Set size, utilization, gap and period ratio step through fixed
// grids and only the draws inside a set are random, so the mix — and
// with it the cost distribution — is the same for every seed. Near-
// saturation sets cost ~40x the others and are a third of the corpus,
// which keeps p90 inside their cost range and p50 inside the others'.
// Their costs are heavy-tailed (U 0.9995 sets cost ~15 ms), so there
// are enough of them for the corpus mean to vary little with the seed.
// The corpus is shuffled, so every stretch of a pass has the same mix.
std::vector<TaskSet> make_corpus(std::uint64_t seed) {
  edfkit::Rng rng(seed);
  std::vector<TaskSet> out;
  // fig8: U 0.90..0.99, gap mean 20/30/40 %, n 5..95; periods 10^4..10^6.
  for (int u = 0; u < 10; ++u) {
    for (int gap = 0; gap < 3; ++gap) {
      for (int n = 5; n <= 95; n += 10) {
        edfkit::GeneratorConfig cfg;
        cfg.tasks = n;
        cfg.utilization = 0.90 + 0.01 * u;
        cfg.gap_mean = 0.2 + 0.1 * gap;
        cfg.period_min = 10'000;
        cfg.period_max = 1'000'000;
        out.push_back(edfkit::generate_task_set(rng, cfg));
      }
    }
  }
  // fig9: Tmax/Tmin 10..10^4 in half decades, n 5..100; U and gap drawn
  // as draw_fig9_set does.
  for (int r = 0; r < 7; ++r) {
    for (int n = 5; n <= 100; n += 5) {
      edfkit::GeneratorConfig cfg;
      cfg.tasks = n;
      cfg.utilization = rng.uniform(0.90, 0.9999);
      cfg.utilization_tolerance = 0.0005;
      cfg.gap_mean = rng.uniform(0.10, 0.50);
      cfg.gap_halfwidth = 0.05;
      cfg.period_min = 1'000;
      cfg.period_max = static_cast<edfkit::Time>(
          1'000.0 * std::pow(10.0, 1.0 + 0.5 * r));
      cfg.period_dist = edfkit::PeriodDistribution::LogUniform;
      out.push_back(edfkit::generate_task_set(rng, cfg));
    }
  }
  // Near saturation: n 100, U 0.995..0.9995.
  for (int k = 0; k < 220; ++k) {
    edfkit::GeneratorConfig cfg;
    cfg.tasks = 100;
    cfg.utilization = 0.995 + 0.0005 * (k % 10);
    cfg.utilization_tolerance = 0.0002;
    out.push_back(edfkit::generate_task_set(rng, cfg));
  }
  std::shuffle(out.begin(), out.end(), rng.engine());
  return out;
}

std::uint64_t process_cpu_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000u +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

struct Decider {
  std::array<edfkit::Query, 3> queries = {edfkit::Query::single(kKinds[0]),
                                          edfkit::Query::single(kKinds[1]),
                                          edfkit::Query::single(kKinds[2])};
  std::uint64_t sets = 0;
  std::uint64_t feasible = 0;
  std::uint64_t undecided = 0;  ///< Unknown or cancelled verdicts
  std::uint64_t disagreements = 0;
  std::array<std::uint64_t, 3> effort{};

  /// Decide one set with all three tests. With `spans`, each backend
  /// call is a child of one span for the set.
  void decide(const TaskSet& ts, SpanRecorder* spans) {
    std::int64_t set_span = kNoParent;
    if (spans != nullptr) set_span = spans->begin("query.set", sets);
    std::array<Verdict, 3> v{};
    bool unsure = false;
    for (std::size_t k = 0; k < kKinds.size(); ++k) {
      std::int64_t span = kNoParent;
      if (spans != nullptr) span = spans->begin(kSpanNames[k], sets, set_span);
      const edfkit::Outcome o = queries[k].run(ts);
      if (spans != nullptr) spans->end(span);
      v[k] = o.verdict;
      effort[k] += o.total_effort();
      unsure = unsure || o.verdict == Verdict::Unknown || o.analysis.cancelled;
    }
    if (spans != nullptr) spans->end(set_span);
    if (v[0] != v[1] || v[1] != v[2]) {
      if (disagreements == 0) {
        std::fprintf(stderr,
                     "DIVERGENCE set %llu: dynamic=%s all-approx=%s qpa=%s\n",
                     static_cast<unsigned long long>(sets),
                     edfkit::to_string(v[0]), edfkit::to_string(v[1]),
                     edfkit::to_string(v[2]));
      }
      ++disagreements;
    }
    if (unsure) ++undecided;
    if (v[2] == Verdict::Feasible) ++feasible;
    ++sets;
  }
};

/// Corpus generation plus one untimed pass over it, `kSetups` times.
constexpr int kSetups = 5;

std::vector<TaskSet> set_up(const RunOptions& opt, std::vector<double>& times,
                            bool& agree) {
  std::vector<TaskSet> corpus;
  for (int s = 0; s < kSetups; ++s) {
    const std::uint64_t t0 = now_ns();
    corpus = make_corpus(opt.seed);
    Decider warm;
    for (const TaskSet& ts : corpus) warm.decide(ts, nullptr);
    agree = agree && warm.disagreements == 0 && warm.undecided == 0;
    times.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  return corpus;
}

struct Pass {
  Decider d;
  std::uint64_t wall_ns = 0;
  std::uint64_t cpu_ns = 0;
  std::vector<double> latency_us;
  std::vector<Mark> marks;  ///< window boundaries (see report.hpp)
};

/// Decide the corpus round-robin for `seconds`. Each complete pass is
/// one window: every window does the same work, so their rates differ
/// only by what the machine did meanwhile.
Pass timed_pass(const std::vector<TaskSet>& corpus, double seconds,
                SpanRecorder* spans) {
  Pass p;
  const std::uint64_t cpu0 = process_cpu_ns();
  const std::uint64_t start = now_ns();
  const std::uint64_t deadline =
      start + static_cast<std::uint64_t>(seconds * 1e9);
  p.marks.push_back({start, 0, cpu0});
  for (std::size_t i = 0;; i = (i + 1) % corpus.size()) {
    const std::uint64_t t0 = now_ns();
    if (i == 0 && p.d.sets != 0) {
      p.marks.push_back({t0, p.d.sets, process_cpu_ns()});
    }
    if (t0 >= deadline) break;
    p.d.decide(corpus[i], spans);
    p.latency_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  if (p.marks.size() < 2) {  // not one whole pass: the part is the window
    p.marks.push_back({now_ns(), p.d.sets, process_cpu_ns()});
  }
  p.wall_ns = now_ns() - start;
  p.cpu_ns = process_cpu_ns() - cpu0;
  return p;
}

bool check_pass(const Decider& d) {
  if (d.disagreements != 0 || d.undecided != 0) {
    std::fprintf(stderr,
                 "exact-verdict check: %llu disagreements, %llu undecided of "
                 "%llu sets\n",
                 static_cast<unsigned long long>(d.disagreements),
                 static_cast<unsigned long long>(d.undecided),
                 static_cast<unsigned long long>(d.sets));
    return false;
  }
  return true;
}

}  // namespace

RunOutcome run_offline(const RunOptions& opt, Report& report) {
  std::vector<double> setup_s;
  bool agree = true;
  const std::vector<TaskSet> corpus = set_up(opt, setup_s, agree);

  const std::uint64_t steal0 = steal_ticks();
  Pass p = timed_pass(corpus, opt.seconds, nullptr);
  const std::uint64_t steal1 = steal_ticks();

  RunOutcome out;
  out.attempted = p.d.sets;
  out.failed = p.d.undecided;
  out.correct = agree && check_pass(p.d);
  std::printf("exact-verdict check: %llu sets (corpus %zu), dynamic, "
              "all-approx and qpa %s\n",
              static_cast<unsigned long long>(p.d.sets), corpus.size(),
              out.correct ? "agree on every set" : "DISAGREE");

  if (p.d.sets == 0) throw std::runtime_error("no set decided in the timed phase");
  const Windowed w = windowed_medians(p.latency_us, p.marks);
  const double wall_s = static_cast<double>(p.wall_ns) / 1e9;
  const double sets = static_cast<double>(p.d.sets);
  print_phase_noise(stdout, steal1 - steal0,
                    static_cast<double>(p.cpu_ns) / 1e9, wall_s);
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  report.add("setup_s", median(setup_s), "s", kSetups);
  report.add("ops_per_s", w.ops_per_s, "1/s", p.d.sets);
  report.add("latency_p50_us", w.p50_us, "us", p.latency_us.size());
  report.add("latency_p90_us", w.p90_us, "us", p.latency_us.size());
  report.add("cpu_us_per_op", w.cpu_us_per_op, "us", p.d.sets);
  report.add("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB");
  report.add("admit_frac", static_cast<double>(p.d.feasible) / sets, "frac",
             p.d.sets);
  report.add("ok_frac", (sets - static_cast<double>(p.d.undecided)) / sets,
             "frac", p.d.sets);
  return out;
}

RunOutcome run_offline_traced(const RunOptions& opt, Report& report) {
  const std::vector<TaskSet> corpus = make_corpus(opt.seed);

  // Untraced, then traced, each for half the run: their per-set times
  // give the tracing overhead.
  const double half = std::max(1.0, opt.seconds / 2.0);
  const Pass plain = timed_pass(corpus, half, nullptr);
  SpanRecorder spans;
  const Pass traced = timed_pass(corpus, half, &spans);
  const bool agree = check_pass(plain.d) && check_pass(traced.d);

  const auto by_name = self_time_by_name(spans.spans());
  const double n = static_cast<double>(traced.d.sets);
  const auto per_set_us = [&](const char* name) {
    const auto it = by_name.find(name);
    return it == by_name.end() ? 0.0
                               : static_cast<double>(it->second.self_ns) / 1e3 / n;
  };
  double backends_us = 0;
  for (std::size_t k = 0; k < kKinds.size(); ++k) {
    const std::string base = std::string("query.") + kMetricNames[k];
    report.add(base + ".us_per_set", per_set_us(kSpanNames[k]), "us",
               traced.d.sets);
    report.add(base + ".effort_per_set",
               static_cast<double>(traced.d.effort[k]) / n, "count",
               traced.d.sets);
    backends_us += per_set_us(kSpanNames[k]);
  }
  const double plain_us = static_cast<double>(plain.wall_ns) / 1e3 /
                          static_cast<double>(plain.d.sets);
  const double traced_us = static_cast<double>(traced.wall_ns) / 1e3 / n;
  report.add("trace.overhead_frac", traced_us / plain_us - 1.0, "frac",
             traced.d.sets);
  std::printf("attribution: %.2f us/set traced = backends %.2f + benchmark "
              "self %.2f (query.set); untraced %.2f us/set\n",
              traced_us, backends_us, per_set_us("query.set"), plain_us);
  if (!opt.spans_out.empty()) spans.write_jsonl(opt.spans_out);

  RunOutcome out;
  out.correct = agree;
  out.attempted = traced.d.sets;
  out.failed = traced.d.undecided;
  return out;
}

}  // namespace perfbench
