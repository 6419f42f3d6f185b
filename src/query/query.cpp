#include "query/query.hpp"

#include <atomic>
#include <condition_variable>
#include <iomanip>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace edfkit {
namespace {

bool decisive(Verdict v) noexcept { return v != Verdict::Unknown; }

/// Forward the query-level resource limits into params where supported.
BackendParams apply_limits(BackendParams params, const ResourceLimits& l) {
  if (l.max_iterations != 0) {
    if (auto* pd = std::get_if<ProcessorDemandOptions>(&params)) {
      if (pd->max_iterations == 0 ||
          pd->max_iterations > l.max_iterations) {
        pd->max_iterations = l.max_iterations;
      }
    }
  }
  return params;
}

/// Thread the portfolio stop token into every param struct that has a
/// cancellation hook (the long-running exact backends). A null token is
/// a no-op so callers' own stop pointers survive non-portfolio runs.
BackendParams arm_stop(BackendParams params, const std::atomic<bool>* stop) {
  if (stop == nullptr) return params;
  std::visit(
      [&](auto& p) {
        if constexpr (requires { p.stop; }) p.stop = stop;
      },
      params);
  return params;
}

}  // namespace

const char* to_string(ExecPolicy p) noexcept {
  switch (p) {
    case ExecPolicy::Single: return "single";
    case ExecPolicy::Ladder: return "ladder";
    case ExecPolicy::Portfolio: return "portfolio";
    case ExecPolicy::Batch: return "batch";
  }
  return "?";
}

std::uint64_t Outcome::total_effort() const noexcept {
  std::uint64_t sum = 0;
  for (const BackendAttempt& a : attempts) sum += a.result.effort();
  return sum;
}

std::string Outcome::to_string() const {
  std::ostringstream os;
  os << edfkit::to_string(verdict);
  if (decided) os << " by " << edfkit::to_string(decided_by);
  os << " (attempts=" << attempts.size() << ", effort=" << total_effort()
     << ")";
  if (certificate.present()) {
    os << " certificate=" << certificate.to_string();
  }
  return os.str();
}

Query Query::single(TestKind kind) {
  return single(kind, default_params(kind));
}

Query Query::single(TestKind kind, BackendParams params) {
  Query q;
  q.backends_.push_back({kind, std::move(params)});
  q.policy_ = ExecPolicy::Single;
  return q;
}

Query Query::ladder(double epsilon, bool include_exact) {
  Query q;
  q.policy_ = ExecPolicy::Ladder;
  for (const TestKind k : default_ladder_kinds(include_exact)) {
    BackendParams p = default_params(k);
    if (auto* ck = std::get_if<ChakrabortyParams>(&p)) ck->epsilon = epsilon;
    q.backends_.push_back({k, std::move(p)});
  }
  return q;
}

Query Query::cascade(const Platform& p) {
  if (!platform_valid(p)) {
    throw std::invalid_argument("Query::cascade: invalid platform " +
                                edfkit::to_string(p));
  }
  if (p.uniprocessor()) return ladder();
  Query q;
  q.policy_ = ExecPolicy::Ladder;
  q.platform_ = p;
  for (const TestKind k : default_ladder_kinds(p)) {
    q.backends_.push_back({k, default_params(k)});
  }
  return q;
}

Query Query::portfolio() {
  Query q;
  q.policy_ = ExecPolicy::Portfolio;
  for (const TestKind k : BackendRegistry::instance().exact_kinds()) {
    q.backends_.push_back({k, default_params(k)});
  }
  return q;
}

Query Query::batch(const std::vector<TestKind>& kinds) {
  Query q;
  q.policy_ = ExecPolicy::Batch;
  for (const TestKind k : kinds) q.backends_.push_back({k, default_params(k)});
  return q;
}

Query& Query::add(TestKind kind) { return add(kind, default_params(kind)); }

Query& Query::add(TestKind kind, BackendParams params) {
  backends_.push_back({kind, std::move(params)});
  return *this;
}

Query& Query::with_policy(ExecPolicy policy) {
  policy_ = policy;
  return *this;
}

Query& Query::with_limits(ResourceLimits limits) {
  limits_ = limits;
  return *this;
}

Query& Query::with_certificates(bool want) {
  certificates_ = want;
  return *this;
}

Query& Query::with_platform(Platform platform) {
  platform_ = platform;
  return *this;
}

Query& Query::with_options(const QueryOptions& options) {
  policy_ = options.policy;
  limits_ = options.limits;
  certificates_ = options.certificates;
  platform_ = options.platform;
  return *this;
}

void Query::validate() const {
  if (backends_.empty()) {
    throw std::invalid_argument("Query: no backend selected");
  }
  if (!platform_valid(platform_)) {
    throw std::invalid_argument("Query: invalid platform " +
                                edfkit::to_string(platform_));
  }
  if (policy_ == ExecPolicy::Single && backends_.size() != 1) {
    throw std::invalid_argument(
        "Query: the single policy takes exactly one backend");
  }
  const BackendRegistry& reg = BackendRegistry::instance();
  for (const BackendSelection& sel : backends_) {
    if (reg.find(sel.kind) == nullptr) {
      throw std::invalid_argument("Query: unregistered backend kind");
    }
    validate_params(sel.kind, sel.params);
  }
}

Outcome Query::execute(WorkloadKind kind, const TaskSet& ts) const {
  validate();
  if (ts.empty()) {
    throw std::invalid_argument(
        "Query: zero-task workload (a degenerate scan would decide "
        "nothing; construct a non-empty workload)");
  }
  const BackendRegistry& reg = BackendRegistry::instance();

  Outcome out;
  std::vector<const BackendSelection*> runnable;
  for (const BackendSelection& sel : backends_) {
    const BackendInfo* info = reg.find(sel.kind);
    if (!info->supports(kind)) {
      if (policy_ == ExecPolicy::Single) {
        throw std::invalid_argument(
            std::string("Query: backend '") + info->name +
            "' does not support " + edfkit::to_string(kind) +
            " workloads");
      }
      out.skipped.push_back(sel.kind);
      continue;
    }
    if (!info->supports(platform_)) {
      if (policy_ == ExecPolicy::Single) {
        throw std::invalid_argument(
            std::string("Query: backend '") + info->name +
            "' does not support platform " + edfkit::to_string(platform_));
      }
      out.skipped.push_back(sel.kind);
      continue;
    }
    runnable.push_back(&sel);
  }
  if (runnable.empty()) {
    throw std::invalid_argument(
        "Query: no selected backend supports this workload kind and "
        "platform");
  }

  const auto run_one = [&](const BackendSelection& sel,
                           const std::atomic<bool>* stop = nullptr) {
    const BackendInfo* info = reg.find(sel.kind);
    return info->run(ts, platform_,
                     arm_stop(apply_limits(sel.params, limits_), stop));
  };

  const auto settle = [&](TestKind kind, const FeasibilityResult& r) {
    out.decided = true;
    out.decided_by = kind;
    out.verdict = r.verdict;
    out.analysis = r;
  };

  switch (policy_) {
    case ExecPolicy::Single:
    case ExecPolicy::Ladder: {
      for (const BackendSelection* sel : runnable) {
        const FeasibilityResult r = run_one(*sel);
        out.attempts.push_back({sel->kind, r});
        out.analysis = r;
        if (decisive(r.verdict)) {
          settle(sel->kind, r);
          break;
        }
      }
      break;
    }
    case ExecPolicy::Portfolio: {
      // Race: every backend on its own thread; completion order decides
      // the winner. The first decisive finisher raises the stop token;
      // the long-running exact backends poll it and return early with
      // `cancelled`, so the race never pays for the slowest loser.
      //
      // Populate the set's lazy caches (exact utilization, deadline
      // order) on this thread first: they are unsynchronized mutables,
      // and every backend's precheck would otherwise race to fill them.
      (void)ts.utilization();
      (void)ts.by_deadline();
      std::atomic<bool> stop{false};
      std::mutex m;
      std::vector<BackendAttempt> done;
      done.reserve(runnable.size());
      std::vector<std::thread> threads;
      threads.reserve(runnable.size());
      for (const BackendSelection* sel : runnable) {
        threads.emplace_back([&, sel] {
          FeasibilityResult r = run_one(*sel, &stop);
          if (decisive(r.verdict) && !r.cancelled) {
            stop.store(true, std::memory_order_relaxed);
          }
          const std::lock_guard<std::mutex> lock(m);
          done.push_back({sel->kind, std::move(r)});
        });
      }
      for (std::thread& t : threads) t.join();
      out.attempts = std::move(done);
      for (const BackendAttempt& a : out.attempts) {
        out.analysis = a.result;
        if (decisive(a.result.verdict)) {
          settle(a.kind, a.result);
          break;
        }
      }
      break;
    }
    case ExecPolicy::Batch: {
      for (const BackendSelection* sel : runnable) {
        const FeasibilityResult r = run_one(*sel);
        out.attempts.push_back({sel->kind, r});
      }
      // Combined verdict: prefer the first decisive exact backend, then
      // any decisive backend (all sound, so decisive verdicts can only
      // disagree on an implementation bug — surfaced by the batch layer).
      for (const BackendAttempt& a : out.attempts) {
        if (is_exact(a.kind) && decisive(a.result.verdict)) {
          settle(a.kind, a.result);
          break;
        }
      }
      if (!out.decided) {
        for (const BackendAttempt& a : out.attempts) {
          if (decisive(a.result.verdict)) {
            settle(a.kind, a.result);
            break;
          }
        }
      }
      if (!out.attempts.empty() && !out.decided) {
        out.analysis = out.attempts.back().result;
      }
      break;
    }
  }

  if (certificates_ && out.decided) {
    if (!platform_.uniprocessor()) {
      // Multiprocessor verdicts carry the MultiprocessorCertificate
      // extension: the named sufficient condition (or simulation) the
      // checker re-establishes by deterministic recomputation.
      if (auto cert = build_multiprocessor_certificate(
              ts, platform_, out.decided_by, out.analysis)) {
        out.certificate = std::move(*cert);
      }
    } else if (out.verdict == Verdict::Infeasible) {
      out.certificate = make_infeasibility_certificate(out.analysis);
    } else if (out.verdict == Verdict::Feasible) {
      // Sound accepts (exact or sufficient) admit a constructive
      // certificate; construction is itself an exact sweep, so a
      // nullopt here would indicate a library bug and is surfaced by
      // leaving the certificate absent.
      if (auto cert = build_feasibility_certificate(
              ts, limits_.certificate_step_cap)) {
        out.certificate = std::move(*cert);
      }
    }
  }
  return out;
}

std::vector<TestKind> default_ladder_kinds(bool include_exact) {
  std::vector<TestKind> kinds;
  for (const BackendInfo& b : BackendRegistry::instance().all()) {
    if (b.incremental && (b.platform_caps & kPlatformUniprocessor) != 0) {
      kinds.push_back(b.kind);
    }
  }
  if (include_exact) kinds.push_back(TestKind::Qpa);
  return kinds;
}

std::vector<TestKind> default_ladder_kinds(const Platform& p,
                                           bool include_sim) {
  if (p.uniprocessor()) return default_ladder_kinds();
  std::vector<TestKind> kinds = {
      TestKind::GfbDensity,     TestKind::GlobalBcl,
      TestKind::GlobalBclIterative, TestKind::GlobalLoad,
      TestKind::GlobalRta,
  };
  if (include_sim) kinds.push_back(TestKind::GlobalSim);
  return kinds;
}

std::string comparison_table(const Workload& w,
                             const std::vector<BackendSelection>& backends) {
  Query q;
  q.with_policy(ExecPolicy::Batch).with_certificates(false);
  for (const BackendSelection& b : backends) q.add(b.kind, b.params);
  std::ostringstream os;
  os << std::left << std::setw(18) << "test" << std::setw(12) << "verdict"
     << std::setw(12) << "iterations" << std::setw(11) << "revisions"
     << "max interval\n";
  if (backends.empty()) return os.str();
  const Outcome out = q.run(w);
  for (const BackendAttempt& a : out.attempts) {
    os << std::left << std::setw(18) << to_string(a.kind) << std::setw(12)
       << to_string(a.result.verdict) << std::setw(12) << a.result.iterations
       << std::setw(11) << a.result.revisions << a.result.max_interval_tested
       << "\n";
  }
  return os.str();
}

std::string comparison_table(const Workload& w, const Platform& p) {
  std::vector<BackendSelection> backends;
  for (const TestKind k : BackendRegistry::instance().kinds_for(p)) {
    backends.push_back(BackendSelection{k, default_params(k)});
  }
  return comparison_table(w, backends);
}

}  // namespace edfkit
