/// \file query.hpp
/// The unified analysis service: one entry point every caller routes
/// through — examples, the batch analyzer, the admission controller's
/// escalation ladder, and the bench harness.
///
/// A `Query` selects backends from the registry (with typed, validated
/// per-backend parameters), an execution policy, resource limits, and
/// whether outcomes should carry machine-checkable certificates. It runs
/// against a `Workload` (task set or event streams) and returns a uniform
/// `Outcome`.
///
/// Policies:
///   Single     run exactly one backend.
///   Ladder     escalate through the selection in order, stopping at the
///              first decisive (Feasible/Infeasible) verdict — the online
///              admission controller's ladder is this policy over the
///              registry's incremental backends plus an exact fallback.
///   Batch      run every selected backend and report all verdicts (the
///              comparison-table / batch-column workflow).
///
/// Every policy runs its backends one after another on the calling
/// thread, in selection order.
///
/// Backends that do not support the workload's kind are skipped under
/// multi-backend policies (and rejected under Single) — capability
/// filtering replaces the old hard-coded test lists.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/types.hpp"
#include "model/platform.hpp"
#include "query/certificate.hpp"
#include "query/options.hpp"
#include "query/registry.hpp"
#include "query/workload.hpp"

namespace edfkit {

enum class ExecPolicy : std::uint8_t { Single, Ladder, Batch };

[[nodiscard]] const char* to_string(ExecPolicy p) noexcept;

/// One backend the query will (attempt to) run.
struct BackendSelection {
  TestKind kind;
  BackendParams params;
};

/// One executed backend with its instrumented result.
struct BackendAttempt {
  TestKind kind;
  FeasibilityResult result;
};

/// Uniform result of a query.
struct Outcome {
  /// Combined verdict under the policy (see decided_by).
  Verdict verdict = Verdict::Unknown;
  /// True when some backend produced a decisive Feasible/Infeasible.
  bool decided = false;
  /// The backend whose verdict stands (meaningful when decided).
  TestKind decided_by = TestKind::LiuLayland;
  /// The deciding backend's instrumented result (last attempt otherwise).
  FeasibilityResult analysis;
  /// Every backend that ran, in selection order.
  std::vector<BackendAttempt> attempts;
  /// Backends skipped because they do not support the workload kind.
  std::vector<TestKind> skipped;
  /// Machine-checkable evidence (kind None when not requested or when
  /// the verdict is Unknown). See certificate.hpp / verify().
  Certificate certificate;

  [[nodiscard]] bool feasible() const noexcept {
    return verdict == Verdict::Feasible;
  }
  [[nodiscard]] bool infeasible() const noexcept {
    return verdict == Verdict::Infeasible;
  }
  /// Sum of effort over every attempt (the ladder or batch cost).
  [[nodiscard]] std::uint64_t total_effort() const noexcept;
  [[nodiscard]] std::string to_string() const;
};

class Query {
 public:
  /// Empty selection; add backends with add(). Policy defaults to Batch.
  Query() = default;

  /// One backend, default or explicit params.
  [[nodiscard]] static Query single(TestKind kind);
  [[nodiscard]] static Query single(TestKind kind, BackendParams params);

  /// The default escalation ladder: the registry's incremental backends
  /// (utilization, epsilon-approximate) then QPA.
  [[nodiscard]] static Query ladder(double epsilon = 0.25,
                                    bool include_exact = true);

  /// The platform-aware escalation ladder: for m == 1 exactly ladder();
  /// for m > 1 the global-EDF cascade (cheapest-first, simulation last)
  /// with the platform pre-set — "give me the right test portfolio for
  /// this platform" as one call.
  [[nodiscard]] static Query cascade(const Platform& p);

  /// Run all `kinds` with default params and report every verdict.
  [[nodiscard]] static Query batch(const std::vector<TestKind>& kinds);

  Query& add(TestKind kind);
  Query& add(TestKind kind, BackendParams params);
  Query& with_policy(ExecPolicy policy);
  Query& with_limits(ResourceLimits limits);
  Query& with_certificates(bool want);
  /// Target platform; every selected backend must support it (filtered
  /// under multi-backend policies, rejected under Single). Certificates
  /// switch to the multiprocessor forms when m > 1.
  Query& with_platform(Platform platform);

  [[nodiscard]] const std::vector<BackendSelection>& backends() const noexcept {
    return backends_;
  }
  [[nodiscard]] ExecPolicy policy() const noexcept { return policy_; }
  [[nodiscard]] const ResourceLimits& limits() const noexcept {
    return limits_;
  }
  [[nodiscard]] bool certificates() const noexcept { return certificates_; }
  [[nodiscard]] const Platform& platform() const noexcept {
    return platform_;
  }

  /// Boundary validation (also run by run()): throws std::invalid_argument
  /// on an empty selection, on out-of-range parameters (epsilon outside
  /// (0,1), superpos level < 1, ...), or on a Single policy with an
  /// unsupported/ambiguous selection.
  void validate() const;

  /// Execute against `w` (its canonical sporadic form, see
  /// workload.hpp). \throws std::invalid_argument on validation
  /// failure, an empty (zero-task) workload, or when no selected backend
  /// supports the workload's kind.
  [[nodiscard]] Outcome run(const Workload& w) const {
    return execute(w.kind(), w.tasks());
  }

  /// Execute against a periodic task set. Same contract as
  /// run(const Workload&); neither overload copies the tasks.
  [[nodiscard]] Outcome run(const TaskSet& ts) const {
    return execute(WorkloadKind::PeriodicTasks, ts);
  }

 private:
  /// The body of both run() overloads: `ts` is the workload's canonical
  /// form and `kind` selects the backends that support it.
  [[nodiscard]] Outcome execute(WorkloadKind kind, const TaskSet& ts) const;

  std::vector<BackendSelection> backends_;
  ExecPolicy policy_ = ExecPolicy::Batch;
  ResourceLimits limits_;
  bool certificates_ = true;
  Platform platform_;
};

/// The escalation-ladder kinds the default ladder (and the online
/// admission controller) run, in order: the registry's incremental
/// backends, then QPA when include_exact.
[[nodiscard]] std::vector<TestKind> default_ladder_kinds(
    bool include_exact = true);

/// The platform-aware ladder kinds: delegates to the uniprocessor
/// ladder for m == 1; for m > 1 the global cascade in cost order —
/// GfbDensity, GlobalBcl, GlobalBclIterative, GlobalLoad, GlobalRta,
/// then GlobalSim as the decisive closer (`include_sim` drops it for
/// analysis-only sweeps).
[[nodiscard]] std::vector<TestKind> default_ladder_kinds(
    const Platform& p, bool include_sim = true);

/// Run the given backends (default: every one the platform supports,
/// with default params) over `w` in Batch policy and render an aligned
/// text table (test, verdict, iterations, revisions, max interval) —
/// the diagnostics/examples comparison view. Platform-aware: on m > 1
/// only global-capable backends are enumerated.
[[nodiscard]] std::string comparison_table(const Workload& w,
                                           const Platform& p = {});
[[nodiscard]] std::string comparison_table(
    const Workload& w, const std::vector<BackendSelection>& backends);

}  // namespace edfkit
