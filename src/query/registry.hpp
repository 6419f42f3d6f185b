/// \file registry.hpp
/// The backend registry of the unified query API: every feasibility test
/// in edfkit registers here with its name, exactness, supported workload
/// kinds, and incremental (admission-usable) capability. `TestKind` — the
/// enum callers historically switched over — is now just a lookup key
/// into this table; sweeps, ladders, and the batch analyzer enumerate the
/// registry instead of hard-coded kind lists.
///
/// Backends run through a uniform function-pointer entry taking the
/// canonical sporadic `TaskSet` plus their typed parameter struct (see
/// options.hpp); the Query layer (query.hpp) handles workload
/// normalization, validation, policies, and certificates on top.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/types.hpp"
#include "model/platform.hpp"
#include "model/task_set.hpp"
#include "query/options.hpp"
#include "query/workload.hpp"

namespace edfkit {

/// Every analysis the library implements. A lookup key into the
/// BackendRegistry; new backends extend the enum and register a row.
enum class TestKind : int {
  LiuLayland,       ///< utilization bound [12] (exact for implicit deadlines)
  Devi,             ///< sufficient test [9]
  SuperPos,         ///< superposition approximation [1], needs `level`
  Chakraborty,      ///< approximate analysis [8], needs `epsilon`
  ProcessorDemand,  ///< exact test [3]
  Qpa,              ///< exact test (Zhang & Burns 2009, extension)
  Dynamic,          ///< dynamic-error exact test (paper §4.1)
  AllApprox,        ///< all-approximated exact test (paper §4.2)
  RtcCurve,         ///< real-time-calculus 2-segment curve test (§3.6)
  DeviEnvelope,     ///< Devi's envelopes on the RTC curve machinery (§3.6)
  GfbDensity,       ///< global-EDF density bound (analysis/multi)
  GlobalBcl,        ///< global-EDF window test, one pass
  GlobalBclIterative,  ///< global-EDF window test, slack-iterated
  GlobalLoad,       ///< global-EDF busy-window/load sweep
  GlobalRta,        ///< global-EDF response-time analysis
  GlobalSim,        ///< m-processor simulation rung (decisive closer)
};

[[nodiscard]] const char* to_string(TestKind k) noexcept;

/// Platform capability flags: which execution platforms a backend's
/// verdict applies to. `uniprocessor` tests answer for m == 1;
/// `global` tests answer for global EDF on any m.
enum PlatformCap : std::uint8_t {
  kPlatformUniprocessor = 1u << 0,
  kPlatformGlobal = 1u << 1,
};

/// One registered backend: capabilities plus the uniform runner.
struct BackendInfo {
  TestKind kind;
  const char* name;     ///< stable registry/CLI name (e.g. "qpa")
  const char* summary;  ///< one-line description for listings
  /// True for tests whose Feasible *and* Infeasible verdicts are proofs.
  /// (The global sufficient tests are not exact; gbl-sim's Feasible is
  /// exact only for the synchronous periodic interpretation, so it also
  /// registers as non-exact — sim/oracle.hpp documents the semantics.)
  bool exact = false;
  /// Workload kinds the backend accepts (event streams run on the exact
  /// dbf-preserving sporadic expansion unless natively supported).
  bool supports_tasks = true;
  bool supports_streams = true;
  /// True when the test has an incremental/online formulation used by the
  /// admission controller's cheap rungs (utilization, epsilon-approx).
  bool incremental = false;
  /// PlatformCap bitmask; see supports(const Platform&).
  std::uint8_t platform_caps = kPlatformUniprocessor;
  /// Uniform entry point: canonical sporadic form + platform + typed
  /// params. The params variant must hold the alternative for `kind`
  /// (see validate_params); Query guarantees this before dispatch.
  /// Uniprocessor backends ignore the platform (Query only routes them
  /// m == 1 work).
  FeasibilityResult (*run)(const TaskSet& ts, const Platform& platform,
                           const BackendParams& params);

  [[nodiscard]] bool supports(WorkloadKind w) const noexcept {
    return w == WorkloadKind::PeriodicTasks ? supports_tasks
                                            : supports_streams;
  }
  /// Platform filtering: m == 1 queries run the uniprocessor backends
  /// (the global tests degenerate there but the classic exact tests
  /// dominate them); m > 1 queries run the global backends.
  [[nodiscard]] bool supports(const Platform& p) const noexcept {
    return (platform_caps &
            (p.uniprocessor() ? kPlatformUniprocessor : kPlatformGlobal)) !=
           0;
  }
};

/// Typed lookup failure for name-based resolution: carries the unknown
/// name and a did-you-mean candidate list (close names by edit
/// distance, or the full registry when nothing is close).
class UnknownBackendError : public std::invalid_argument {
 public:
  UnknownBackendError(std::string name, std::vector<std::string> candidates);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const std::vector<std::string>& candidates() const noexcept {
    return candidates_;
  }

 private:
  std::string name_;
  std::vector<std::string> candidates_;
};

/// Immutable singleton table of every backend.
class BackendRegistry {
 public:
  [[nodiscard]] static const BackendRegistry& instance();

  /// Lookup by kind; never nullptr for a valid TestKind.
  [[nodiscard]] const BackendInfo* find(TestKind k) const noexcept;
  /// Lookup by stable name ("qpa", "all-approx", ...); nullptr if unknown.
  [[nodiscard]] const BackendInfo* find(std::string_view name) const noexcept;
  /// Lookup by name, throwing UnknownBackendError (with did-you-mean
  /// candidates) instead of returning nullptr.
  [[nodiscard]] const BackendInfo& resolve(std::string_view name) const;
  /// The did-you-mean list for an unknown name: registered names within
  /// edit distance 2 or sharing a prefix/substring; the full name list
  /// when nothing is close.
  [[nodiscard]] std::vector<std::string> suggestions(
      std::string_view name) const;

  [[nodiscard]] std::span<const BackendInfo> all() const noexcept {
    return backends_;
  }

  /// Kinds with exact == true, in registration order.
  [[nodiscard]] std::vector<TestKind> exact_kinds() const;
  /// Kinds supporting the given workload kind, in registration order.
  [[nodiscard]] std::vector<TestKind> kinds_for(WorkloadKind w) const;
  /// Kinds applicable to the given platform, in registration order.
  [[nodiscard]] std::vector<TestKind> kinds_for(const Platform& p) const;

  /// Aligned text table of the registry (name, exactness, workloads,
  /// incremental, platform) — the README's capability table is generated
  /// from this.
  [[nodiscard]] std::string capability_table() const;

 private:
  BackendRegistry();
  std::vector<BackendInfo> backends_;
};

/// All kinds, in declaration order (for sweeps). Enumerates the registry.
[[nodiscard]] const std::vector<TestKind>& all_test_kinds();

/// True for tests whose Feasible *and* Infeasible verdicts are exact.
[[nodiscard]] bool is_exact(TestKind k) noexcept;

}  // namespace edfkit
