/// \file options.hpp
/// Typed per-backend parameters for the unified query API.
///
/// Every backend owns a small parameter struct; a query carries one
/// `BackendParams` variant per selected backend and `validate_params`
/// rejects out-of-range knobs at the API boundary — epsilon outside
/// (0,1), superposition levels < 1 — with a descriptive
/// `std::invalid_argument` instead of a degenerate scan.
#pragma once

#include <atomic>
#include <cstdint>
#include <variant>

#include "analysis/processor_demand.hpp"
#include "core/all_approx.hpp"
#include "core/dynamic_test.hpp"
#include "util/math.hpp"

namespace edfkit {

enum class TestKind : int;  // full definition in query/registry.hpp

/// Liu & Layland utilization bound — no knobs.
struct LiuLaylandParams {};

/// Devi's sufficient test — no knobs.
struct DeviParams {};

/// SuperPos(level): exact for the first `level` jobs per task.
struct SuperPosParams {
  Time level = 3;  ///< >= 1 (1 == Devi's test, Lemma 2)
};

/// Chakraborty/Künzli/Thiele epsilon-approximate analysis.
struct ChakrabortyParams {
  double epsilon = 0.25;  ///< in (0, 1): k = ceil(1/epsilon) exact jobs
};

/// QPA (Zhang & Burns): only a cancellation hook.
struct QpaParams {
  /// Cooperative cancellation (see ProcessorDemandOptions::stop).
  const std::atomic<bool>* stop = nullptr;
};

/// Real-time-calculus 2-segment curve test — no knobs.
struct RtcCurveParams {};

/// Devi envelopes on the curve machinery — no knobs.
struct DeviEnvelopeParams {};

/// Global-EDF density bound (gfb) — no knobs.
struct GfbParams {};

/// Global-EDF one-pass window test (gbl-bcl) — no knobs.
struct GlobalBclParams {};

/// Global-EDF slack-iterated window test (gbl-bcl-iter).
struct GlobalBclIterParams {
  unsigned max_rounds = 32;  ///< >= 1 slack-iteration rounds
};

/// Global-EDF busy-window/load sweep (gbl-load).
struct GlobalLoadParams {
  std::uint64_t max_points = 1u << 18;  ///< >= 1 step points per task
};

/// Global-EDF response-time analysis (gbl-rta).
struct GlobalRtaParams {
  unsigned max_rounds = 32;          ///< >= 1 outer slack rounds
  unsigned max_iterations = 4096;    ///< >= 1 inner fixpoint steps
};

/// Global-EDF simulation rung (gbl-sim): the decisive closer.
struct GlobalSimParams {
  Time max_horizon = 50'000'000;  ///< > 0; refuse longer hyperperiods
};

/// One variant alternative per backend; ProcessorDemandOptions,
/// DynamicTestOptions and AllApproxOptions are reused directly from the
/// analysis layer (they were already well-typed).
using BackendParams =
    std::variant<LiuLaylandParams, DeviParams, SuperPosParams,
                 ChakrabortyParams, ProcessorDemandOptions, QpaParams,
                 DynamicTestOptions, AllApproxOptions, RtcCurveParams,
                 DeviEnvelopeParams, GfbParams, GlobalBclParams,
                 GlobalBclIterParams, GlobalLoadParams, GlobalRtaParams,
                 GlobalSimParams>;

/// Default-constructed params for `kind`.
[[nodiscard]] BackendParams default_params(TestKind kind);

/// True iff `params` holds the variant alternative belonging to `kind`.
[[nodiscard]] bool params_match(TestKind kind,
                                const BackendParams& params) noexcept;

/// Boundary validation: throws std::invalid_argument with a precise
/// message when `params` is the wrong alternative for `kind` or any knob
/// is out of range (epsilon outside (0,1), level < 1, zero growth, ...).
void validate_params(TestKind kind, const BackendParams& params);

/// Per-query resource limits, applied to every selected backend that
/// supports the limit (others treat it as advisory).
struct ResourceLimits {
  /// Cap on test intervals examined by the processor-demand backend
  /// (0 = unlimited); other backends are bounded by construction.
  std::uint64_t max_iterations = 0;
  /// Step cap for the feasibility-certificate construction sweep; when
  /// exceeded (pathological U == 1 hyperperiods) the outcome falls back
  /// to an exhaustive-replay certificate.
  std::uint64_t certificate_step_cap = 1u << 20;
};

}  // namespace edfkit
