/// \file types.hpp
/// Common result/option types for every feasibility test in edfkit.
#pragma once

#include <cstdint>
#include <string>

#include "util/math.hpp"

namespace edfkit {

/// Outcome of a feasibility test.
enum class Verdict : std::uint8_t {
  Feasible,    ///< Provably schedulable under preemptive EDF.
  Infeasible,  ///< Provably unschedulable (a demand overflow exists).
  Unknown,     ///< Test gave up (sufficient test failed to accept, or a
               ///< resource limit such as a level cap was hit).
};

[[nodiscard]] const char* to_string(Verdict v) noexcept;

/// Per-run instrumentation + verdict. `iterations` counts test intervals
/// at which a demand/capacity comparison was made (the paper's metric,
/// §5); `revisions` counts per-task approximation withdrawals (inner-loop
/// work of the new tests). `effort()` is what the figures plot.
struct FeasibilityResult {
  Verdict verdict = Verdict::Unknown;
  std::uint64_t iterations = 0;
  std::uint64_t revisions = 0;
  /// Largest interval examined (diagnostic).
  Time max_interval_tested = 0;
  /// For Infeasible: an interval I with dbf(I) > I. -1 otherwise.
  Time witness = -1;
  /// For the dynamic test: the final superposition level reached.
  Time final_level = 0;
  /// Set when exact rational arithmetic degraded and a conservative
  /// fallback path ran. Verdicts remain sound: a comparison nothing
  /// could decide is taken the way that proves nothing (the exact walks
  /// revise once more, a sufficient test rejects, and a walk with
  /// nothing left to revise answers Unknown, not Infeasible).
  bool degraded = false;
  /// Nothing sets this: no test can be cancelled. It stays only because
  /// the benchmark under perfbench/ still reads it, and goes at the next
  /// change to the benchmark.
  bool cancelled = false;

  [[nodiscard]] std::uint64_t effort() const noexcept {
    return iterations + revisions;
  }
  [[nodiscard]] bool feasible() const noexcept {
    return verdict == Verdict::Feasible;
  }
  [[nodiscard]] bool infeasible() const noexcept {
    return verdict == Verdict::Infeasible;
  }

  [[nodiscard]] std::string to_string() const;
};

/// Helpers for composing results.
[[nodiscard]] FeasibilityResult make_verdict(Verdict v) noexcept;

}  // namespace edfkit
