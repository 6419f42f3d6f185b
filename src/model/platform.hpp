/// \file platform.hpp
/// Execution platform description for schedulability queries.
///
/// The analysis layer was uniprocessor-only by construction; the query
/// API now threads an explicit `Platform` (m identical unit-speed
/// processors) through `Query::with_platform`, the backend registry, the
/// admission controller, and the wire protocol. `m == 1` everywhere by
/// default, which keeps every pre-existing call site source- and
/// behavior-compatible.
///
/// Only identical multiprocessors are modeled: all processors run at the
/// same speed and any job may execute on any processor (full migration
/// under global scheduling). Uniform/heterogeneous platforms would need
/// speed vectors and are out of scope.
#pragma once

#include <cstdint>
#include <string>

namespace edfkit {

/// m identical unit-speed processors. m == 1 is the classic
/// uniprocessor case every legacy entry point assumes.
struct Platform {
  std::uint32_t m = 1;

  [[nodiscard]] constexpr bool uniprocessor() const noexcept {
    return m == 1;
  }

  [[nodiscard]] friend constexpr bool operator==(const Platform& a,
                                                 const Platform& b) noexcept {
    return a.m == b.m;
  }
  [[nodiscard]] friend constexpr bool operator!=(const Platform& a,
                                                 const Platform& b) noexcept {
    return a.m != b.m;
  }
};

/// Largest processor count the toolkit accepts. Arbitrary but finite:
/// it bounds wire-decoded values so a corrupt HELLO cannot make the
/// admission ladder spin over billions of processors.
inline constexpr std::uint32_t kMaxProcessors = 4096;

/// True iff `p` is usable: 1 <= m <= kMaxProcessors.
[[nodiscard]] bool platform_valid(const Platform& p) noexcept;

/// "uniprocessor" or "m=<k> identical".
[[nodiscard]] std::string to_string(const Platform& p);

}  // namespace edfkit
