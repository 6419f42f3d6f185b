/// \file shed.hpp
/// Load-shedding policy for the admission server: decide, *before*
/// running any admission analysis, whether to reject-fast with a
/// RETRY_AFTER hint instead.
///
/// Two cheap signals drive the decision:
///   * pending-queue depth — how many decoded requests this event-loop
///     tick is already committed to serving. Admission decisions are
///     the only expensive work on the loop; a deep queue means arrival
///     rate is outrunning decision throughput and latency is about to
///     compound.
///   * the tenant's StoreHeader — the demand store's aggregates
///     (admission/incremental_dbf.hpp header()), read on the loop
///     thread that mutates the tenant: resident count and the
///     certified utilization upper bound. Past
///     a configured headroom the ladder would almost certainly run its
///     expensive rungs just to reject; shedding there converts a slow
///     certain-reject into a fast retryable one.
///
/// Only admit-type ops are ever shed. Removals shrink the resident set
/// (they are how load *drains*), STATS/PING are O(1), and HELLO must
/// always succeed or clients cannot even be told to back off.
#pragma once

#include <cstddef>
#include <cstdint>

#include "admission/incremental_dbf.hpp"
#include "net/protocol.hpp"

namespace edfkit::net {

struct ShedOptions {
  /// Shed admits when the tick's pending-request queue is this deep.
  /// 0 disables depth shedding.
  std::size_t max_pending = 1024;
  /// Shed admits for a tenant whose resident count reached this. 0
  /// disables. (Shedding is "not now", invisible to admission stats —
  /// unlike a ladder reject.)
  std::size_t max_residents = 0;
  /// Shed admits for a tenant whose certified utilization upper bound
  /// reached this fraction of its platform's capacity (headroom * m for
  /// an m-processor tenant). >= 1.0 disables (the ladder itself settles
  /// U >= m).
  double utilization_headroom = 1.0;
  /// Retry hint stamped into Shed responses.
  std::uint32_t retry_after_ms = 50;
};

class ShedPolicy {
 public:
  explicit ShedPolicy(ShedOptions opts) noexcept : opts_(opts) {}

  [[nodiscard]] const ShedOptions& options() const noexcept { return opts_; }

  /// Should this request be shed? `pending` is the depth of the
  /// current tick's decoded-request queue; `header` the tenant's
  /// store header; `processors` the tenant's platform m.
  [[nodiscard]] bool should_shed(NetOp op, std::size_t pending,
                                 const StoreHeader& header,
                                 std::uint32_t processors) const noexcept;

 private:
  ShedOptions opts_;
};

}  // namespace edfkit::net
