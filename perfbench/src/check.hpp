/// \file check.hpp
/// The decision check: every answer the server gave is replayed through
/// an in-process AdmissionController fed the same op stream, and any
/// difference in status, verdict, rung, TaskId or removal count — or in
/// the final STATS — fails the run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "admission/controller.hpp"
#include "net/protocol.hpp"
#include "opstream.hpp"

namespace perfbench {

/// The decision-relevant part of one answer.
struct Answer {
  edfkit::net::NetOp op = edfkit::net::NetOp::Admit;
  edfkit::net::NetStatus status = edfkit::net::NetStatus::Ok;
  TaskId id = 0;
  std::vector<TaskId> ids;
  std::uint8_t rung = 0;
  std::uint8_t verdict = 0;
  std::uint64_t removed = 0;

  /// Ok or Rejected: an answer, not a failure.
  [[nodiscard]] bool answered() const noexcept;
  [[nodiscard]] bool admitted() const noexcept {
    return status == edfkit::net::NetStatus::Ok &&
           op != edfkit::net::NetOp::RemoveGroup;
  }
};

[[nodiscard]] Answer answer_from_response(edfkit::net::NetOp op,
                                          const edfkit::net::NetResponse& r);

/// One op applied to a twin controller.
struct Applied {
  Answer answer;
  std::uint64_t start_ns = 0;  ///< around the controller call only
  std::uint64_t end_ns = 0;
  /// Admit ops: the decision's rung and analysis record.
  edfkit::AdmissionRung rung = edfkit::AdmissionRung::Structural;
  edfkit::FeasibilityResult analysis;
};

/// Apply `op` to `twin` and return the answer the server owes for it.
[[nodiscard]] Applied apply(edfkit::AdmissionController& twin, const Op& op);

/// "" when `wire` and `twin` agree; otherwise what differs.
[[nodiscard]] std::string compare(const Answer& wire, const Answer& twin);

struct CheckResult {
  std::uint64_t ops = 0;
  std::uint64_t mismatches = 0;
  std::string first;  ///< description of the first mismatch

  void note(std::uint64_t index, const std::string& what);
};

/// Replay a tenant's answered ops, in order, through `twin` fed by
/// `stream` (a fresh stream from the same seed), comparing each.
[[nodiscard]] CheckResult check_log(const std::vector<Answer>& log,
                                    OpStream& stream,
                                    edfkit::AdmissionController& twin);

/// "" when the server's STATS header and stats JSON equal the twin's.
[[nodiscard]] std::string compare_stats(
    const edfkit::net::NetResponse& stats,
    const edfkit::AdmissionController& twin);

}  // namespace perfbench
