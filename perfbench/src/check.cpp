#include "check.hpp"

#include <stdexcept>

#include "spans.hpp"

namespace perfbench {

namespace net = edfkit::net;

bool Answer::answered() const noexcept {
  return status == net::NetStatus::Ok || status == net::NetStatus::Rejected;
}

Answer answer_from_response(net::NetOp op, const net::NetResponse& r) {
  Answer a;
  a.op = op;
  a.status = static_cast<net::NetStatus>(r.hdr.status);
  a.id = r.id;
  a.ids = r.ids;
  a.rung = r.rung;
  a.verdict = r.verdict;
  a.removed = r.removed;
  return a;
}

namespace {

template <typename Decision>
void fill_decision(Applied& out, const Decision& d) {
  out.answer.status = d.admitted ? net::NetStatus::Ok : net::NetStatus::Rejected;
  out.answer.rung = static_cast<std::uint8_t>(d.rung);
  out.answer.verdict = static_cast<std::uint8_t>(d.analysis.verdict);
  out.rung = d.rung;
  out.analysis = d.analysis;
}

}  // namespace

Applied apply(edfkit::AdmissionController& twin, const Op& op) {
  Applied out;
  out.answer.op = op.kind;
  switch (op.kind) {
    case net::NetOp::Admit: {
      out.start_ns = now_ns();
      const edfkit::AdmissionDecision d = twin.try_admit(op.task);
      out.end_ns = now_ns();
      fill_decision(out, d);
      out.answer.id = d.id;
      break;
    }
    case net::NetOp::AdmitGroup: {
      out.start_ns = now_ns();
      const edfkit::GroupDecision d = twin.admit_group(op.group);
      out.end_ns = now_ns();
      fill_decision(out, d);
      out.answer.ids = d.ids;
      break;
    }
    case net::NetOp::RemoveGroup: {
      out.start_ns = now_ns();
      out.answer.removed = twin.remove_group(op.ids);
      out.end_ns = now_ns();
      break;
    }
    default:
      throw std::logic_error("op stream produced a non-admission op");
  }
  return out;
}

std::string compare(const Answer& wire, const Answer& twin) {
  if (wire.op != twin.op) return "op kinds differ (op-count or order drift)";
  if (wire.status != twin.status) {
    return std::string("status: server ") + net::to_string(wire.status) +
           ", twin " + net::to_string(twin.status);
  }
  switch (wire.op) {
    case net::NetOp::Admit:
      if (wire.id != twin.id) return "admitted TaskIds differ";
      break;
    case net::NetOp::AdmitGroup:
      if (wire.ids != twin.ids) return "group TaskIds differ";
      break;
    default:
      if (wire.removed != twin.removed) return "removal counts differ";
      return "";
  }
  if (wire.rung != twin.rung) return "settling rungs differ";
  if (wire.verdict != twin.verdict) return "verdicts differ";
  return "";
}

void CheckResult::note(std::uint64_t index, const std::string& what) {
  if (mismatches++ == 0) {
    first = "op " + std::to_string(index) + ": " + what;
  }
}

CheckResult check_log(const std::vector<Answer>& log, OpStream& stream,
                      edfkit::AdmissionController& twin) {
  CheckResult r;
  for (const Answer& wire : log) {
    const std::optional<Op> op = stream.next();
    if (!op) throw std::logic_error("sequential op stream stalled");
    const Applied a = apply(twin, *op);
    const std::string diff = compare(wire, a.answer);
    if (!diff.empty()) r.note(r.ops, diff);
    if (op->kind != net::NetOp::RemoveGroup) {
      stream.resolve(op->key, a.answer.admitted(),
                     op->kind == net::NetOp::Admit
                         ? std::vector<TaskId>{a.answer.id}
                         : a.answer.ids);
    }
    ++r.ops;
  }
  return r;
}

std::string compare_stats(const net::NetResponse& stats,
                          const edfkit::AdmissionController& twin) {
  const edfkit::StoreHeader a = stats.stats;
  const edfkit::StoreHeader b = twin.demand_header();
  if (a.residents != b.residents || a.constrained != b.constrained ||
      a.live_checkpoints != b.live_checkpoints ||
      a.utilization != b.utilization || a.cert_ratio != b.cert_ratio) {
    return "final STATS headers differ (server " +
           std::to_string(a.residents) + " residents, twin " +
           std::to_string(b.residents) + ")";
  }
  const std::string twin_json = twin.stats().to_json();
  if (stats.stats_json != twin_json) {
    return "stats json differs: server " + stats.stats_json + " twin " +
           twin_json;
  }
  return "";
}

}  // namespace perfbench
