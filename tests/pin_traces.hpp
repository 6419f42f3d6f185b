/// \file pin_traces.hpp
/// Fixed-seed churn traces shared by the decision pin
/// (admission/test_decision_pin.cpp) and the snapshot read-compat test
/// (persist/test_snapshot_compat.cpp), plus the driver both use to step
/// a controller through them. The traces come from
/// generate_churn_trace with fixed seeds, so the same event stream is
/// produced by every build of the library; the driver folds every
/// decision into a 64-bit FNV-1a digest (admitted, rung, verdict, ids,
/// iterations, revisions, certificate kind), which is what the pin
/// compares.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "admission/controller.hpp"
#include "admission/replay.hpp"

namespace edfkit::testing {

struct PinTrace {
  const char* name;
  AdmissionOptions options;
  ChurnConfig churn;
  std::uint64_t seed;
};

[[nodiscard]] inline std::vector<TraceEvent> pin_events(const PinTrace& p) {
  Rng rng(p.seed);
  return generate_churn_trace(rng, p.churn);
}

/// Fixed-family churn at pool utilization `u` with `tasks` tasks per
/// pool set; `group_p` of arrivals are `group_size`-task groups.
[[nodiscard]] inline ChurnConfig pin_churn(int tasks, double u,
                                           std::size_t warmup,
                                           std::size_t events,
                                           double group_p,
                                           std::size_t group_size) {
  ChurnConfig c;
  c.family = ChurnConfig::Family::Fixed;
  c.fixed_tasks = tasks;
  c.pool_utilization = u;
  c.warmup_arrivals = warmup;
  c.events = events;
  c.group_probability = group_p;
  c.group_size = group_size;
  return c;
}

/// The pinned traces: the skip_exact ladder with 8-task groups at
/// U 0.99, the full uniprocessor ladder (exact rung included) with
/// groups, and global mode at m = 4 and m = 8. One trace per ladder
/// also returns certificates. The Fixed-family global traces settle
/// only at GFB accepts and the Exact rung; the Small-family one at
/// m = 2 (short hyperperiods) also reaches the U > m gate, the window
/// tests and decisive simulations.
[[nodiscard]] inline std::vector<PinTrace> pin_traces() {
  AdmissionOptions skip;
  skip.skip_exact = true;
  AdmissionOptions full;
  AdmissionOptions full_cert;
  full_cert.return_certificate = true;
  AdmissionOptions m4;
  m4.platform.m = 4;
  m4.return_certificate = true;
  AdmissionOptions m8;
  m8.platform.m = 8;
  AdmissionOptions m8_skip = m8;
  m8_skip.skip_exact = true;
  AdmissionOptions m2;
  m2.platform.m = 2;
  m2.return_certificate = true;
  ChurnConfig small = pin_churn(8, 0.9, 30, 300, 0.2, 3);
  small.family = ChurnConfig::Family::Small;
  return {
      {"skip-exact-g8-a", skip, pin_churn(100, 0.99, 120, 1500, 0.15, 8), 11},
      {"skip-exact-g8-b", skip, pin_churn(100, 0.99, 120, 1500, 0.15, 8), 12},
      {"full-ladder-g6", full, pin_churn(60, 0.99, 60, 1200, 0.2, 6), 21},
      {"full-ladder-cert", full_cert, pin_churn(20, 0.99, 40, 600, 0.3, 3),
       22},
      {"global-m4-cert", m4, pin_churn(20, 0.99, 100, 400, 0.15, 4), 31},
      {"global-m8", m8, pin_churn(20, 0.99, 180, 300, 0.1, 4), 32},
      {"global-m8-skip", m8_skip, pin_churn(20, 0.99, 180, 300, 0.1, 4), 33},
      {"global-m2-small", m2, small, 34},
  };
}

/// A snapshot read-compat case: the image `file` (tests/data/) holds
/// the state after the first `split` events of `trace`, written by the
/// library at snapshot format v2.
struct CompatTrace {
  const char* file;
  PinTrace trace;
  std::size_t split;
};

[[nodiscard]] inline std::vector<CompatTrace> compat_traces() {
  // Options away from their defaults, so their v2 decode is exercised
  // (the dropped ones hold their defaults). snapshot_v2_controller.bin
  // is not among them: it sets eager_compaction, which is refused.
  AdmissionOptions global;
  global.platform.m = 4;
  global.return_certificate = true;
  return {
      {"snapshot_v2_global.bin",
       {"global", global, pin_churn(15, 0.99, 60, 200, 0.15, 3), 42}, 150},
  };
}

/// 64-bit FNV-1a over little-endian words.
struct Fnv64 {
  std::uint64_t h = 1469598103934665603ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
};

/// Steps a controller through trace events, tracking which ids each
/// arrival key holds and folding every decision into `digest`.
struct PinDriver {
  AdmissionController& ctl;
  Fnv64 digest;
  std::vector<std::pair<std::uint64_t, std::vector<TaskId>>> live;

  void fold(bool admitted, AdmissionRung rung, const FeasibilityResult& a,
            const Certificate& cert) {
    digest.add(admitted ? 1 : 0);
    digest.add(static_cast<std::uint64_t>(rung));
    digest.add(static_cast<std::uint64_t>(a.verdict));
    digest.add(a.iterations);
    digest.add(a.revisions);
    digest.add(static_cast<std::uint64_t>(cert.kind));
  }

  void step(const TraceEvent& ev) {
    switch (ev.op) {
      case TraceOp::Arrive: {
        const AdmissionDecision d = ctl.try_admit(ev.task);
        digest.add(1);
        fold(d.admitted, d.rung, d.analysis, d.certificate);
        digest.add(d.id);
        if (d.admitted) live.emplace_back(ev.key, std::vector<TaskId>{d.id});
        break;
      }
      case TraceOp::ArriveGroup: {
        GroupDecision d = ctl.admit_group(ev.group);
        digest.add(2);
        fold(d.admitted, d.rung, d.analysis, d.certificate);
        digest.add(d.ids.size());
        for (const TaskId id : d.ids) digest.add(id);
        if (d.admitted) live.emplace_back(ev.key, std::move(d.ids));
        break;
      }
      case TraceOp::Depart:
        for (std::size_t i = 0; i < live.size(); ++i) {
          if (live[i].first != ev.key) continue;
          digest.add(3);
          digest.add(ctl.remove_group(live[i].second));
          live[i] = std::move(live.back());
          live.pop_back();
          break;
        }
        break;
      case TraceOp::Crash:
        break;
    }
  }
};

}  // namespace edfkit::testing
