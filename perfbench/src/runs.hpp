/// \file runs.hpp
/// One entry point per (workload kind, traced or not), and the noise
/// record every run prints.
#pragma once

#include <cstdint>
#include <cstdio>

#include "report.hpp"
#include "wire.hpp"

namespace perfbench {

struct RunOutcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Timed runs print the end-to-end metrics; traced runs the per-layer
/// ones.
[[nodiscard]] RunOutcome run_wire(const WireSpec& spec, const RunOptions& opt,
                                  Report& report);
[[nodiscard]] RunOutcome run_wire_traced(const WireSpec& spec,
                                         const RunOptions& opt,
                                         Report& report);
[[nodiscard]] RunOutcome run_offline(const RunOptions& opt, Report& report);
[[nodiscard]] RunOutcome run_offline_traced(const RunOptions& opt,
                                            Report& report);

struct LayerMetric {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, in print order. Traced runs report each one;
/// a layer a workload does not exercise reads 0.
[[nodiscard]] const std::vector<LayerMetric>& per_layer_metrics();

/// Host steal ticks so far (/proc/stat, all CPUs).
[[nodiscard]] std::uint64_t steal_ticks();

/// Pin this process — and the server it forks, which inherits the mask —
/// to the last CPU it may run on. Returns that CPU. On a shared VM, host
/// steal rises with the number of vCPUs the guest keeps busy: with the
/// client and the server on separate vCPUs, steal per 10 s run ranged
/// 30-530 ticks and throughput swung 60% with it; on one vCPU it stays
/// near the idle level. \throws std::system_error when it cannot pin.
int pin_to_one_cpu();

/// The noise record: nproc, CPU model and the pinning used.
void print_host(std::FILE* out, int pinned_cpu);

/// One line: steal ticks over the timed phase and the deciding
/// process's CPU/wall ratio there.
void print_phase_noise(std::FILE* out, std::uint64_t steal_delta,
                       double cpu_s, double wall_s);

}  // namespace perfbench
