/// \file report.hpp
/// Metric naming, percentiles and the one-line JSON result every run
/// ends with.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Samples a reported percentile must have beyond it; with fewer, the
/// tail value is one or two lucky samples, not a property of the run.
inline constexpr std::size_t kMinTailSamples = 10;

/// True when percentile `p` (in [0, 1]) of `n` samples has at least
/// kMinTailSamples samples strictly above its nearest rank.
[[nodiscard]] bool percentile_supported(std::size_t n, double p) noexcept;

/// Nearest-rank percentile of an ascending sample: the value at rank
/// ceil(p * n) (1-based). \throws std::invalid_argument when the sample
/// is empty or percentile_supported() fails.
[[nodiscard]] double percentile(const std::vector<double>& sorted, double p);

/// Cumulative counters at one window boundary of a timed phase.
struct Mark {
  std::uint64_t t_ns = 0;
  std::uint64_t ops = 0;  ///< ops completed so far (== latency samples)
  std::uint64_t cpu_ns = 0;  ///< the deciding process's CPU so far
};

/// Per-window rates, percentiles and CPU, each the median over the
/// windows.
struct Windowed {
  double ops_per_s = 0.0;
  double p50_us = 0.0;
  double p90_us = 0.0;
  double cpu_us_per_op = 0.0;
};

/// The timed phase cut at `marks` (marks[0] is its start): each window
/// gets its own throughput, latency percentiles and CPU per op, and the
/// median window is reported, so a burst of host steal or a slow spell
/// of the machine in a few windows moves no figure. `latency_us` holds
/// one sample per op, in completion order. \throws
/// std::invalid_argument when a window is too small for a supported p90.
[[nodiscard]] Windowed windowed_medians(const std::vector<double>& latency_us,
                                        const std::vector<Mark>& marks);

/// Windows to cut a phase of `seconds` into: one per second, 1..10.
[[nodiscard]] std::size_t window_count(double seconds) noexcept;

/// Median of a small sample. \throws std::invalid_argument when empty.
[[nodiscard]] double median(std::vector<double> v);

/// Metric names: 1..64 characters of [A-Za-z0-9_.-], first a letter or
/// digit.
[[nodiscard]] bool valid_metric_name(std::string_view name) noexcept;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Observations behind the value (0 = a single measurement).
  std::uint64_t samples = 0;
};

class Report {
 public:
  /// \throws std::invalid_argument on an invalid or repeated name, or a
  /// value that is not finite.
  void add(std::string name, double value, std::string unit,
           std::uint64_t samples = 0);

  [[nodiscard]] const std::vector<Metric>& metrics() const noexcept {
    return metrics_;
  }

  /// "name = value unit (n=samples)" lines, for people.
  void print(std::FILE* out) const;

  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  [[nodiscard]] std::string json(bool correct, std::uint64_t attempted,
                                 std::uint64_t failed) const;

 private:
  std::vector<Metric> metrics_;
};

}  // namespace perfbench
