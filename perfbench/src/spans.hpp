/// \file spans.hpp
/// In-memory spans for the traced run, and the self-time arithmetic
/// the per-layer metrics are computed from.
///
/// A span is one timed call into a layer: name, start, end, the span
/// that caused it, and the request it served. Spans are recorded from
/// the benchmark's own code around public entry points; nothing inside
/// the program is instrumented.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr std::int64_t kNoParent = -1;

struct Span {
  const char* name = "";  ///< a string literal naming the layer call
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = kNoParent;  ///< index into the same recording
  std::uint64_t request_id = 0;
};

/// Monotonic nanoseconds (steady_clock).
[[nodiscard]] std::uint64_t now_ns() noexcept;
/// CPU time of the calling thread, nanoseconds.
[[nodiscard]] std::uint64_t thread_cpu_ns() noexcept;

class SpanRecorder {
 public:
  /// Open a span now; close it with end(). Returns its index.
  std::int64_t begin(const char* name, std::uint64_t request_id,
                     std::int64_t parent = kNoParent);
  void end(std::int64_t index) noexcept;
  /// Record a finished span.
  std::int64_t add(const Span& s);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// One JSON object per line: name, start_ns, end_ns, parent, request.
  /// \throws std::runtime_error when the file cannot be written.
  void write_jsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children count once; a child
/// sticking out of its parent counts only inside it).
[[nodiscard]] std::vector<std::uint64_t> self_times(
    const std::vector<Span>& spans);

struct NameTotal {
  std::uint64_t self_ns = 0;
  std::uint64_t count = 0;
};

/// Self time and span count summed per span name.
[[nodiscard]] std::map<std::string, NameTotal> self_time_by_name(
    const std::vector<Span>& spans);

/// A measured total split into named parts plus what they leave over.
struct Attribution {
  double total = 0.0;
  double parts = 0.0;
  double residual = 0.0;       ///< total - parts
  double residual_frac = 0.0;  ///< residual / total (0 when total is 0)
};

[[nodiscard]] Attribution attribute(double total,
                                    const std::vector<double>& parts);

}  // namespace perfbench
