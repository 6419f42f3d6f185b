#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <ctime>
#include <fstream>
#include <stdexcept>
#include <utility>

namespace perfbench {

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t thread_cpu_ns() noexcept {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000u +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

std::int64_t SpanRecorder::begin(const char* name, std::uint64_t request_id,
                                 std::int64_t parent) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.request_id = request_id;
  s.start_ns = now_ns();
  return add(s);
}

void SpanRecorder::end(std::int64_t index) noexcept {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
}

std::int64_t SpanRecorder::add(const Span& s) {
  spans_.push_back(s);
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void SpanRecorder::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  for (const Span& s : spans_) {
    out << "{\"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request_id << "}\n";
  }
  if (!out) throw std::runtime_error("short write of spans to " + path);
}

std::vector<std::uint64_t> self_times(const std::vector<Span>& spans) {
  // Children's intervals clipped to their parent, grouped by parent.
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent == kNoParent) continue;
    const auto p = static_cast<std::size_t>(s.parent);
    if (p >= spans.size()) throw std::out_of_range("span parent out of range");
    const std::uint64_t lo = std::max(s.start_ns, spans[p].start_ns);
    const std::uint64_t hi = std::min(s.end_ns, spans[p].end_ns);
    if (lo < hi) kids[p].emplace_back(lo, hi);
  }
  std::vector<std::uint64_t> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::uint64_t dur =
        spans[i].end_ns > spans[i].start_ns
            ? spans[i].end_ns - spans[i].start_ns
            : 0;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0;
    std::uint64_t run_lo = 0;
    std::uint64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    out[i] = dur - std::min(dur, covered);
  }
  return out;
}

std::map<std::string, NameTotal> self_time_by_name(
    const std::vector<Span>& spans) {
  const std::vector<std::uint64_t> self = self_times(spans);
  std::map<std::string, NameTotal> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    NameTotal& t = out[spans[i].name];
    t.self_ns += self[i];
    ++t.count;
  }
  return out;
}

Attribution attribute(double total, const std::vector<double>& parts) {
  Attribution a;
  a.total = total;
  for (const double p : parts) a.parts += p;
  a.residual = total - a.parts;
  a.residual_frac = total != 0.0 ? a.residual / total : 0.0;
  return a;
}

}  // namespace perfbench
