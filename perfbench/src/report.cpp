#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

namespace {

std::size_t nearest_rank(std::size_t n, double p) noexcept {
  // The slack keeps p * n that lands a rounding error above a whole
  // number (0.9 * 100) on that number.
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(n) - 1e-9));
  return rank == 0 ? 1 : rank;
}

std::string format_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

bool percentile_supported(std::size_t n, double p) noexcept {
  if (n == 0 || p < 0.0 || p > 1.0) return false;
  return n - nearest_rank(n, p) >= kMinTailSamples;
}

double percentile(const std::vector<double>& sorted, double p) {
  if (!percentile_supported(sorted.size(), p)) {
    throw std::invalid_argument(
        "percentile " + format_number(p) + " of " +
        std::to_string(sorted.size()) + " samples has fewer than " +
        std::to_string(kMinTailSamples) + " samples beyond it");
  }
  return sorted[nearest_rank(sorted.size(), p) - 1];
}

double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of nothing");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

std::size_t window_count(double seconds) noexcept {
  return static_cast<std::size_t>(std::clamp(std::floor(seconds), 1.0, 10.0));
}

Windowed windowed_medians(const std::vector<double>& latency_us,
                          const std::vector<Mark>& marks) {
  if (marks.size() < 2) throw std::invalid_argument("no window to summarize");
  std::vector<double> rate, p50, p90, cpu;
  for (std::size_t w = 1; w < marks.size(); ++w) {
    const Mark& a = marks[w - 1];
    const Mark& b = marks[w];
    if (b.ops > latency_us.size() || b.ops < a.ops || b.t_ns <= a.t_ns) {
      throw std::invalid_argument("window marks out of order");
    }
    const double ops = static_cast<double>(b.ops - a.ops);
    std::vector<double> lat(latency_us.begin() + static_cast<std::ptrdiff_t>(a.ops),
                            latency_us.begin() + static_cast<std::ptrdiff_t>(b.ops));
    std::sort(lat.begin(), lat.end());
    rate.push_back(ops / (static_cast<double>(b.t_ns - a.t_ns) / 1e9));
    p50.push_back(percentile(lat, 0.50));
    p90.push_back(percentile(lat, 0.90));
    cpu.push_back(static_cast<double>(b.cpu_ns - a.cpu_ns) / 1e3 / ops);
  }
  return {median(rate), median(p50), median(p90), median(cpu)};
}

bool valid_metric_name(std::string_view name) noexcept {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  for (const char c : name) {
    if (!alnum(c) && c != '_' && c != '.' && c != '-') return false;
  }
  return true;
}

void Report::add(std::string name, double value, std::string unit,
                 std::uint64_t samples) {
  if (!valid_metric_name(name)) {
    throw std::invalid_argument("invalid metric name '" + name + "'");
  }
  for (const Metric& m : metrics_) {
    if (m.name == name) {
      throw std::invalid_argument("metric '" + name + "' reported twice");
    }
  }
  if (!std::isfinite(value)) {
    throw std::invalid_argument("metric '" + name + "' is not finite");
  }
  metrics_.push_back({std::move(name), value, std::move(unit), samples});
}

void Report::print(std::FILE* out) const {
  for (const Metric& m : metrics_) {
    std::fprintf(out, "  %-40s %14.6g %-6s", m.name.c_str(), m.value,
                 m.unit.c_str());
    if (m.samples != 0) {
      std::fprintf(out, " (n=%llu)",
                   static_cast<unsigned long long>(m.samples));
    }
    std::fputc('\n', out);
  }
}

std::string Report::json(bool correct, std::uint64_t attempted,
                         std::uint64_t failed) const {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    if (i != 0) s += ", ";
    s += "\"" + m.name + "\": {\"value\": " + format_number(m.value) +
         ", \"unit\": \"" + m.unit + "\"}";
  }
  s += "}}";
  return s;
}

}  // namespace perfbench
