#include "obs/metrics.hpp"

#include <sstream>

namespace edfkit::obs {
namespace {

std::uint64_t counter_of(const detail::CounterCell& c) noexcept {
  return c.v.load(std::memory_order_relaxed);
}

HistogramSnapshot snapshot_of(const detail::HistogramCell& c) noexcept {
  HistogramSnapshot out;
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    out.buckets[i] = c.b[i].load(std::memory_order_relaxed);
    out.count += out.buckets[i];
    if (i > 0) {
      // Geometric midpoint of [2^(i-1), 2^i) is 1.5 * 2^(i-1); the
      // overflow bucket counts at its lower bound.
      const double lo = static_cast<double>(bucket_lo(i));
      const double mid = i + 1 < kHistogramBuckets ? 1.5 * lo : lo;
      out.approx_sum += static_cast<double>(out.buckets[i]) * mid;
    }
  }
  return out;
}

std::uint64_t count_of(const detail::HistogramCell& c) noexcept {
  std::uint64_t total = 0;
  for (const auto& b : c.b) total += b.load(std::memory_order_relaxed);
  return total;
}

std::uint64_t eval_derived(const detail::DerivedSpec& d) noexcept {
  std::uint64_t plus = 0;
  std::uint64_t minus = 0;
  for (const auto* h : d.hists) plus += count_of(*h);
  for (const auto* c : d.plus) plus += counter_of(*c);
  for (const auto* c : d.minus) minus += counter_of(*c);
  for (const auto* h : d.hists_minus) minus += count_of(*h);
  return plus > minus ? plus - minus : 0;
}

/// Real and derived counters in one sorted view for the exporters
/// (emplace keeps the real cell when a name is shadowed).
std::map<std::string, std::uint64_t> merged_counters(
    const std::map<std::string, std::unique_ptr<detail::CounterCell>>&
        counters,
    const std::map<std::string, detail::DerivedSpec>& derived) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, cell] : counters) {
    out.emplace(name, counter_of(*cell));
  }
  for (const auto& [name, spec] : derived) {
    out.emplace(name, eval_derived(spec));
  }
  return out;
}

void json_string(std::ostringstream& os, const std::string& s) {
  os << '"';
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      os << '\\' << ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      os << ' ';
    } else {
      os << ch;
    }
  }
  os << '"';
}

}  // namespace

Counter MetricsRegistry::counter(const std::string& name) {
  if (!enabled_) return Counter{};
  const std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<detail::CounterCell>();
  return Counter{slot.get()};
}

Gauge MetricsRegistry::gauge(const std::string& name) {
  if (!enabled_) return Gauge{};
  const std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<detail::GaugeCell>();
  return Gauge{slot.get()};
}

Histogram MetricsRegistry::histogram(const std::string& name) {
  if (!enabled_) return Histogram{};
  const std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<detail::HistogramCell>();
  return Histogram{slot.get()};
}

void MetricsRegistry::derive_counter(const std::string& name,
                                     const std::vector<std::string>& hist_counts,
                                     const std::vector<std::string>& plus,
                                     const std::vector<std::string>& minus,
                                     const std::vector<std::string>& hist_minus) {
  if (!enabled_) return;
  const std::lock_guard<std::mutex> lock(mu_);
  detail::DerivedSpec spec;
  for (const auto& h : hist_counts) {
    auto& slot = histograms_[h];
    if (slot == nullptr) slot = std::make_unique<detail::HistogramCell>();
    spec.hists.push_back(slot.get());
  }
  for (const auto& h : hist_minus) {
    auto& slot = histograms_[h];
    if (slot == nullptr) slot = std::make_unique<detail::HistogramCell>();
    spec.hists_minus.push_back(slot.get());
  }
  for (const auto& c : plus) {
    auto& slot = counters_[c];
    if (slot == nullptr) slot = std::make_unique<detail::CounterCell>();
    spec.plus.push_back(slot.get());
  }
  for (const auto& c : minus) {
    auto& slot = counters_[c];
    if (slot == nullptr) slot = std::make_unique<detail::CounterCell>();
    spec.minus.push_back(slot.get());
  }
  derived_[name] = std::move(spec);
}

std::uint64_t MetricsRegistry::counter_value(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(name);
  if (it != counters_.end()) return counter_of(*it->second);
  const auto dit = derived_.find(name);
  return dit == derived_.end() ? 0 : eval_derived(dit->second);
}

double MetricsRegistry::gauge_value(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = gauges_.find(name);
  return it == gauges_.end()
             ? 0.0
             : it->second->v.load(std::memory_order_relaxed);
}

HistogramSnapshot MetricsRegistry::histogram_snapshot(
    const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? HistogramSnapshot{}
                                 : snapshot_of(*it->second);
}

std::vector<std::string> MetricsRegistry::names() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(counters_.size() + derived_.size() + gauges_.size() +
              histograms_.size());
  for (const auto& [name, cell] : counters_) out.push_back(name);
  for (const auto& [name, spec] : derived_) {
    if (counters_.find(name) == counters_.end()) out.push_back(name);
  }
  for (const auto& [name, cell] : gauges_) out.push_back(name);
  for (const auto& [name, cell] : histograms_) out.push_back(name);
  return out;
}

std::string MetricsRegistry::to_prometheus() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  for (const auto& [name, value] : merged_counters(counters_, derived_)) {
    os << "# TYPE edfkit_" << name << " counter\n";
    os << "edfkit_" << name << ' ' << value << '\n';
  }
  for (const auto& [name, cell] : gauges_) {
    os << "# TYPE edfkit_" << name << " gauge\n";
    os << "edfkit_" << name << ' '
       << cell->v.load(std::memory_order_relaxed) << '\n';
  }
  for (const auto& [name, cell] : histograms_) {
    const HistogramSnapshot snap = snapshot_of(*cell);
    os << "# TYPE edfkit_" << name << " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i + 1 < kHistogramBuckets; ++i) {
      cumulative += snap.buckets[i];
      // Samples are integers, so bucket i's half-open [lo, 2^i) range
      // is exactly le = 2^i - 1 inclusive.
      os << "edfkit_" << name << "_bucket{le=\"" << (bucket_hi(i) - 1)
         << "\"} " << cumulative << '\n';
    }
    os << "edfkit_" << name << "_bucket{le=\"+Inf\"} " << snap.count
       << '\n';
    os << "edfkit_" << name << "_sum " << snap.approx_sum << '\n';
    os << "edfkit_" << name << "_count " << snap.count << '\n';
  }
  return os.str();
}

std::string MetricsRegistry::to_json() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : merged_counters(counters_, derived_)) {
    if (!first) os << ',';
    first = false;
    json_string(os, name);
    os << ':' << value;
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, cell] : gauges_) {
    if (!first) os << ',';
    first = false;
    json_string(os, name);
    os << ':' << cell->v.load(std::memory_order_relaxed);
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, cell] : histograms_) {
    if (!first) os << ',';
    first = false;
    const HistogramSnapshot snap = snapshot_of(*cell);
    json_string(os, name);
    os << ":{\"count\":" << snap.count << ",\"approx_sum\":"
       << snap.approx_sum << ",\"buckets\":[";
    bool first_bucket = true;
    for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
      if (snap.buckets[i] == 0) continue;
      if (!first_bucket) os << ',';
      first_bucket = false;
      os << "{\"lo\":" << bucket_lo(i) << ",\"hi\":";
      if (i + 1 < kHistogramBuckets) {
        os << bucket_hi(i);
      } else {
        os << "null";
      }
      os << ",\"count\":" << snap.buckets[i] << '}';
    }
    os << "]}";
  }
  os << "}}";
  return os.str();
}

}  // namespace edfkit::obs
