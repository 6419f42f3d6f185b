/// \file metrics.hpp
/// Lock-free metrics registry: named counters, gauges and log2-bucket
/// latency histograms for the admission subsystem's hot paths.
///
/// Design contract (the reason this layer may be compiled in
/// everywhere): a sample on the admit path costs exactly one relaxed
/// atomic add — no locks, no allocation, no branches beyond the null
/// handle check. Each counter and histogram is one cache-line-aligned
/// cell, so metrics written by different threads (the server loop's and
/// the replication shipper's) never share a cache line; writers of one
/// metric share its cell. Readers load the cells under the registry
/// mutex. Registration is the cold path
/// (mutex + allocation); handles returned by counter()/gauge()/
/// histogram() are trivially copyable values that stay valid for the
/// registry's lifetime.
///
/// A registry constructed disabled returns *null handles*: every
/// record/add/set on them is a single predictable branch. That is the
/// `ObsConfig::disabled()` story — instrumentation stays wired, the
/// cost collapses to nothing.
///
/// Histograms are fixed log2 buckets over unsigned integer samples
/// (nanoseconds, counts): bucket 0 holds {0}, bucket i in [1, 38]
/// holds [2^(i-1), 2^i), bucket 39 is the overflow [2^38, inf). One
/// fetch_add per sample; no exact sum is maintained (the exporters
/// report a midpoint-approximated sum, flagged as such).
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace edfkit::obs {

inline constexpr std::size_t kHistogramBuckets = 40;

/// Bucket index for a sample: 0 for 0, else clamp(bit_width(v), 1, 39).
[[nodiscard]] constexpr std::size_t bucket_of(std::uint64_t v) noexcept {
  if (v == 0) return 0;
  const auto w = static_cast<std::size_t>(std::bit_width(v));
  return w < kHistogramBuckets ? w : kHistogramBuckets - 1;
}

/// Inclusive lower bound of bucket i (0 for buckets 0 and 1's start).
[[nodiscard]] constexpr std::uint64_t bucket_lo(std::size_t i) noexcept {
  return i <= 1 ? (i == 0 ? 0 : 1) : (std::uint64_t{1} << (i - 1));
}

/// Exclusive upper bound of bucket i; UINT64_MAX for the overflow
/// bucket.
[[nodiscard]] constexpr std::uint64_t bucket_hi(std::size_t i) noexcept {
  if (i == 0) return 1;
  if (i >= kHistogramBuckets - 1) return ~std::uint64_t{0};
  return std::uint64_t{1} << i;
}

namespace detail {

struct alignas(64) CounterCell {
  std::atomic<std::uint64_t> v{0};
};

struct GaugeCell {
  std::atomic<double> v{0.0};
};

struct alignas(64) HistogramCell {
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> b{};
};

/// Read-time recipe for a derived counter (see
/// MetricsRegistry::derive_counter): Σ histogram sample counts plus
/// Σ counter values minus Σ counter values, clamped at zero.
struct DerivedSpec {
  std::vector<const HistogramCell*> hists;
  std::vector<const CounterCell*> plus;
  std::vector<const CounterCell*> minus;
  std::vector<const HistogramCell*> hists_minus;
};

}  // namespace detail

/// Monotonic counter handle. Null handles (default-constructed or from
/// a disabled registry) make add() a no-op.
class Counter {
 public:
  Counter() = default;

  void add(std::uint64_t n = 1) const noexcept {
    if (cell_ == nullptr) return;
    cell_->v.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] bool attached() const noexcept { return cell_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Counter(detail::CounterCell* c) noexcept : cell_(c) {}
  detail::CounterCell* cell_ = nullptr;
};

/// Last-write-wins gauge handle (a single relaxed atomic double).
class Gauge {
 public:
  Gauge() = default;

  void set(double v) const noexcept {
    if (cell_ == nullptr) return;
    cell_->v.store(v, std::memory_order_relaxed);
  }
  [[nodiscard]] bool attached() const noexcept { return cell_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(detail::GaugeCell* c) noexcept : cell_(c) {}
  detail::GaugeCell* cell_ = nullptr;
};

/// Log2-bucket histogram handle: one relaxed fetch_add per sample.
class Histogram {
 public:
  Histogram() = default;

  void record(std::uint64_t v) const noexcept {
    if (cell_ == nullptr) return;
    cell_->b[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
  }
  [[nodiscard]] bool attached() const noexcept { return cell_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Histogram(detail::HistogramCell* c) noexcept : cell_(c) {}
  detail::HistogramCell* cell_ = nullptr;
};

/// Histogram state at one point in time. Because writers are relaxed
/// and never quiesced, a snapshot taken concurrently with writes is a
/// consistent-enough lower bound per bucket (each bucket value was the
/// bucket's true count at some moment).
struct HistogramSnapshot {
  std::array<std::uint64_t, kHistogramBuckets> buckets{};
  std::uint64_t count = 0;
  /// Midpoint-approximated sum of samples (exact for bucket 0).
  double approx_sum = 0.0;
};

/// Named-metric registry. Thread-safe: registration and reads take the
/// internal mutex; recording through handles is lock-free.
class MetricsRegistry {
 public:
  explicit MetricsRegistry(bool enabled = true) noexcept
      : enabled_(enabled) {}
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Register (or look up) a metric and return its handle. Disabled
  /// registries return null handles and allocate nothing.
  [[nodiscard]] Counter counter(const std::string& name);
  [[nodiscard]] Gauge gauge(const std::string& name);
  [[nodiscard]] Histogram histogram(const std::string& name);

  /// Register a *derived* counter: its value is computed at read time
  /// as Σ sample counts of `hist_counts` + Σ `plus` − Σ `minus`
  /// − Σ sample counts of `hist_minus` (saturating at zero while
  /// in-flight writers make the difference transiently stale). The
  /// referenced metrics are created if absent. Derived counters cost
  /// nothing on the write path — they exist so a hot path never pays
  /// an RMW for a value that is already implied by the samples it must
  /// record anyway — and the exporters present them exactly like
  /// ordinary counters. A name already registered as a real counter
  /// keeps the real cell.
  void derive_counter(const std::string& name,
                      const std::vector<std::string>& hist_counts,
                      const std::vector<std::string>& plus = {},
                      const std::vector<std::string>& minus = {},
                      const std::vector<std::string>& hist_minus = {});

  /// Aggregated reads; absent names read as zero/empty.
  [[nodiscard]] std::uint64_t counter_value(const std::string& name) const;
  [[nodiscard]] double gauge_value(const std::string& name) const;
  [[nodiscard]] HistogramSnapshot histogram_snapshot(
      const std::string& name) const;
  [[nodiscard]] std::vector<std::string> names() const;

  /// Prometheus text exposition (metrics prefixed `edfkit_`; histogram
  /// `le` labels are the inclusive integer upper bounds 2^k - 1).
  [[nodiscard]] std::string to_prometheus() const;
  /// JSON object {"counters": .., "gauges": .., "histograms": ..}.
  [[nodiscard]] std::string to_json() const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<detail::CounterCell>> counters_;
  std::map<std::string, std::unique_ptr<detail::GaugeCell>> gauges_;
  std::map<std::string, std::unique_ptr<detail::HistogramCell>> histograms_;
  std::map<std::string, detail::DerivedSpec> derived_;
};

}  // namespace edfkit::obs
