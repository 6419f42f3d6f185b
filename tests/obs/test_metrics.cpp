/// \file test_metrics.cpp
/// MetricsRegistry: log2 bucket arithmetic, null-handle no-ops,
/// aggregation across handles, exporter formats, and a concurrent
/// writers-vs-reader stress with exact final totals (run under TSan in
/// CI — every hot-path access is a relaxed atomic by contract).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace edfkit::obs {
namespace {

TEST(ObsBuckets, BucketOfBoundaries) {
  EXPECT_EQ(bucket_of(0), 0u);
  EXPECT_EQ(bucket_of(1), 1u);
  EXPECT_EQ(bucket_of(2), 2u);
  EXPECT_EQ(bucket_of(3), 2u);
  EXPECT_EQ(bucket_of(4), 3u);
  // Powers of two open a new bucket; their predecessors close one.
  for (std::size_t k = 1; k < 38; ++k) {
    const std::uint64_t p = std::uint64_t{1} << k;
    EXPECT_EQ(bucket_of(p), k + 1) << "v=2^" << k;
    EXPECT_EQ(bucket_of(p - 1), k) << "v=2^" << k << "-1";
  }
  // Everything >= 2^38 lands in the overflow bucket.
  EXPECT_EQ(bucket_of(std::uint64_t{1} << 38), kHistogramBuckets - 1);
  EXPECT_EQ(bucket_of(~std::uint64_t{0}), kHistogramBuckets - 1);
}

TEST(ObsBuckets, LoHiRoundTrip) {
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    EXPECT_EQ(bucket_of(bucket_lo(i)), i) << "bucket " << i;
    if (i + 1 < kHistogramBuckets) {
      EXPECT_EQ(bucket_of(bucket_hi(i) - 1), i) << "bucket " << i;
      EXPECT_EQ(bucket_of(bucket_hi(i)), i + 1) << "bucket " << i;
    }
  }
}

TEST(ObsRegistry, CountersAggregateAcrossHandles) {
  MetricsRegistry reg;
  const Counter a = reg.counter("x");
  const Counter b = reg.counter("x");  // same cells
  a.add();
  b.add(4);
  EXPECT_EQ(reg.counter_value("x"), 5u);
  EXPECT_EQ(reg.counter_value("absent"), 0u);
}

TEST(ObsRegistry, GaugeLastWriteWins) {
  MetricsRegistry reg;
  const Gauge g = reg.gauge("load");
  g.set(0.25);
  g.set(0.75);
  EXPECT_DOUBLE_EQ(reg.gauge_value("load"), 0.75);
}

TEST(ObsRegistry, HistogramSnapshotCountsPerBucket) {
  MetricsRegistry reg;
  const Histogram h = reg.histogram("ns");
  h.record(0);
  h.record(1);
  h.record(1);
  h.record(1000);  // bit_width 10 -> bucket 10
  const HistogramSnapshot s = reg.histogram_snapshot("ns");
  EXPECT_EQ(s.count, 4u);
  EXPECT_EQ(s.buckets[0], 1u);
  EXPECT_EQ(s.buckets[1], 2u);
  EXPECT_EQ(s.buckets[bucket_of(1000)], 1u);
  EXPECT_GT(s.approx_sum, 0.0);
}

TEST(ObsRegistry, DisabledRegistryHandsOutNullHandles) {
  MetricsRegistry reg(false);
  EXPECT_FALSE(reg.enabled());
  const Counter c = reg.counter("x");
  const Gauge g = reg.gauge("y");
  const Histogram h = reg.histogram("z");
  EXPECT_FALSE(c.attached());
  EXPECT_FALSE(g.attached());
  EXPECT_FALSE(h.attached());
  c.add(10);
  g.set(1.0);
  h.record(5);
  EXPECT_EQ(reg.counter_value("x"), 0u);
  EXPECT_TRUE(reg.names().empty());
}

TEST(ObsRegistry, DefaultConstructedHandlesAreNoOps) {
  const Counter c;
  const Histogram h;
  const Gauge g;
  c.add();
  h.record(1);
  g.set(1.0);  // must not crash
  EXPECT_FALSE(c.attached());
}

TEST(ObsRegistry, PrometheusExposition) {
  MetricsRegistry reg;
  reg.counter("admits_total").add(3);
  reg.gauge("load").set(0.5);
  const Histogram h = reg.histogram("decision_ns");
  h.record(1);
  h.record(3);
  const std::string text = reg.to_prometheus();
  EXPECT_NE(text.find("# TYPE edfkit_admits_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("edfkit_admits_total 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE edfkit_load gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE edfkit_decision_ns histogram"),
            std::string::npos);
  // Cumulative buckets: le="1" sees one sample, le="3" both.
  EXPECT_NE(text.find("edfkit_decision_ns_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("edfkit_decision_ns_bucket{le=\"3\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("edfkit_decision_ns_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("edfkit_decision_ns_count 2"), std::string::npos);
}

TEST(ObsRegistry, JsonExport) {
  MetricsRegistry reg;
  reg.counter("c").add(7);
  reg.histogram("h").record(9);
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"c\":7"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"h\":{\"count\":1"), std::string::npos);
  // Only occupied buckets are emitted, with their [lo, hi) bounds.
  EXPECT_NE(json.find("{\"lo\":8,\"hi\":16,\"count\":1}"),
            std::string::npos);
}

/// Torn-read invariant under concurrency: N writer threads hammer one
/// counter and one histogram while a reader continuously aggregates;
/// every intermediate read is <= the true total, and the final read is
/// exact. The writers all contend on each metric's one cell.
TEST(ObsRegistry, ConcurrentWritersExactTotals) {
  MetricsRegistry reg;
  const Counter c = reg.counter("stress_total");
  const Histogram h = reg.histogram("stress_ns");
  constexpr int kThreads = 16;
  constexpr std::uint64_t kPerThread = 20000;

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::uint64_t seen = reg.counter_value("stress_total");
      EXPECT_LE(seen, kThreads * kPerThread);
      const HistogramSnapshot s = reg.histogram_snapshot("stress_ns");
      EXPECT_LE(s.count, kThreads * kPerThread);
      (void)reg.to_prometheus();
    }
  });

  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        c.add();
        h.record(i + static_cast<std::uint64_t>(t));
      }
    });
  }
  for (std::thread& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  EXPECT_EQ(reg.counter_value("stress_total"), kThreads * kPerThread);
  const HistogramSnapshot s = reg.histogram_snapshot("stress_ns");
  EXPECT_EQ(s.count, kThreads * kPerThread);
  std::uint64_t sum = 0;
  for (const std::uint64_t b : s.buckets) sum += b;
  EXPECT_EQ(sum, s.count);  // every sample landed in exactly one bucket
}

/// Concurrent registration: many threads registering overlapping names
/// must converge on one cell set per name.
TEST(ObsRegistry, ConcurrentRegistration) {
  MetricsRegistry reg;
  std::vector<std::thread> threads;
  threads.reserve(8);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 100; ++i) {
        reg.counter("shared_" + std::to_string(i % 10)).add();
      }
    });
  }
  for (std::thread& th : threads) th.join();
  std::uint64_t total = 0;
  for (int i = 0; i < 10; ++i) {
    total += reg.counter_value("shared_" + std::to_string(i));
  }
  EXPECT_EQ(total, 800u);
}

}  // namespace
}  // namespace edfkit::obs
