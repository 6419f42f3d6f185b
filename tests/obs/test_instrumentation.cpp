/// \file test_instrumentation.cpp
/// End-to-end instrumentation invariants, replay-driven: the ladder
/// rung counters must account for every decision, captured decision
/// traces must reconcile bucket-for-bucket with the registry's rung
/// histograms, journal counters must match journal histograms, and the
/// stats JSON surfaces must carry the new fields.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "admission/controller.hpp"
#include "admission/replay.hpp"
#include "helpers.hpp"
#include "obs/obs.hpp"

namespace edfkit {
namespace {

std::vector<TraceEvent> churn(std::uint64_t seed, std::size_t events) {
  ChurnConfig cfg;
  cfg.warmup_arrivals = 30;
  cfg.events = events;
  cfg.pool_utilization = 0.99;  // ride the admission boundary
  cfg.family = ChurnConfig::Family::Fixed;
  cfg.fixed_tasks = 30;
  cfg.group_probability = 0.3;
  cfg.group_size = 4;
  Rng rng(seed);
  return generate_churn_trace(rng, cfg);
}

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "edfkit_obs_" + name + "_" +
         std::to_string(::getpid());
}

/// Every decision settles on exactly one rung: the per-rung settled
/// counters must partition the decision count, and agree with the
/// controller's own by_rung stats and the replay's bookkeeping.
TEST(ObsInstrumentation, RungCountersSumToTotalDecisions) {
  obs::Obs obs;
  AdmissionController ctl;
  ctl.attach_obs(&obs);
  const std::vector<TraceEvent> trace = churn(11, 800);
  const ReplayStats rs = replay_trace(trace, ctl, &obs);

  const obs::MetricsRegistry& reg = obs.registry();
  std::uint64_t settled = 0;
  std::uint64_t decisions = 0;
  for (std::size_t r = 0; r < kAdmissionRungs; ++r) {
    const std::string rn = std::to_string(r);
    const std::uint64_t s =
        reg.counter_value("admission_rung" + rn + "_settled_total");
    EXPECT_EQ(s, rs.by_rung[r]) << "rung " << r;
    EXPECT_EQ(s, ctl.stats().by_rung[r]) << "rung " << r;
    // A rung can only settle what it attempted, and every decision
    // attempts rung 0.
    EXPECT_LE(s, reg.counter_value("admission_rung" + rn +
                                   "_attempts_total"));
    settled += s;
    decisions += rs.by_rung[r];
  }
  EXPECT_GT(decisions, 0u);
  EXPECT_EQ(settled, decisions);
  EXPECT_EQ(reg.counter_value("admission_rung0_attempts_total"),
            decisions);
  // Admits + rejects also partition the decisions.
  EXPECT_EQ(reg.counter_value("admission_admits_total") +
                reg.counter_value("admission_rejects_total"),
            decisions);
  // One decision_ns sample per decision.
  EXPECT_EQ(reg.histogram_snapshot("admission_decision_ns").count,
            decisions);
  // The replay driver folded its own counters in.
  EXPECT_EQ(reg.counter_value("replay_events_total"), trace.size());
  EXPECT_EQ(reg.counter_value("replay_arrivals_total"), rs.arrivals);
  EXPECT_EQ(reg.counter_value("replay_departures_total"), rs.departures);
}

/// The acceptance-criteria reconciliation: rebuild the per-rung latency
/// histograms from the captured decision traces alone and compare
/// bucket-for-bucket with what the registry aggregated. Capacity
/// exceeds the decision count, so nothing wrapped and the two views
/// describe the same population.
TEST(ObsInstrumentation, TracesReconcileWithRungHistograms) {
  obs::ObsConfig cfg;
  cfg.trace_capacity = 1 << 14;
  obs::Obs obs(cfg);
  AdmissionController ctl;
  ctl.attach_obs(&obs);
  const std::vector<TraceEvent> trace = churn(23, 600);
  const ReplayStats rs = replay_trace(trace, ctl, &obs);
  std::uint64_t decisions = 0;
  for (const std::uint64_t n : rs.by_rung) decisions += n;

  std::vector<obs::DecisionTrace> records;
  ASSERT_EQ(obs.recorder().capture_all(records), decisions);

  // Rebuild: a rung's histogram samples are exactly the rung_ns of the
  // records that entered that rung (the probe records one sample per
  // entered rung per decision).
  std::array<std::array<std::uint64_t, obs::kHistogramBuckets>,
             kAdmissionRungs>
      rebuilt{};
  std::array<std::uint64_t, obs::kHistogramBuckets> rebuilt_total{};
  for (const obs::DecisionTrace& t : records) {
    for (std::size_t r = 0; r < kAdmissionRungs; ++r) {
      if (((t.rungs_entered >> r) & 1u) != 0) {
        ++rebuilt[r][obs::bucket_of(t.rung_ns[r])];
      }
    }
    ++rebuilt_total[obs::bucket_of(t.total_ns)];
  }

  const obs::MetricsRegistry& reg = obs.registry();
  for (std::size_t r = 0; r < kAdmissionRungs; ++r) {
    const obs::HistogramSnapshot s = reg.histogram_snapshot(
        "admission_rung" + std::to_string(r) + "_ns");
    EXPECT_EQ(s.buckets, rebuilt[r]) << "rung " << r;
  }
  EXPECT_EQ(reg.histogram_snapshot("admission_decision_ns").buckets,
            rebuilt_total);

  // Per-record sanity: rung times of entered rungs sum to the total
  // (the probe's clock never leaves a gap), and the settled rung was
  // entered.
  for (const obs::DecisionTrace& t : records) {
    std::uint64_t sum = 0;
    for (std::size_t r = 0; r < kAdmissionRungs; ++r) sum += t.rung_ns[r];
    EXPECT_EQ(sum, t.total_ns);
    EXPECT_NE((t.rungs_entered >> t.rung) & 1u, 0u);
  }
}

TEST(ObsInstrumentation, StatsToJsonCarriesTheNewFields) {
  AdmissionController ctl;
  (void)ctl.try_admit(testing::tk(1, 10, 10));
  const std::string aj = ctl.stats().to_json();
  EXPECT_NE(aj.find("\"arrivals\":1"), std::string::npos);
  EXPECT_NE(aj.find("\"admitted\":1"), std::string::npos);
  EXPECT_NE(aj.find("\"by_rung\""), std::string::npos);
  EXPECT_NE(aj.find("\"total_effort\""), std::string::npos);
}

/// Journal counters and histograms describe the same appends: one
/// append_ns sample per journal_appends_total, and the WAL sees one
/// append per non-crash trace event.
TEST(ObsInstrumentation, JournalAppendHistogramMatchesCounter) {
  obs::Obs obs;
  AdmissionController ctl;
  ctl.attach_obs(&obs);
  const std::string wal = temp_path("journal.wal");
  std::remove(wal.c_str());
  ReplayPersistence persistence;
  persistence.journal_path = wal;
  const std::vector<TraceEvent> trace = churn(47, 200);
  (void)replay_trace(trace, ctl, persistence, &obs);

  const obs::MetricsRegistry& reg = obs.registry();
  const std::uint64_t appends = reg.counter_value("journal_appends_total");
  EXPECT_GT(appends, 0u);
  EXPECT_EQ(reg.histogram_snapshot("journal_append_ns").count, appends);
  EXPECT_EQ(reg.histogram_snapshot("journal_fsync_ns").count,
            reg.counter_value("journal_fsyncs_total"));
  std::remove(wal.c_str());
}

/// ObsConfig::disabled() must leave consumers fully detached: no
/// metrics recorded, no traces captured, decisions unchanged.
TEST(ObsInstrumentation, DisabledObsRecordsNothing) {
  obs::Obs off(obs::ObsConfig::disabled());
  AdmissionController instrumented;
  instrumented.attach_obs(&off);
  AdmissionController bare;
  const std::vector<TraceEvent> trace = churn(59, 300);
  const ReplayStats a = replay_trace(trace, instrumented, &off);
  const ReplayStats b = replay_trace(trace, bare);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.by_rung, b.by_rung);
  EXPECT_TRUE(off.registry().names().empty());
  std::vector<obs::DecisionTrace> records;
  EXPECT_EQ(off.recorder().capture_all(records), 0u);
}

}  // namespace
}  // namespace edfkit
