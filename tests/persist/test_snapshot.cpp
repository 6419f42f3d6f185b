/// \file test_snapshot.cpp
/// Durable admission state, snapshot half: save()/load() must restore a
/// store that makes *bit-identical* decisions to the original. The
/// centerpiece is a differential fuzz (>= 500 churn ops at U -> 1 with
/// group arrivals and removals) that repeatedly round-trips one
/// controller through disk while a never-persisted twin steps the same
/// trace — every decision and every published header field must match.
/// EDFKIT_FUZZ_MULT scales the depth (the nightly long-fuzz workflow
/// runs 20x).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "admission/replay.hpp"
#include "admission/snapshot.hpp"
#include "analysis/multi/global_tests.hpp"
#include "helpers.hpp"
#include "persist/format.hpp"

namespace edfkit {
namespace {

using testing::tk;

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "edfkit_" + name + "_" +
         std::to_string(::getpid());
}

AdmissionOptions fuzz_options() {
  AdmissionOptions opts;
  opts.skip_exact = true;  // rung <= 2: pure incremental-store decisions
  return opts;
}

std::vector<TraceEvent> fuzz_trace(std::uint64_t seed, std::size_t events) {
  ChurnConfig churn;
  churn.warmup_arrivals = 40;
  churn.events = events;
  churn.pool_utilization = 0.99;  // ride the admission boundary
  churn.family = ChurnConfig::Family::Fixed;
  churn.fixed_tasks = 40;
  churn.group_probability = 0.35;
  churn.group_size = 5;
  Rng rng(seed);
  return generate_churn_trace(rng, churn);
}

void expect_headers_equal(const StoreHeader& a, const StoreHeader& b,
                          const char* what) {
  // Epochs count publications per process and legitimately differ.
  EXPECT_EQ(a.residents, b.residents) << what;
  EXPECT_EQ(a.constrained, b.constrained) << what;
  EXPECT_EQ(a.live_checkpoints, b.live_checkpoints) << what;
  EXPECT_EQ(a.dead_checkpoints, b.dead_checkpoints) << what;
  EXPECT_EQ(a.segments, b.segments) << what;
  EXPECT_EQ(a.utilization, b.utilization) << what;
  EXPECT_EQ(a.cert_ratio, b.cert_ratio) << what;
}

/// Step one trace event against a controller, tracking key -> ids.
struct Stepper {
  AdmissionController* ctl;
  std::vector<std::pair<std::uint64_t, std::vector<TaskId>>> live;

  bool step(const TraceEvent& ev) {
    if (ev.op == TraceOp::Depart) {
      for (std::size_t i = 0; i < live.size(); ++i) {
        if (live[i].first != ev.key) continue;
        (void)ctl->remove_group(live[i].second);
        live[i] = live.back();
        live.pop_back();
        break;
      }
      return true;
    }
    if (ev.op == TraceOp::Crash) return true;
    if (ev.op == TraceOp::ArriveGroup) {
      GroupDecision d = ctl->admit_group(ev.group);
      if (d.admitted) live.emplace_back(ev.key, std::move(d.ids));
      return d.admitted;
    }
    const AdmissionDecision d = ctl->try_admit(ev.task);
    if (d.admitted) live.emplace_back(ev.key, std::vector<TaskId>{d.id});
    return d.admitted;
  }
};

TEST(Snapshot, EmptyControllerRoundTrips) {
  const std::string path = temp_path("empty");
  AdmissionController a(fuzz_options());
  save_snapshot(a, path, 0);
  AdmissionController b;  // different default options get overwritten
  const SnapshotMeta meta = load_snapshot(b, path);
  EXPECT_EQ(meta.kind, SnapshotKind::Controller);
  EXPECT_EQ(meta.journal_lsn, 0u);
  EXPECT_EQ(b.size(), 0u);
  EXPECT_TRUE(b.options().skip_exact);
  // Both decide the same arrival the same way.
  const Task t = tk(1, 4, 8);
  EXPECT_EQ(a.try_admit(t).admitted, b.try_admit(t).admitted);
  EXPECT_TRUE(b.verify_consistency());
  std::remove(path.c_str());
}

TEST(Snapshot, RoundTripRestoresStateBitExactly) {
  const std::string path = temp_path("roundtrip");
  AdmissionController live(fuzz_options());
  const std::vector<TraceEvent> trace = fuzz_trace(11, 400);
  Stepper s{&live, {}};
  for (const TraceEvent& ev : trace) (void)s.step(ev);
  ASSERT_GT(live.size(), 0u);

  save_snapshot(live, path, 123);
  AdmissionController loaded;
  const SnapshotMeta meta = load_snapshot(loaded, path);
  EXPECT_EQ(meta.journal_lsn, 123u);

  // Aggregates, options, stats, and per-id refinement levels all match.
  expect_headers_equal(live.demand_header(), loaded.demand_header(),
                       "after load");
  EXPECT_EQ(live.stats().to_string(), loaded.stats().to_string());
  EXPECT_EQ(live.options().epsilon, loaded.options().epsilon);
  const TaskSet a = live.snapshot();
  const TaskSet b = loaded.snapshot();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i] == b[i]) << "row " << i;
  }
  for (const auto& [key, ids] : s.live) {
    for (const TaskId id : ids) {
      ASSERT_NE(live.find(id), nullptr);
      ASSERT_NE(loaded.find(id), nullptr);
      EXPECT_TRUE(*live.find(id) == *loaded.find(id)) << "id " << id;
    }
  }
  // The loaded store's incremental aggregates equal a from-scratch
  // rebuild of its own rows — the strongest internal-consistency check.
  EXPECT_TRUE(loaded.verify_consistency());
  std::remove(path.c_str());
}

/// The acceptance fuzz: >= 500 churn ops at U -> 1 (groups + removals);
/// one controller round-trips through disk every ~90 events, the twin
/// never touches disk. Bit-identical decisions and headers throughout.
TEST(Snapshot, DifferentialFuzzRestoredVsNeverPersistedTwin) {
  const std::uint64_t mult = testing::fuzz_multiplier();
  const std::string path = temp_path("fuzz");
  const std::size_t events = 600 * static_cast<std::size_t>(mult);
  for (std::uint64_t seed : {3u, 17u}) {
    const std::vector<TraceEvent> trace = fuzz_trace(seed, events);
    auto persisted = std::make_unique<AdmissionController>(fuzz_options());
    AdmissionController twin(fuzz_options());
    Stepper sp{persisted.get(), {}};
    Stepper st{&twin, {}};
    std::size_t round_trips = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const bool dp = sp.step(trace[i]);
      const bool dt = st.step(trace[i]);
      if (dp != dt) {
        std::ostringstream repro;
        repro << "snapshot differential fuzz divergence\nseed=" << seed
              << " event=" << i << " persisted=" << dp << " twin=" << dt
              << "\n";
        testing::write_fuzz_artifact("snapshot_fuzz_divergence.txt",
                                     repro.str());
      }
      ASSERT_EQ(dp, dt) << "seed " << seed << " event " << i;
      expect_headers_equal(persisted->demand_header(), twin.demand_header(),
                           "mid-fuzz");
      if ((i + 1) % 89 == 0) {
        // Round-trip the persisted controller through disk and carry
        // on with the *loaded* store.
        save_snapshot(*persisted, path, 0);
        auto loaded = std::make_unique<AdmissionController>();
        (void)load_snapshot(*loaded, path);
        persisted = std::move(loaded);
        sp.ctl = persisted.get();
        ++round_trips;
      }
    }
    EXPECT_GT(round_trips, 4u) << "the fuzz must actually round-trip";
    EXPECT_GT(persisted->stats().rejected, 0u)
        << "U -> 1 churn must exercise rejects";
    EXPECT_TRUE(persisted->verify_consistency());
    EXPECT_TRUE(twin.verify_consistency());
    EXPECT_EQ(persisted->stats().to_string(), twin.stats().to_string());
  }
  std::remove(path.c_str());
}

/// Global admission mode (format v2's platform field): a controller
/// admitting against m processors must come back from disk *in* global
/// mode — same platform, same aggregates — and keep deciding
/// bit-identically to a never-persisted twin.
TEST(Snapshot, GlobalControllerRoundTripKeepsPlatformAndDecisions) {
  const std::string path = temp_path("global");
  AdmissionOptions opts = fuzz_options();
  opts.platform = Platform{2};
  AdmissionController live(opts);
  AdmissionController twin(opts);
  // Pool ~1.9 utilization: saturates the 2-processor platform, so the
  // trace exercises both global-ladder accepts past U = 1 and rejects.
  ChurnConfig churn;
  churn.warmup_arrivals = 40;
  churn.events = 300;
  churn.pool_utilization = 1.9;
  churn.family = ChurnConfig::Family::Fixed;
  churn.fixed_tasks = 40;
  churn.group_probability = 0.35;
  churn.group_size = 5;
  Rng rng(29);
  const std::vector<TraceEvent> trace = generate_churn_trace(rng, churn);
  Stepper sl{&live, {}};
  Stepper st{&twin, {}};
  const std::size_t half = trace.size() / 2;
  for (std::size_t i = 0; i < half; ++i) {
    ASSERT_EQ(sl.step(trace[i]), st.step(trace[i])) << "event " << i;
  }
  ASSERT_GT(live.size(), 0u);

  // Depart the max-density resident on both stores right before the
  // save: the live store's GFB density max is then stale, and the
  // aggregate is not serialized — the loaded store must re-derive it
  // from its rows and still decide exactly as the twin.
  std::size_t max_key = 0;
  Int128 max_hi = -1;
  for (std::size_t k = 0; k < sl.live.size(); ++k) {
    for (const TaskId id : sl.live[k].second) {
      const Task* t = live.find(id);
      ASSERT_NE(t, nullptr);
      if (!multi::gfb_eligible(*t)) continue;
      const Int128 hi = multi::density_pair(*t).hi;
      if (hi > max_hi) {
        max_hi = hi;
        max_key = k;
      }
    }
  }
  ASSERT_GE(max_hi, 0);
  TraceEvent depart;
  depart.op = TraceOp::Depart;
  depart.key = sl.live[max_key].first;
  ASSERT_EQ(sl.step(depart), st.step(depart));

  save_snapshot(live, path, 5);
  AdmissionController loaded;  // uniprocessor defaults, overwritten by load
  (void)load_snapshot(loaded, path);
  EXPECT_EQ(loaded.options().platform.m, 2u)
      << "platform must survive the round trip";
  expect_headers_equal(live.demand_header(), loaded.demand_header(),
                       "after global-mode load");

  // Second half of the trace: the loaded store vs the never-persisted
  // twin, decision for decision. (Depart keys map through each
  // stepper's own id table, so the loaded controller reuses live's.)
  sl.ctl = &loaded;
  double max_utilization = 0.0;
  for (std::size_t i = half; i < trace.size(); ++i) {
    ASSERT_EQ(sl.step(trace[i]), st.step(trace[i]))
        << "post-load event " << i;
    expect_headers_equal(loaded.demand_header(), twin.demand_header(),
                         "post-load");
    max_utilization =
        std::max(max_utilization, loaded.demand_header().utilization);
  }
  // The restored controller must have admitted past uniprocessor
  // capacity — the evidence it really came back in global mode — and a
  // 1.9-utilization pool on m = 2 must also see rejects at the boundary.
  EXPECT_GT(max_utilization, 1.0);
  EXPECT_GT(loaded.stats().rejected, 0u);
  EXPECT_TRUE(loaded.verify_consistency());
  EXPECT_TRUE(twin.verify_consistency());
  std::remove(path.c_str());
}

TEST(Snapshot, CrashOpsResumeTransparently) {
  // TraceOp::Crash makes the persistence replay drop state and recover
  // in place; the decision stream must equal a crash-free replay of the
  // same trace.
  const std::string snap = temp_path("crash.snap");
  const std::string wal = temp_path("crash.wal");
  std::remove(snap.c_str());
  std::remove(wal.c_str());
  ChurnConfig churn;
  churn.warmup_arrivals = 30;
  churn.events = 500;
  churn.pool_utilization = 0.99;
  churn.family = ChurnConfig::Family::Fixed;
  churn.fixed_tasks = 30;
  churn.group_probability = 0.3;
  churn.group_size = 4;
  churn.crash_probability = 0.05;
  Rng rng(21);
  const std::vector<TraceEvent> trace = generate_churn_trace(rng, churn);

  AdmissionController durable(fuzz_options());
  ReplayPersistence persistence;
  persistence.snapshot_path = snap;
  persistence.journal_path = wal;
  persistence.snapshot_every = 32;
  const ReplayStats a = replay_trace(trace, durable, persistence);

  AdmissionController plain(fuzz_options());
  const ReplayStats b = replay_trace(trace, plain);

  EXPECT_GT(a.crashes, 0u);  // the resume path actually ran
  EXPECT_GT(a.snapshots, 0u);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.by_rung, b.by_rung);
  expect_headers_equal(durable.demand_header(), plain.demand_header(),
                       "after crash/resume replay");
  EXPECT_TRUE(durable.verify_consistency());

  // Journal-only durability (no snapshot file ever): every crash is a
  // cold full-journal replay — recover() must reset the live state
  // first, not double-apply the records on top of it.
  std::remove(snap.c_str());
  std::remove(wal.c_str());
  AdmissionController journal_only(fuzz_options());
  ReplayPersistence wal_only;
  wal_only.journal_path = wal;
  const ReplayStats c = replay_trace(trace, journal_only, wal_only);
  EXPECT_GT(c.crashes, 0u);
  EXPECT_EQ(c.admitted, b.admitted);
  EXPECT_EQ(c.rejected, b.rejected);
  EXPECT_EQ(c.by_rung, b.by_rung);
  expect_headers_equal(journal_only.demand_header(), plain.demand_header(),
                       "after journal-only crash/resume replay");
  EXPECT_TRUE(journal_only.verify_consistency());
  std::remove(snap.c_str());
  std::remove(wal.c_str());
}

TEST(Snapshot, KindMismatchAndGarbageAreTypedErrors) {
  const std::string path = temp_path("kind");
  AdmissionController ctl;
  // The meta section's kind byte: an engine image (kind 2, written by
  // earlier versions) and an unknown kind are both BadValue.
  for (const std::uint64_t kind : {2u, 7u}) {
    AdmissionController out;
    try {
      (void)load_snapshot_bytes(
          out, testing::patch_section(encode_snapshot(ctl, 0),
                                      testing::kMetaSection, 0, kind, 1));
      ADD_FAILURE() << "kind " << kind << " loaded";
    } catch (const persist::PersistError& e) {
      EXPECT_EQ(e.code(), persist::PersistErrc::BadValue) << kind;
    }
  }
  // Garbage bytes: BadMagic, not a silent empty store.
  {
    std::vector<std::uint8_t> junk(32, static_cast<std::uint8_t>('n'));
    persist::write_file_atomic(path, junk);
    AdmissionController out;
    try {
      (void)load_snapshot(out, path);
      FAIL() << "garbage accepted";
    } catch (const persist::PersistError& e) {
      EXPECT_EQ(e.code(), persist::PersistErrc::BadMagic);
    }
  }
  // A count past the image fails as a short image before anything is
  // sized by it. In the empty store's controller payload the demand
  // section starts @116; its counts: rows @151, id index @159,
  // segments @175 (one), then the segment's steps @295 and borders
  // @303.
  const std::uint64_t huge = std::uint64_t{1} << 62;
  {
    const std::vector<std::uint8_t> image = encode_snapshot(ctl, 0);
    ASSERT_EQ(testing::patch_section(image, testing::kControllerSection, 175,
                                     1, 8),
              image);
    for (const std::size_t offset : {151, 159, 175, 295, 303}) {
      AdmissionController out;
      try {
        (void)load_snapshot_bytes(
            out, testing::patch_section(image, testing::kControllerSection,
                                        offset, huge, 8));
        ADD_FAILURE() << "count @" << offset << " accepted";
      } catch (const persist::PersistError& e) {
        EXPECT_EQ(e.code(), persist::PersistErrc::Truncated) << offset;
      }
    }
  }
  // A section length that wraps the end-of-image check is Truncated.
  {
    std::vector<std::uint8_t> image = encode_snapshot(ctl, 0);
    const std::uint64_t wraps = ~std::uint64_t{0};
    std::memcpy(image.data() + 16 + 4, &wraps, 8);  // first section's len
    AdmissionController out;
    try {
      (void)load_snapshot_bytes(out, image);
      ADD_FAILURE() << "wrapping section length accepted";
    } catch (const persist::PersistError& e) {
      EXPECT_EQ(e.code(), persist::PersistErrc::Truncated);
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace edfkit
