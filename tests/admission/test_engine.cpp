#include "admission/engine.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <future>
#include <numeric>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "admission/snapshot.hpp"
#include "fault/fault.hpp"
#include "helpers.hpp"
#include "persist/journal.hpp"
#include "pin_traces.hpp"
#include "util/binio.hpp"

namespace edfkit {
namespace {

using testing::tk;

TEST(AdmissionEngine, RejectsZeroShards) {
  EngineOptions opts;
  opts.shards = 0;
  EXPECT_THROW(AdmissionEngine{opts}, std::invalid_argument);
}

TEST(AdmissionEngine, FirstFitFillsLowShardsFirst) {
  EngineOptions opts;
  opts.shards = 3;
  opts.workers = 1;
  opts.placement = PlacementPolicy::FirstFit;
  AdmissionEngine engine(opts);
  // Each shard holds exactly two of these (U = 0.5 each).
  for (int i = 0; i < 4; ++i) {
    const PlacementDecision d = engine.admit(tk(5, 10, 10));
    ASSERT_TRUE(d.admitted);
    EXPECT_EQ(d.id.shard, static_cast<std::uint32_t>(i / 2));
  }
  const EngineStats s = engine.stats();
  EXPECT_EQ(s.shard_resident[0], 2u);
  EXPECT_EQ(s.shard_resident[1], 2u);
  EXPECT_EQ(s.shard_resident[2], 0u);
}

TEST(AdmissionEngine, WorstFitBalances) {
  EngineOptions opts;
  opts.shards = 4;
  opts.workers = 1;
  opts.placement = PlacementPolicy::WorstFit;
  AdmissionEngine engine(opts);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(engine.admit(tk(1, 10, 10)).admitted);
  }
  const EngineStats s = engine.stats();
  for (std::size_t i = 0; i < engine.shards(); ++i) {
    EXPECT_EQ(s.shard_resident[i], 2u) << "shard " << i;
  }
}

TEST(AdmissionEngine, CapacityScalesWithShards) {
  // Four tasks of U = 0.6 cannot share fewer than 4 processors.
  for (const std::size_t shards : {std::size_t{2}, std::size_t{4}}) {
    EngineOptions opts;
    opts.shards = shards;
    opts.workers = 1;
    AdmissionEngine engine(opts);
    std::size_t admitted = 0;
    for (int i = 0; i < 4; ++i) {
      const PlacementDecision d = engine.admit(tk(6, 10, 10));
      admitted += d.admitted ? 1 : 0;
      if (!d.admitted) {
        EXPECT_EQ(d.shards_tried, shards);  // tried everywhere
      }
    }
    EXPECT_EQ(admitted, shards);
  }
}

TEST(AdmissionEngine, RemoveAndInvalidIds) {
  EngineOptions opts;
  opts.shards = 2;
  opts.workers = 1;
  AdmissionEngine engine(opts);
  const PlacementDecision d = engine.admit(tk(1, 5, 10));
  ASSERT_TRUE(d.admitted);
  EXPECT_TRUE(engine.remove(d.id));
  EXPECT_FALSE(engine.remove(d.id));  // gone
  EXPECT_FALSE(engine.remove(GlobalTaskId{}));
  EXPECT_FALSE(engine.remove(GlobalTaskId{99, 1}));  // bad shard
  EXPECT_EQ(engine.stats().resident, 0u);
}

TEST(AdmissionEngine, SubmitRunsOnWorkerPool) {
  EngineOptions opts;
  opts.shards = 2;
  opts.workers = 2;
  AdmissionEngine engine(opts);
  std::vector<std::future<PlacementDecision>> futs;
  for (int i = 0; i < 16; ++i) futs.push_back(engine.submit(tk(1, 20, 40)));
  std::size_t admitted = 0;
  for (auto& f : futs) admitted += f.get().admitted ? 1 : 0;
  EXPECT_EQ(admitted, 16u);
  EXPECT_EQ(engine.stats().resident, 16u);
}

TEST(AdmissionEngine, ConcurrentChurnKeepsEveryShardFeasible) {
  EngineOptions opts;
  opts.shards = 4;
  opts.workers = 2;
  opts.placement = PlacementPolicy::WorstFit;
  AdmissionEngine engine(opts);

  const auto client = [&](std::uint64_t seed) {
    Rng rng(seed);
    std::vector<GlobalTaskId> mine;
    for (int i = 0; i < 200; ++i) {
      if (!mine.empty() && rng.bernoulli(0.4)) {
        const std::size_t pick = static_cast<std::size_t>(
            rng.uniform_time(0, static_cast<Time>(mine.size()) - 1));
        engine.remove(mine[pick]);
        mine[pick] = mine.back();
        mine.pop_back();
      } else {
        const Time period = rng.uniform_time(10, 100);
        const Time deadline = rng.uniform_time(5, period);
        const Time wcet = rng.uniform_time(1, std::max<Time>(1, deadline / 4));
        const PlacementDecision d = engine.admit(tk(wcet, deadline, period));
        if (d.admitted) mine.push_back(d.id);
      }
    }
  };
  {
    std::vector<std::thread> clients;
    for (std::uint64_t s = 1; s <= 4; ++s) clients.emplace_back(client, s);
    for (std::thread& c : clients) c.join();
  }

  const EngineStats s = engine.stats();
  EXPECT_EQ(s.admission.arrivals, s.admission.admitted + s.admission.rejected);
  std::size_t resident = 0;
  for (std::size_t i = 0; i < engine.shards(); ++i) {
    resident += s.shard_resident[i];
    // The partitioned invariant: every shard's resident set is provably
    // EDF-feasible under an exact from-scratch test. (QPA: the resident
    // utilization can end up arbitrarily close to 1, where the plain
    // processor-demand test's bound explodes.)
    const FeasibilityResult r = engine.analyze_shard(i, TestKind::Qpa);
    EXPECT_TRUE(engine.shard_snapshot(i).empty() || r.feasible())
        << "shard " << i;
  }
  EXPECT_EQ(resident, s.resident);
}

// ---------------------------------------------------------------------
// Per-shard journaling and recovery (admission/snapshot.hpp).

/// One journal per shard in a fresh temporary directory, removed after.
class ShardJournals {
 public:
  explicit ShardJournals(std::size_t shards)
      : dir_(std::filesystem::temp_directory_path() /
             ("edfkit_engine_test_" + std::to_string(::getpid()) + "_" +
              std::to_string(next_id()))) {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    journals_.reserve(shards);
    for (std::size_t i = 0; i < shards; ++i) {
      paths_.push_back(path("shard" + std::to_string(i) + ".wal"));
      journals_.push_back(persist::Journal::create(paths_.back()));
      ptrs_.push_back(&journals_.back());
    }
  }
  ~ShardJournals() { std::filesystem::remove_all(dir_); }
  ShardJournals(const ShardJournals&) = delete;
  ShardJournals& operator=(const ShardJournals&) = delete;

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }
  [[nodiscard]] const std::vector<std::string>& paths() const {
    return paths_;
  }
  [[nodiscard]] std::span<persist::Journal* const> ptrs() const {
    return ptrs_;
  }
  [[nodiscard]] std::vector<std::uint64_t> lsns() const {
    std::vector<std::uint64_t> out;
    for (const persist::Journal& j : journals_) out.push_back(j.lsn());
    return out;
  }

 private:
  static int next_id() {
    static int n = 0;
    return n++;
  }

  std::filesystem::path dir_;
  std::vector<std::string> paths_;
  std::vector<persist::Journal> journals_;
  std::vector<persist::Journal*> ptrs_;
};

/// Fixed-family churn at pool utilization 0.99 with 4-task groups: 20
/// tasks per pool set fill three shards within the warmup, so most
/// later arrivals probe shards that reject them.
std::vector<TraceEvent> churn(std::uint64_t seed, std::size_t events) {
  Rng rng(seed);
  return generate_churn_trace(
      rng, testing::pin_churn(20, 0.99, 60, events, 0.25, 4));
}

/// A placed id and the task it was placed for.
struct Placed {
  GlobalTaskId id;
  Task task;
};

/// Every id `driver` still holds, paired with its task from `events`.
std::vector<Placed> placed_tasks(const std::vector<TraceEvent>& events,
                                 const testing::EnginePinDriver& driver) {
  std::unordered_map<std::uint64_t, const TraceEvent*> arrival;
  for (const TraceEvent& ev : events) {
    if (ev.op == TraceOp::Arrive || ev.op == TraceOp::ArriveGroup) {
      arrival.emplace(ev.key, &ev);
    }
  }
  std::vector<Placed> out;
  for (const auto& [key, ids] : driver.live) {
    const TraceEvent& ev = *arrival.at(key);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      out.push_back({ids[i], ev.op == TraceOp::Arrive ? ev.task : ev.group[i]});
    }
  }
  return out;
}

/// `recovered` holds the same shards as `original`, bit for bit.
void expect_same_engine(const AdmissionEngine& original,
                        const AdmissionEngine& recovered) {
  ASSERT_EQ(recovered.shards(), original.shards());
  for (std::size_t i = 0; i < original.shards(); ++i) {
    EXPECT_EQ(store_digest(recovered, i), store_digest(original, i))
        << "shard " << i;
  }
  EXPECT_EQ(recovered.stats_locked().to_json(),
            original.stats_locked().to_json());
}

/// Withdraw every placed id from `engine`: each must take exactly its
/// own task off its shard, and nothing may stay behind.
void expect_ids_withdraw_own_tasks(AdmissionEngine& engine,
                                   const std::vector<Placed>& placed) {
  for (const Placed& p : placed) {
    const TaskSet before = engine.shard_snapshot(p.id.shard);
    ASSERT_TRUE(engine.remove(p.id))
        << "shard " << p.id.shard << " id " << p.id.local;
    const TaskSet after = engine.shard_snapshot(p.id.shard);
    ASSERT_EQ(after.size() + 1, before.size());
    EXPECT_EQ(std::count(before.begin(), before.end(), p.task),
              std::count(after.begin(), after.end(), p.task) + 1)
        << "shard " << p.id.shard << " id " << p.id.local
        << " withdrew another task";
  }
  EXPECT_EQ(engine.stats_locked().resident, 0u);
}

/// Recover `original`'s journals twice — cold, and from `snapshot` plus
/// the journal suffixes — and check both recoveries against it.
/// Returns the snapshot recovery's result.
RecoveryResult expect_recovers_bit_identically(
    const AdmissionEngine& original, const EngineOptions& opts,
    const ShardJournals& journals, const std::string& snapshot,
    const std::vector<Placed>& placed) {
  // Journals attached before recovery must come back attached.
  ShardJournals reattached(opts.shards);
  AdmissionEngine cold(opts);
  cold.attach_journals(reattached.ptrs());
  const RecoveryResult rc = recover(cold, "", journals.paths());
  EXPECT_FALSE(rc.snapshot_loaded);
  EXPECT_EQ(rc.replayed, rc.journal_records);

  EngineOptions stale;  // the snapshot supplies every option
  stale.shards = 1;
  AdmissionEngine from_snapshot(stale);
  const RecoveryResult rs = recover(from_snapshot, snapshot, journals.paths());
  EXPECT_TRUE(rs.snapshot_loaded);
  EXPECT_EQ(rs.snapshot_lsn + rs.replayed, rs.journal_records);

  expect_same_engine(original, cold);
  expect_same_engine(original, from_snapshot);
  expect_ids_withdraw_own_tasks(cold, placed);
  expect_ids_withdraw_own_tasks(from_snapshot, placed);
  // Replay appended nothing; each withdrawal appended one record.
  const std::vector<std::uint64_t> lsns = reattached.lsns();
  EXPECT_EQ(std::accumulate(lsns.begin(), lsns.end(), std::uint64_t{0}),
            placed.size());
  return rs;
}

TEST(EngineRecovery, BitIdenticalUnderEveryPlacementPolicy) {
  std::uint64_t seed = 1;
  for (const PlacementPolicy policy :
       {PlacementPolicy::FirstFit, PlacementPolicy::WorstFit,
        PlacementPolicy::BestFit}) {
    for (const bool skip_exact : {true, false}) {
      SCOPED_TRACE(std::string(to_string(policy)) +
                   (skip_exact ? " skip_exact" : " exact"));
      EngineOptions opts;
      opts.shards = 3;
      opts.placement = policy;
      opts.admission.skip_exact = skip_exact;
      const std::vector<TraceEvent> events = churn(seed++, 240);
      ShardJournals journals(opts.shards);
      AdmissionEngine original(opts);
      original.attach_journals(journals.ptrs());
      testing::EnginePinDriver driver{original, {}, {}};
      const std::string snapshot = journals.path("engine.snap");
      for (std::size_t i = 0; i < events.size(); ++i) {
        if (i == events.size() / 2) save_snapshot(original, snapshot);
        driver.step(events[i]);
      }
      const std::vector<Placed> placed = placed_tasks(events, driver);
      ASSERT_FALSE(placed.empty());
      ASSERT_GT(original.stats_locked().admission.rejected, 0u);
      const RecoveryResult rs = expect_recovers_bit_identically(
          original, opts, journals, snapshot, placed);
      EXPECT_GT(rs.snapshot_lsn, 0u);
      EXPECT_GT(rs.replayed, 0u);
    }
  }
}

TEST(EngineRecovery, BitIdenticalUnderConcurrentWriters) {
  const std::size_t events = 120 * testing::fuzz_multiplier();
  std::uint64_t seed = 100;
  for (const PlacementPolicy policy :
       {PlacementPolicy::FirstFit, PlacementPolicy::WorstFit,
        PlacementPolicy::BestFit}) {
    SCOPED_TRACE(to_string(policy));
    EngineOptions opts;
    opts.shards = 3;
    opts.placement = policy;
    opts.admission.skip_exact = true;
    ShardJournals journals(opts.shards);
    AdmissionEngine original(opts);
    original.attach_journals(journals.ptrs());
    std::vector<std::vector<TraceEvent>> traces;
    std::vector<testing::EnginePinDriver> drivers;
    for (int w = 0; w < 3; ++w) {
      traces.push_back(churn(seed++, events));
      drivers.push_back({original, {}, {}});
    }
    const std::string snapshot = journals.path("engine.snap");
    std::atomic<std::size_t> stepped{0};
    {
      std::vector<std::thread> writers;
      for (std::size_t w = 0; w < traces.size(); ++w) {
        writers.emplace_back([&, w] {
          for (const TraceEvent& ev : traces[w]) {
            drivers[w].step(ev);
            stepped.fetch_add(1, std::memory_order_relaxed);
          }
        });
      }
      // The snapshot is taken while the writers run.
      while (stepped.load(std::memory_order_relaxed) < events * 3 / 2) {
        std::this_thread::yield();
      }
      save_snapshot(original, snapshot);
      for (std::thread& w : writers) w.join();
    }
    std::vector<Placed> placed;
    for (std::size_t w = 0; w < traces.size(); ++w) {
      const std::vector<Placed> mine = placed_tasks(traces[w], drivers[w]);
      placed.insert(placed.end(), mine.begin(), mine.end());
    }
    (void)expect_recovers_bit_identically(original, opts, journals, snapshot,
                                          placed);
  }
}

TEST(EngineRecovery, FailedAppendLeavesTheShardUnchanged) {
  EngineOptions opts;
  opts.shards = 3;
  ShardJournals journals(opts.shards);
  AdmissionEngine engine(opts);
  engine.attach_journals(journals.ptrs());
  ASSERT_TRUE(engine.admit(tk(1, 10, 10)).admitted);
  const EngineStats before = engine.stats_locked();
  const std::vector<std::uint64_t> lsns = journals.lsns();

  fault::point("journal.append.write").arm(fault::Mode::Once);
  EXPECT_THROW((void)engine.admit(tk(2, 10, 10)), persist::PersistError);
  fault::disarm_all();
  const EngineStats after = engine.stats_locked();
  EXPECT_EQ(after.resident, before.resident);
  EXPECT_EQ(after.to_json(), before.to_json());
  EXPECT_EQ(journals.lsns(), lsns);

  // The failure was retryable: the offer lands on retry, and the
  // journals still recover the engine bit-identically.
  ASSERT_TRUE(engine.admit(tk(2, 10, 10)).admitted);
  AdmissionEngine recovered(opts);
  (void)recover(recovered, "", journals.paths());
  expect_same_engine(engine, recovered);
}

template <typename F>
void expect_bad_value(F&& f, const char* what) {
  try {
    f();
    ADD_FAILURE() << what << ": accepted";
  } catch (const persist::PersistError& e) {
    EXPECT_EQ(e.code(), persist::PersistErrc::BadValue) << what << ": "
                                                        << e.what();
  }
}

TEST(EngineRecovery, LegacyArtifactsAndMismatchedJournalsAreRefused) {
  ShardJournals journals(3);
  // Tags 16-18 were the engine's own committed-placement records.
  for (const int tag : {16, 17, 18}) {
    const std::string path = journals.path("legacy" + std::to_string(tag));
    {
      persist::Journal legacy = persist::Journal::create(path);
      ByteWriter w;
      w.u8(static_cast<std::uint8_t>(tag));
      w.u32(0);  // shard
      w.u64(1);  // id
      (void)legacy.append(w.data());
    }
    AdmissionController controller;
    expect_bad_value([&] { (void)recover(controller, "", path); },
                     "controller replay of an engine record");
    EngineOptions one;
    one.shards = 1;
    AdmissionEngine engine(one);
    const std::string paths[] = {path};
    expect_bad_value([&] { (void)recover(engine, "", paths); },
                     "engine replay of an engine record");
  }

  // The v2 engine image carries no per-shard journal LSNs: it recovers
  // on its own, but never under a journal suffix.
  const std::string image =
      std::string(EDFKIT_TEST_DATA_DIR) + "/snapshot_v2_engine.bin";
  EngineOptions stale;
  stale.shards = 1;
  {
    AdmissionEngine engine(stale);
    const std::vector<std::string> none(3);
    EXPECT_TRUE(recover(engine, image, none).snapshot_loaded);
    EXPECT_EQ(engine.shards(), 3u);
  }
  for (persist::Journal* j : journals.ptrs()) {
    (void)j->append(journal_codec::admit(tk(1, 10, 10)));
  }
  {
    AdmissionEngine engine(stale);
    expect_bad_value(
        [&] { (void)recover(engine, image, journals.paths()); },
        "journals on top of a v2 engine image");
  }

  // One journal per shard, never shared.
  EngineOptions opts;
  opts.shards = 3;
  AdmissionEngine engine(opts);
  expect_bad_value(
      [&] {
        (void)recover(engine, "",
                      std::span(journals.paths()).first(2));
      },
      "two journal paths for three shards");
  const std::vector<persist::Journal*> two(2, nullptr);
  EXPECT_THROW(engine.attach_journals(two), std::invalid_argument);
  const std::vector<persist::Journal*> shared(3, journals.ptrs()[0]);
  EXPECT_THROW(engine.attach_journals(shared), std::invalid_argument);
}

}  // namespace
}  // namespace edfkit
