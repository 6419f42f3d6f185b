/// \file test_journal.cpp
/// Durable admission state, journal half: CRC-per-record framing, the
/// torn-tail-vs-corruption distinction, every recovery composition
/// (snapshot + suffix, snapshot-only, journal-only cold, nothing), the
/// refusal of unknown record tags, and a failed append leaving the
/// controller untouched.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "admission/replay.hpp"
#include "admission/snapshot.hpp"
#include "fault/fault.hpp"
#include "helpers.hpp"
#include "persist/format.hpp"
#include "persist/journal.hpp"

namespace edfkit {
namespace {

using testing::tk;

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "edfkit_jrnl_" + name + "_" +
         std::to_string(::getpid());
}

std::vector<std::uint8_t> payload_of(char fill, std::size_t n) {
  return std::vector<std::uint8_t>(n, static_cast<std::uint8_t>(fill));
}

void truncate_to(const std::string& path, std::uint64_t bytes) {
  std::filesystem::resize_file(path, bytes);
}

void flip_byte(const std::string& path, std::uint64_t offset) {
  std::fstream f(path,
                 std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  f.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0x5A);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&c, 1);
}

TEST(Journal, AppendScanRoundTrip) {
  const std::string path = temp_path("roundtrip");
  {
    persist::Journal j = persist::Journal::create(path);
    EXPECT_EQ(j.lsn(), 0u);
    EXPECT_EQ(j.append(payload_of('a', 5)), 0u);
    EXPECT_EQ(j.append(payload_of('b', 0)), 1u);  // empty records legal
    EXPECT_EQ(j.append(payload_of('c', 300)), 2u);
    EXPECT_EQ(j.lsn(), 3u);
  }
  const persist::JournalScan scan = persist::scan_journal(path);
  EXPECT_FALSE(scan.torn_tail);
  ASSERT_EQ(scan.records.size(), 3u);
  EXPECT_EQ(scan.records[0], payload_of('a', 5));
  EXPECT_TRUE(scan.records[1].empty());
  EXPECT_EQ(scan.records[2], payload_of('c', 300));
  std::remove(path.c_str());
}

TEST(Journal, RecordCountPastThePayloadIsOutOfRange) {
  // An AdmitGroup or RemoveGroup record whose count claims 2^32 - 1
  // members fails as a short record (std::out_of_range, which a
  // replicating follower reports as divergence) before anything is
  // sized by it, and applies nothing.
  AdmissionController ctl;
  (void)ctl.try_admit(tk(1, 4, 8));
  const std::uint32_t before = store_digest(ctl);
  for (const JournalOp op : {JournalOp::AdmitGroup, JournalOp::RemoveGroup}) {
    const std::vector<std::uint8_t> record{static_cast<std::uint8_t>(op),
                                           0xff, 0xff, 0xff, 0xff};
    EXPECT_THROW(apply_record(ctl, record), std::out_of_range)
        << static_cast<int>(op);
  }
  EXPECT_EQ(store_digest(ctl), before);
}

TEST(Journal, OpenAppendResumesLsns) {
  const std::string path = temp_path("resume");
  {
    persist::Journal j = persist::Journal::create(path);
    (void)j.append(payload_of('x', 8));
  }
  {
    persist::Journal j = persist::Journal::open_append(path);
    EXPECT_EQ(j.lsn(), 1u);
    EXPECT_EQ(j.append(payload_of('y', 8)), 1u);
  }
  EXPECT_EQ(persist::scan_journal(path).records.size(), 2u);
  std::remove(path.c_str());
}

TEST(Journal, TornFinalRecordIsDroppedNotFatal) {
  const std::string path = temp_path("torn");
  std::uint64_t two_records = 0;
  {
    persist::Journal j = persist::Journal::create(path);
    (void)j.append(payload_of('a', 40));
    (void)j.append(payload_of('b', 40));
    two_records = std::filesystem::file_size(path);
    (void)j.append(payload_of('c', 40));
  }
  const std::uint64_t full = std::filesystem::file_size(path);
  // Cut at every interesting place inside the final record's frame:
  // one byte into the len field, inside the crc, and mid-payload.
  for (const std::uint64_t keep :
       {two_records + 1, two_records + 6, full - 1}) {
    truncate_to(path, keep);
    const persist::JournalScan scan = persist::scan_journal(path);
    EXPECT_TRUE(scan.torn_tail) << "keep " << keep;
    ASSERT_EQ(scan.records.size(), 2u) << "keep " << keep;
    EXPECT_EQ(scan.valid_bytes, two_records) << "keep " << keep;
  }
  // open_append truncates the tail and continues cleanly.
  {
    truncate_to(path, two_records + 3);
    persist::Journal j = persist::Journal::open_append(path);
    EXPECT_EQ(j.lsn(), 2u);
    (void)j.append(payload_of('d', 12));
  }
  const persist::JournalScan healed = persist::scan_journal(path);
  EXPECT_FALSE(healed.torn_tail);
  ASSERT_EQ(healed.records.size(), 3u);
  EXPECT_EQ(healed.records[2], payload_of('d', 12));
  std::remove(path.c_str());
}

TEST(Journal, CrcCorruptionIsATypedError) {
  const std::string path = temp_path("crc");
  std::uint64_t first_payload_at = 0;
  {
    persist::Journal j = persist::Journal::create(path);
    first_payload_at = std::filesystem::file_size(path) + 8;
    (void)j.append(payload_of('a', 64));
    (void)j.append(payload_of('b', 64));
  }
  flip_byte(path, first_payload_at + 10);
  try {
    (void)persist::scan_journal(path);
    FAIL() << "corrupt record scanned silently";
  } catch (const persist::PersistError& e) {
    EXPECT_EQ(e.code(), persist::PersistErrc::BadCrc);
  }
  // recover() must propagate the corruption, not treat it as a tail.
  AdmissionController out;
  EXPECT_THROW((void)recover(out, "", path), persist::PersistError);
  std::remove(path.c_str());
}

TEST(Journal, WrongMagicIsATypedError) {
  const std::string path = temp_path("magic");
  {
    std::ofstream f(path, std::ios::binary);
    f << "definitely not a journal header";
  }
  try {
    (void)persist::scan_journal(path);
    FAIL() << "garbage scanned";
  } catch (const persist::PersistError& e) {
    EXPECT_EQ(e.code(), persist::PersistErrc::BadMagic);
  }
  std::remove(path.c_str());
}

// ------------------------------------------------- recovery compositions

AdmissionOptions fast_options() {
  AdmissionOptions opts;
  opts.skip_exact = true;
  return opts;
}

/// Churn a journaled controller; returns the ids still resident.
std::vector<TaskId> churn(AdmissionController& ctl, std::uint64_t seed,
                          int ops) {
  Rng rng(seed);
  std::vector<TaskId> live;
  std::vector<Task> pool;
  for (int op = 0; op < ops; ++op) {
    if (pool.empty()) {
      const TaskSet ts = draw_small_set(rng, 0.95);
      pool.assign(ts.begin(), ts.end());
    }
    if (!live.empty() && rng.bernoulli(0.4)) {
      const std::size_t pick = static_cast<std::size_t>(
          rng.uniform_time(0, static_cast<Time>(live.size()) - 1));
      (void)ctl.remove(live[pick]);
      live[pick] = live.back();
      live.pop_back();
    } else if (rng.bernoulli(0.3)) {
      std::vector<Task> group;
      for (int i = 0; i < 3 && !pool.empty(); ++i) {
        group.push_back(pool.back());
        pool.pop_back();
      }
      const GroupDecision d = ctl.admit_group(group);
      for (const TaskId id : d.ids) live.push_back(id);
    } else {
      const AdmissionDecision d = ctl.try_admit(pool.back());
      pool.pop_back();
      if (d.admitted) live.push_back(d.id);
    }
  }
  return live;
}

void expect_same_store(const AdmissionController& a,
                       const AdmissionController& b) {
  const StoreHeader ha = a.demand_header();
  const StoreHeader hb = b.demand_header();
  EXPECT_EQ(ha.residents, hb.residents);
  EXPECT_EQ(ha.live_checkpoints, hb.live_checkpoints);
  EXPECT_EQ(ha.dead_checkpoints, hb.dead_checkpoints);
  EXPECT_EQ(ha.utilization, hb.utilization);
  EXPECT_EQ(ha.cert_ratio, hb.cert_ratio);
  EXPECT_EQ(a.stats().to_string(), b.stats().to_string());
  const TaskSet sa = a.snapshot();
  const TaskSet sb = b.snapshot();
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_TRUE(sa[i] == sb[i]) << i;
  }
}

TEST(Recovery, JournalOnlyColdRecovery) {
  const std::string wal = temp_path("cold.wal");
  std::remove(wal.c_str());
  AdmissionController original(fast_options());
  {
    persist::Journal j = persist::Journal::create(wal);
    original.attach_journal(&j);
    (void)churn(original, 31, 400);
    original.attach_journal(nullptr);
  }
  AdmissionController cold(fast_options());
  const RecoveryResult rec = recover(cold, "", wal);
  EXPECT_FALSE(rec.snapshot_loaded);
  EXPECT_EQ(rec.snapshot_lsn, 0u);
  EXPECT_EQ(rec.replayed, rec.journal_records);
  EXPECT_GT(rec.replayed, 0u);
  expect_same_store(original, cold);
  EXPECT_TRUE(cold.verify_consistency());
  std::remove(wal.c_str());
}

TEST(Recovery, SnapshotPlusSuffixAndSnapshotOnly) {
  const std::string wal = temp_path("mix.wal");
  const std::string snap = temp_path("mix.snap");
  std::remove(wal.c_str());
  std::remove(snap.c_str());
  AdmissionController original(fast_options());
  {
    persist::Journal j = persist::Journal::create(wal);
    original.attach_journal(&j);
    (void)churn(original, 77, 300);
    save_snapshot(original, snap, j.lsn());
    (void)churn(original, 78, 150);  // the suffix past the snapshot
    original.attach_journal(nullptr);
  }
  // Snapshot + suffix: bit-identical to the original.
  AdmissionController both(fast_options());
  const RecoveryResult rec = recover(both, snap, wal);
  EXPECT_TRUE(rec.snapshot_loaded);
  EXPECT_GT(rec.snapshot_lsn, 0u);
  EXPECT_EQ(rec.replayed, rec.journal_records - rec.snapshot_lsn);
  EXPECT_GT(rec.replayed, 0u);
  expect_same_store(original, both);

  // Snapshot-only: a valid (older) state — the journal suffix is lost.
  AdmissionController snap_only(fast_options());
  const RecoveryResult rec2 = recover(snap_only, snap, "");
  EXPECT_TRUE(rec2.snapshot_loaded);
  EXPECT_EQ(rec2.replayed, 0u);
  EXPECT_TRUE(snap_only.verify_consistency());

  // Snapshot + *empty* journal (header only): snapshot ahead of the
  // journal must be refused, not half-replayed.
  const std::string empty_wal = temp_path("mix_empty.wal");
  { persist::Journal j = persist::Journal::create(empty_wal); }
  AdmissionController ahead(fast_options());
  try {
    (void)recover(ahead, snap, empty_wal);
    FAIL() << "snapshot ahead of journal accepted";
  } catch (const persist::PersistError& e) {
    EXPECT_EQ(e.code(), persist::PersistErrc::BadValue);
  }
  std::remove(empty_wal.c_str());
  std::remove(wal.c_str());
  std::remove(snap.c_str());
}

TEST(Recovery, EmptyJournalAndNoArtifactsAreCleanColdStarts) {
  const std::string wal = temp_path("empty.wal");
  { persist::Journal j = persist::Journal::create(wal); }
  AdmissionController a(fast_options());
  const RecoveryResult rec = recover(a, "", wal);
  EXPECT_EQ(rec.journal_records, 0u);
  EXPECT_EQ(rec.replayed, 0u);
  EXPECT_FALSE(rec.torn_tail);
  EXPECT_EQ(a.size(), 0u);
  // Missing files entirely: also a clean cold start.
  AdmissionController b(fast_options());
  const RecoveryResult rec2 =
      recover(b, temp_path("nonexistent.snap"), temp_path("nonexistent.wal"));
  EXPECT_FALSE(rec2.snapshot_loaded);
  EXPECT_EQ(rec2.journal_records, 0u);
  std::remove(wal.c_str());
}

// ------------------------------------------------- rotation (journal GC)

TEST(Journal, RotateDropsPrefixAndKeepsLsnsStable) {
  const std::string path = temp_path("rotate");
  std::remove(path.c_str());
  persist::Journal j = persist::Journal::create(path);
  for (char c = 'a'; c < 'a' + 8; ++c) (void)j.append(payload_of(c, 16));
  EXPECT_EQ(j.lsn(), 8u);
  EXPECT_EQ(j.base_lsn(), 0u);
  const auto before = std::filesystem::file_size(path);

  EXPECT_EQ(j.rotate(5), 5u);
  EXPECT_EQ(j.base_lsn(), 5u);
  EXPECT_EQ(j.lsn(), 8u);  // LSNs unaffected by GC
  EXPECT_LT(std::filesystem::file_size(path), before);

  // Appends continue with stable LSNs into the rotated file.
  EXPECT_EQ(j.append(payload_of('z', 16)), 8u);

  const persist::JournalScan scan = persist::scan_journal(path);
  EXPECT_EQ(scan.base_lsn, 5u);
  ASSERT_EQ(scan.records.size(), 4u);  // LSNs 5,6,7 survive + 8 appended
  EXPECT_EQ(scan.records[0], payload_of('f', 16));
  EXPECT_EQ(scan.records[3], payload_of('z', 16));

  // Rotating at or below the current base is a no-op; beyond lsn()
  // clamps to the end (drops everything currently on disk).
  EXPECT_EQ(j.rotate(3), 0u);
  EXPECT_EQ(j.rotate(100), 4u);
  EXPECT_EQ(j.base_lsn(), 9u);
  EXPECT_EQ(persist::scan_journal(path).records.size(), 0u);
  std::remove(path.c_str());
}

TEST(Journal, OpenAppendResumesARotatedJournal) {
  const std::string path = temp_path("rotate_resume");
  std::remove(path.c_str());
  {
    persist::Journal j = persist::Journal::create(path);
    for (int i = 0; i < 6; ++i) (void)j.append(payload_of('p', 8));
    (void)j.rotate(4);
  }
  persist::Journal j = persist::Journal::open_append(path);
  EXPECT_EQ(j.base_lsn(), 4u);
  EXPECT_EQ(j.lsn(), 6u);
  EXPECT_EQ(j.append(payload_of('q', 8)), 6u);
  // A torn tail after rotation still truncates cleanly on reopen.
  truncate_to(path, std::filesystem::file_size(path) - 3);
  persist::Journal again = persist::Journal::open_append(path);
  EXPECT_EQ(again.lsn(), 6u);
  std::remove(path.c_str());
}

TEST(Recovery, RecoverAfterRotateMatchesUnrotatedTwin) {
  const std::string wal = temp_path("rotgc.wal");
  const std::string wal_twin = temp_path("rotgc_twin.wal");
  const std::string snap = temp_path("rotgc.snap");
  for (const auto& p : {wal, wal_twin, snap}) std::remove(p.c_str());

  // Two identical journaled runs; one journal is rotated at the
  // snapshot LSN (the compaction pattern: snapshot, then GC the records
  // the snapshot folded in), the twin keeps its full history.
  AdmissionController original(fast_options());
  AdmissionController twin_src(fast_options());
  {
    persist::Journal j = persist::Journal::create(wal);
    persist::Journal jt = persist::Journal::create(wal_twin);
    original.attach_journal(&j);
    twin_src.attach_journal(&jt);
    (void)churn(original, 91, 300);
    (void)churn(twin_src, 91, 300);
    save_snapshot(original, snap, j.lsn());
    EXPECT_EQ(j.rotate(j.lsn()), j.lsn());  // GC everything snapshotted
    (void)churn(original, 92, 150);  // suffix lands in the rotated file
    (void)churn(twin_src, 92, 150);
    original.attach_journal(nullptr);
    twin_src.attach_journal(nullptr);
  }
  expect_same_store(original, twin_src);

  AdmissionController recovered(fast_options());
  const RecoveryResult rec = recover(recovered, snap, wal);
  EXPECT_TRUE(rec.snapshot_loaded);
  EXPECT_GT(rec.snapshot_lsn, 0u);
  EXPECT_EQ(rec.replayed, rec.journal_records);  // whole rotated file
  expect_same_store(original, recovered);
  EXPECT_TRUE(recovered.verify_consistency());

  // The rotated journal without its snapshot is refused: the records a
  // cold replay would need are gone, and that must never be silent.
  AdmissionController cold(fast_options());
  try {
    (void)recover(cold, "", wal);
    FAIL() << "cold recovery from a rotated journal accepted";
  } catch (const persist::PersistError& e) {
    EXPECT_EQ(e.code(), persist::PersistErrc::BadValue);
  }

  for (const auto& p : {wal, wal_twin, snap}) std::remove(p.c_str());
}

TEST(Recovery, TornJournalTailRecoversThePrefix) {
  const std::string wal = temp_path("torntail.wal");
  std::remove(wal.c_str());
  AdmissionController original(fast_options());
  {
    persist::Journal j = persist::Journal::create(wal);
    original.attach_journal(&j);
    (void)original.try_admit(tk(1, 4, 8));
    (void)original.try_admit(tk(2, 12, 16));
    original.attach_journal(nullptr);
  }
  // Tear the last record mid-payload: recovery keeps the first admit.
  truncate_to(wal, std::filesystem::file_size(wal) - 3);
  AdmissionController rec_ctl(fast_options());
  const RecoveryResult rec = recover(rec_ctl, "", wal);
  EXPECT_TRUE(rec.torn_tail);
  EXPECT_EQ(rec.journal_records, 1u);
  EXPECT_EQ(rec.replayed, 1u);
  EXPECT_EQ(rec_ctl.size(), 1u);
  EXPECT_TRUE(rec_ctl.verify_consistency());
  std::remove(wal.c_str());
}

TEST(Recovery, RetiredEngineRecordTagsAreRefused) {
  // Tags 16-18 were the sharded engine's committed-placement records,
  // retired with it; replaying one is an unknown record, not a no-op.
  const std::string wal = temp_path("retired.wal");
  for (const int tag : {16, 17, 18}) {
    std::remove(wal.c_str());
    {
      persist::Journal j = persist::Journal::create(wal);
      ByteWriter w;
      w.u8(static_cast<std::uint8_t>(tag));
      w.u32(0);  // shard
      w.u64(1);  // id
      (void)j.append(w.data());
    }
    AdmissionController ctl;
    try {
      (void)recover(ctl, "", wal);
      ADD_FAILURE() << "tag " << tag << " replayed";
    } catch (const persist::PersistError& e) {
      EXPECT_EQ(e.code(), persist::PersistErrc::BadValue) << tag;
    }
  }
  std::remove(wal.c_str());
}

TEST(Recovery, FailedAppendLeavesTheControllerUnchanged) {
  const std::string wal = temp_path("failed_append.wal");
  std::remove(wal.c_str());
  AdmissionController ctl(fast_options());
  persist::Journal j = persist::Journal::create(wal);
  ctl.attach_journal(&j);
  ASSERT_TRUE(ctl.try_admit(tk(1, 10, 10)).admitted);
  const std::string stats = ctl.stats().to_json();
  const std::uint32_t digest = store_digest(ctl);
  const std::uint64_t lsn = j.lsn();

  fault::point("journal.append.write").arm(fault::Mode::Once);
  EXPECT_THROW((void)ctl.try_admit(tk(2, 10, 10)), persist::PersistError);
  fault::disarm_all();
  EXPECT_EQ(ctl.stats().to_json(), stats);
  EXPECT_EQ(ctl.size(), 1u);
  EXPECT_EQ(store_digest(ctl), digest);
  EXPECT_EQ(j.lsn(), lsn);

  // The failure was retryable: the offer lands on retry, and the
  // journal still recovers the controller bit-identically.
  ASSERT_TRUE(ctl.try_admit(tk(2, 10, 10)).admitted);
  ctl.attach_journal(nullptr);
  AdmissionController recovered(fast_options());
  (void)recover(recovered, "", wal);
  expect_same_store(ctl, recovered);
  EXPECT_EQ(store_digest(recovered), store_digest(ctl));
  std::remove(wal.c_str());
}

}  // namespace
}  // namespace edfkit
