/// \file edfkit_fsck.cpp
/// Offline deep verifier for an admission data directory — the
/// operator's answer to "is this snapshot/journal pair actually
/// recoverable, and does it decide what it claims?" before pointing a
/// server (or a replication re-seed) at it.
///
///   ./edfkit_fsck --data-dir DIR [--tenant NAME] [--verbose]
///
/// For every tenant (each <name>.snap / <name>.wal / <name>.dedup
/// group under DIR; --tenant restricts to one):
///
///   1. container walk — every snapshot section, every journal record
///      frame, and every dedup sidecar section is CRC-verified byte by
///      byte (a torn journal tail is reported, not an error: that is a
///      crash artifact the recovery path drops by design).
///   2. coherence — the snapshot's journal LSN must sit inside the
///      journal's [base_lsn, end) window (a snapshot older than the
///      journal's GC cut cannot be composed with it), and a journal
///      that holds records needs a snapshot: the journal records
///      operations, not the options (platform, epsilon, ...) they ran
///      under, and the server snapshots every new durable tenant before
///      its first record.
///   3. replay — full recover() (snapshot + journal suffix) through
///      the normal admission entry points, then verify_consistency()
///      and a full feasibility re-check of the resident set on the
///      recovered controller's platform
///      (AdmissionController::recheck_resident: the exact processor-
///      demand test on one processor, the global ladder on m > 1).
///   4. round-trip digest — the recovered controller is re-serialized
///      through the snapshot codec, loaded back, and the two store
///      digests (admission/snapshot.hpp store_digest) must be equal:
///      what was read is exactly what would be written.
///   5. cold-replay differential — when the journal was never rotated
///      (base_lsn == 0, full history on disk) the journal alone is
///      replayed into a second controller with the recovered options
///      and its digest must equal the composed recovery's: snapshot and
///      journal tell the same story.
///
/// Exit codes are typed so harnesses can gate on the failure class:
///   0  every check passed
///   2  usage error
///   3  data directory missing or holds no tenant artifacts
///   4  CRC/framing corruption (snapshot, journal, or dedup sidecar)
///   5  replay or consistency failure (recovery threw, the recovered
///      store is inconsistent, snapshot/journal are incoherent, or a
///      journal holds records without a snapshot)
///   6  digest mismatch (round-trip or cold-replay differential)
#include <cstdio>
#include <exception>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "admission/controller.hpp"
#include "admission/snapshot.hpp"
#include "persist/format.hpp"
#include "persist/journal.hpp"
#include "util/cli.hpp"

namespace {

using namespace edfkit;

// Mirrors net/tenant.cpp's dedup sidecar layout (a deliberate copy:
// fsck must keep decoding old sidecars even if the server evolves).
constexpr std::uint32_t kSecDedupMeta = 1;
constexpr std::uint32_t kSecDedupSessions = 2;

/// Worst failure class seen so far; corruption outranks replay
/// failures outranks digest mismatches (an operator fixes the most
/// fundamental problem first).
struct Verdicts {
  bool corrupt = false;   // exit 4
  bool replay = false;    // exit 5
  bool digest = false;    // exit 6
  [[nodiscard]] int exit_code() const {
    if (corrupt) return 4;
    if (replay) return 5;
    if (digest) return 6;
    return 0;
  }
};

struct TenantPaths {
  std::string snap;
  std::string wal;
  std::string dedup;
};

void fail(Verdicts& v, bool Verdicts::*cls, const std::string& tenant,
          const std::string& what) {
  v.*cls = true;
  std::fprintf(stderr, "fsck %s: %s\n", tenant.c_str(), what.c_str());
}

/// CRC-walk + decode the dedup sidecar; returns the session count.
std::uint64_t check_dedup(const std::string& path) {
  const persist::SectionReader sr(persist::read_file(path));
  try {
    ByteReader meta = sr.section(kSecDedupMeta);
    (void)meta.u64();  // journal LSN at save time
    const std::uint64_t sessions = meta.u64();
    ByteReader body = sr.section(kSecDedupSessions);
    for (std::uint64_t s = 0; s < sessions; ++s) {
      (void)body.str();  // client id
      (void)body.u64();  // highest_applied
      const std::uint32_t window = body.u32();
      for (std::uint32_t w = 0; w < window; ++w) {
        (void)body.u64();  // request id
        const std::uint32_t len = body.u32();
        for (std::uint32_t b = 0; b < len; ++b) {
          (void)body.u8();  // cached encoded response byte
        }
      }
    }
    return sessions;
  } catch (const std::out_of_range&) {
    throw persist::PersistError(persist::PersistErrc::Truncated, path);
  }
}

void check_tenant(const std::string& tenant, const TenantPaths& p,
                  bool verbose, Verdicts& v) {
  // 1a. Snapshot container walk. SectionReader's constructor verifies
  // every section CRC; the meta decode checks the kind tag.
  std::uint64_t snap_lsn = 0;
  bool have_snap = false;
  if (!p.snap.empty()) {
    try {
      const SnapshotMeta meta =
          read_snapshot_meta(persist::read_file(p.snap));
      snap_lsn = meta.journal_lsn;
      have_snap = true;
      if (verbose) {
        std::printf("  %s: snapshot ok, lsn=%llu\n", tenant.c_str(),
                    static_cast<unsigned long long>(snap_lsn));
      }
    } catch (const persist::PersistError& e) {
      fail(v, &Verdicts::corrupt, tenant,
           std::string("snapshot: ") + e.what());
      return;  // nothing downstream is meaningful
    }
  }

  // 1b. Journal frame walk. scan_journal CRC-checks every record;
  // BadCrc here is bit rot, a torn tail is a dropped crash artifact.
  persist::JournalScan scan;
  bool have_wal = false;
  if (!p.wal.empty()) {
    try {
      scan = persist::scan_journal(p.wal);
      have_wal = true;
      if (scan.torn_tail) {
        std::printf("  %s: journal has a torn tail (dropped, "
                    "%llu intact records survive)\n",
                    tenant.c_str(),
                    static_cast<unsigned long long>(scan.records.size()));
      }
      if (verbose) {
        std::printf("  %s: journal ok, [%llu, %llu)\n", tenant.c_str(),
                    static_cast<unsigned long long>(scan.base_lsn),
                    static_cast<unsigned long long>(scan.base_lsn +
                                                    scan.records.size()));
      }
    } catch (const persist::PersistError& e) {
      fail(v, &Verdicts::corrupt, tenant,
           std::string("journal: ") + e.what());
      return;
    }
  }
  if (!have_snap && !have_wal) return;  // dedup-only stray; checked below

  // 2. Coherence: recovery replays [snap_lsn, end) — a snapshot below
  // the journal's GC cut leaves a gap no replay can fill, and without
  // a snapshot the options the records ran under are unknown.
  if (!have_snap && !scan.records.empty()) {
    fail(v, &Verdicts::replay, tenant,
         "journal holds " + std::to_string(scan.records.size()) +
             " records but no snapshot records the options they ran "
             "under");
    return;
  }
  if (have_snap && have_wal && snap_lsn < scan.base_lsn) {
    fail(v, &Verdicts::replay, tenant,
         "snapshot lsn " + std::to_string(snap_lsn) +
             " below journal base " + std::to_string(scan.base_lsn) +
             " — rotated past its snapshot");
    return;
  }

  // 3. Full recovery through the normal entry points, then the exact
  // consistency + feasibility re-checks.
  AdmissionController recovered{AdmissionOptions{}};
  RecoveryResult rr;
  try {
    rr = recover(recovered, p.snap, p.wal);
  } catch (const persist::PersistError& e) {
    fail(v, &Verdicts::replay, tenant,
         std::string("recovery: ") + e.what());
    return;
  } catch (const std::exception& e) {
    fail(v, &Verdicts::replay, tenant,
         std::string("replay: ") + e.what());
    return;
  }
  if (!recovered.verify_consistency()) {
    fail(v, &Verdicts::replay, tenant,
         "recovered store fails verify_consistency()");
    return;
  }
  const StoreHeader hdr = recovered.demand_header();
  const FeasibilityResult feas = recovered.recheck_resident();
  if (hdr.residents > 0 && !feas.feasible()) {
    fail(v, &Verdicts::replay, tenant,
         "recovered resident set fails the feasibility re-check");
    return;
  }

  // 4. Round-trip digest: serialize the recovered controller, load it
  // back, compare store digests.
  const std::uint32_t recovered_digest = store_digest(recovered);
  try {
    AdmissionController reloaded{AdmissionOptions{}};
    (void)load_snapshot_bytes(
        reloaded, encode_snapshot(recovered, rr.snapshot_lsn + rr.replayed));
    if (store_digest(reloaded) != recovered_digest) {
      fail(v, &Verdicts::digest, tenant,
           "round-trip digest mismatch (reload of the re-serialized "
           "store decides differently)");
      return;
    }
  } catch (const persist::PersistError& e) {
    fail(v, &Verdicts::digest, tenant,
         std::string("round-trip: ") + e.what());
    return;
  }

  // 5. Cold-replay differential, when the full history is on disk.
  if (have_wal && scan.base_lsn == 0) {
    try {
      AdmissionController cold{recovered.options()};
      (void)recover(cold, "", p.wal);
      if (store_digest(cold) != recovered_digest) {
        fail(v, &Verdicts::digest, tenant,
             "cold journal replay diverges from snapshot+suffix "
             "recovery");
        return;
      }
    } catch (const persist::PersistError& e) {
      fail(v, &Verdicts::replay, tenant,
           std::string("cold replay: ") + e.what());
      return;
    }
  }

  // Dedup sidecar walk (independent of the store checks).
  std::uint64_t sessions = 0;
  if (!p.dedup.empty()) {
    try {
      sessions = check_dedup(p.dedup);
    } catch (const persist::PersistError& e) {
      fail(v, &Verdicts::corrupt, tenant,
           std::string("dedup sidecar: ") + e.what());
      return;
    }
  }

  std::printf("tenant %s: ok — residents=%llu journal=[%llu, %llu) "
              "replayed=%llu digest=%08x sessions=%llu%s\n",
              tenant.c_str(),
              static_cast<unsigned long long>(hdr.residents),
              static_cast<unsigned long long>(scan.base_lsn),
              static_cast<unsigned long long>(scan.base_lsn +
                                              scan.records.size()),
              static_cast<unsigned long long>(rr.replayed),
              recovered_digest,
              static_cast<unsigned long long>(sessions),
              rr.torn_tail ? " (torn tail dropped)" : "");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliFlags flags(argc, argv);
    const std::string dir = flags.get("data-dir", "");
    const std::string only = flags.get("tenant", "");
    const bool verbose = flags.get_bool("verbose", false);
    if (dir.empty()) {
      std::fprintf(stderr,
                   "usage: edfkit_fsck --data-dir DIR [--tenant NAME] "
                   "[--verbose]\n");
      return 2;
    }
    std::error_code ec;
    if (!std::filesystem::is_directory(dir, ec)) {
      std::fprintf(stderr, "fsck: %s is not a directory\n", dir.c_str());
      return 3;
    }

    // Group artifacts by tenant stem.
    std::map<std::string, TenantPaths> tenants;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (!entry.is_regular_file()) continue;
      const std::filesystem::path& path = entry.path();
      const std::string stem = path.stem().string();
      const std::string ext = path.extension().string();
      if (!only.empty() && stem != only) continue;
      if (ext == ".snap") {
        tenants[stem].snap = path.string();
      } else if (ext == ".wal") {
        tenants[stem].wal = path.string();
      } else if (ext == ".dedup") {
        tenants[stem].dedup = path.string();
      }
    }
    if (tenants.empty()) {
      std::fprintf(stderr, "fsck: no tenant artifacts under %s%s\n",
                   dir.c_str(),
                   only.empty() ? "" : (" for tenant " + only).c_str());
      return 3;
    }

    Verdicts v;
    for (const auto& [tenant, paths] : tenants) {
      check_tenant(tenant, paths, verbose, v);
    }
    if (v.exit_code() == 0) {
      std::printf("fsck: %zu tenant(s) verified, all checks passed\n",
                  tenants.size());
    }
    return v.exit_code();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fsck error: %s\n", e.what());
    return 2;
  }
}
