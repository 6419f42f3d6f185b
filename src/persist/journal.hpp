/// \file journal.hpp
/// Append-only, CRC-per-record operation journal — the write-ahead half
/// of the admission subsystem's durability story (snapshots are the
/// checkpoint half; recover() composes the two).
///
/// File layout (little-endian):
///
///   [magic 8B "EDFKJRNL"] [version u32] [reserved u32] [base_lsn u64]
///   record*: [len u32] [crc32 u32 of payload] [payload len bytes]
///
/// (Version 1 files — no base_lsn field, implicitly base 0 — are still
/// readable; rotate() and create() write version 2.)
///
/// Records are opaque byte payloads here; the admission layer defines
/// their encoding (admission/snapshot.hpp). Each record carries its own
/// CRC, so recovery distinguishes the two failure shapes precisely:
///
///   * torn tail — the file ends inside the final record's frame (the
///     classic crash-mid-append). The partial record is DROPPED, not
///     fatal: the operation never committed. open_append() truncates
///     the tail so subsequent appends extend a clean prefix.
///   * corruption — a record is fully present but its CRC does not
///     match. That is bit rot, not a crash artifact; scan_journal()
///     throws PersistError{BadCrc} rather than silently losing suffix
///     operations.
///
/// The fsync policy knob trades durability for append latency:
///   None        — rely on the OS page cache (a *process* crash loses
///                 nothing; an OS/power crash may lose the tail).
///   EveryRecord — fdatasync per append: a committed decision survives
///                 power loss, at ~one device flush per operation.
///   EveryN      — fdatasync every `fsync_interval` records: bounded
///                 loss window, amortized flush cost.
///
/// append() is thread-safe (internal mutex). LSNs are record indices (0-based): a
/// snapshot taken at lsn L reflects exactly records [0, L), and
/// recovery replays [L, end).
///
/// Compaction: rotate(L) garbage-collects every record below LSN L —
/// the prefix a snapshot at LSN >= L has already folded in — by
/// rewriting the file (atomic tmp + rename) with base_lsn = L and only
/// the surviving suffix. LSNs are stable across rotation: the i-th
/// record of a rotated file has LSN base_lsn + i, so a snapshot/journal
/// pair keeps composing exactly as before while long-lived journals
/// stop growing without bound.
#pragma once

#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "persist/format.hpp"

namespace edfkit::obs {
struct JournalInstruments;
}

namespace edfkit::persist {

inline constexpr char kJournalMagic[8] = {'E', 'D', 'F', 'K',
                                          'J', 'R', 'N', 'L'};
inline constexpr std::uint32_t kJournalVersion = 2;

enum class FsyncPolicy : std::uint8_t { None, EveryRecord, EveryN };

struct JournalOptions {
  FsyncPolicy fsync = FsyncPolicy::None;
  /// Records between fdatasyncs under FsyncPolicy::EveryN.
  std::uint64_t fsync_interval = 64;
};

/// Result of scanning a journal file front to back.
struct JournalScan {
  /// Every intact record's payload, in append order. records[i] has
  /// LSN base_lsn + i.
  std::vector<std::vector<std::uint8_t>> records;
  /// LSN of the first record in the file: 0 for a never-rotated
  /// journal, the GC cut for a rotated one.
  std::uint64_t base_lsn = 0;
  /// The file ended inside the final record's frame; the partial
  /// record was dropped (crash mid-append, not an error).
  bool torn_tail = false;
  /// Bytes of the valid prefix (header + intact records) — what
  /// open_append() truncates to.
  std::uint64_t valid_bytes = 0;
};

/// Read + verify a journal front to back. Torn tails are dropped (see
/// file header); CRC corruption throws PersistError{BadCrc}; a missing
/// file throws PersistError{IoError}.
[[nodiscard]] JournalScan scan_journal(const std::string& path);

class Journal {
 public:
  /// Create (or truncate) a fresh journal at `path`. A nonzero
  /// `base_lsn` creates it empty-but-rotated — the first append gets
  /// LSN base_lsn, exactly as if records [0, base_lsn) had been
  /// garbage-collected. A replication follower seeded from a snapshot
  /// at LSN L starts its local journal this way, so the LSN spaces of
  /// primary and standby stay aligned.
  [[nodiscard]] static Journal create(const std::string& path,
                                      JournalOptions opts = {},
                                      std::uint64_t base_lsn = 0);
  /// Open an existing journal for append: scans it (throwing on
  /// corruption), truncates any torn tail, and resumes LSNs after the
  /// last intact record.
  [[nodiscard]] static Journal open_append(const std::string& path,
                                           JournalOptions opts = {});

  Journal(Journal&& o) noexcept;
  Journal& operator=(Journal&&) = delete;
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;
  ~Journal();

  /// Append one record; returns its LSN. Thread-safe. Durability per
  /// the fsync policy. \throws PersistError{IoError}
  ///
  /// Failure atomicity: a failed (or torn) frame write is rolled back
  /// by truncating the file to the last committed record before the
  /// error propagates, so the journal stays appendable and a scan sees
  /// exactly the committed prefix — the error is *retryable*. If the
  /// truncate-back itself fails the file may end mid-frame with the fd
  /// past the torn bytes; the journal marks itself poisoned and every
  /// later append throws a *fatal* PersistError (recovery via
  /// open_append(), which re-scans and truncates, is the only way
  /// forward — exactly what the server's tenant quarantine does).
  std::uint64_t append(std::span<const std::uint8_t> payload);

  /// Next LSN to be assigned == records committed so far (across every
  /// rotation — LSNs are stable).
  [[nodiscard]] std::uint64_t lsn() const noexcept;

  /// LSN of the oldest record still in the file (== the last rotate()
  /// cut, 0 if never rotated). Records [base_lsn, lsn()) are on disk.
  [[nodiscard]] std::uint64_t base_lsn() const noexcept;

  /// Garbage-collect every record below `keep_from_lsn` — the prefix a
  /// snapshot taken at LSN >= keep_from_lsn has already folded in. The
  /// surviving suffix is rewritten to a fresh file with
  /// base_lsn = keep_from_lsn and atomically renamed over path()
  /// (a crash mid-rotate leaves the old journal intact). The cut is
  /// clamped to [base_lsn(), lsn()]; rotating at or below the current
  /// base is a no-op. Thread-safe (appends block for the duration).
  /// \returns the number of records dropped.
  /// \throws PersistError{IoError} on any filesystem failure (the
  /// original journal is still valid in that case).
  std::uint64_t rotate(std::uint64_t keep_from_lsn);

  /// Force an fdatasync now (e.g. a SIGTERM flush), regardless of
  /// policy.
  void sync();

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

  /// Observability (src/obs/): while attached, every append records
  /// its frame-write latency (journal_append_ns, fdatasync excluded)
  /// and every policy- or sync()-triggered flush its fdatasync latency
  /// (journal_fsync_ns). Pass nullptr to detach. The instruments must
  /// outlive the attachment.
  void attach_obs(const obs::JournalInstruments* metrics) noexcept {
    const std::lock_guard<std::mutex> lock(mu_);
    metrics_ = metrics;
  }

  /// True when a failed append could not be rolled back (see append());
  /// the file may end mid-frame and this handle refuses further writes.
  [[nodiscard]] bool poisoned() const noexcept {
    const std::lock_guard<std::mutex> lock(mu_);
    return poisoned_;
  }

 private:
  Journal(int fd, std::string path, JournalOptions opts,
          std::uint64_t next_lsn, std::uint64_t base_lsn,
          std::uint64_t committed_bytes) noexcept;

  mutable std::mutex mu_;
  int fd_ = -1;
  std::string path_;
  JournalOptions opts_;
  std::uint64_t next_lsn_ = 0;
  std::uint64_t base_lsn_ = 0;
  std::uint64_t unsynced_ = 0;
  /// File size through the last fully-written record — the
  /// truncate-back target when an append fails partway.
  std::uint64_t committed_bytes_ = 0;
  bool poisoned_ = false;
  const obs::JournalInstruments* metrics_ = nullptr;
};

}  // namespace edfkit::persist
