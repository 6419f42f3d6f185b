/// \file snapshot.hpp
/// Durable admission state: versioned binary snapshots of the
/// controller plus the admission journal codec and crash recovery
/// (ROADMAP "Persistence").
///
/// Two composable artifacts:
///
///   * snapshot — a CRC-framed section file (persist/format.hpp)
///     serializing the complete decision-relevant state: every
///     IncrementalDemand field (TaskView rows, id->slot index with its
///     tombstones, refinement levels, the segmented checkpoint/border
///     store including step/border tombstone flags and the per-segment
///     cached-slack ratios, certificate regions, certified scaled
///     aggregates), controller policy options, stats, and the decision
///     sequence counter. load_snapshot() restores a store that makes
///     *bit-identical* admit/reject decisions to the original from that
///     point on (the persist test suite differential-fuzzes this
///     against a never-persisted twin).
///
///   * journal — an append-only record stream (persist/journal.hpp) of
///     the operations offered to a controller. Controller::attach_journal
///     appends a record ahead of every try_admit / admit_group /
///     remove / remove_group (rejected admits included: their tentative
///     insert consumes a TaskId and may leave learned refinement, so
///     replay must re-execute them to stay bit-identical).
///
/// recover() composes the two: load the snapshot (taken at journal LSN
/// L), then replay journal records [L, end) through the normal
/// controller entry points. Cold recovery (journal only, no snapshot)
/// replays from the beginning into a freshly constructed controller;
/// snapshot-only recovery restores the checkpoint and replays nothing.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "admission/controller.hpp"
#include "persist/journal.hpp"

namespace edfkit {

/// Snapshot container kinds (section kSecMeta). Engine is the tag of
/// images written by the sharded engine earlier versions shipped; the
/// loader refuses it with PersistError{BadValue}.
enum class SnapshotKind : std::uint8_t { Controller = 1, Engine = 2 };

struct SnapshotMeta {
  SnapshotKind kind = SnapshotKind::Controller;
  /// Journal LSN the snapshot reflects: records [0, journal_lsn) are
  /// already folded in; recovery replays from journal_lsn.
  std::uint64_t journal_lsn = 0;
};

/// Journal record tags (first payload byte).
enum class JournalOp : std::uint8_t {
  Admit = 1,        ///< controller: one offered task
  AdmitGroup = 2,   ///< controller: one offered group
  Remove = 3,       ///< controller: withdraw one id
  RemoveGroup = 4,  ///< controller: withdraw an id group
  /// Server-side exactly-once bookkeeping: "the next controller record
  /// was requested by (client, request_id)". Appended by the network
  /// server immediately before the operation record it annotates, so a
  /// recovery replay can rebuild the per-client dedup window and answer
  /// a resent request from the applied result. Pure annotation: replay
  /// applies no state change for it, and a mark with no following
  /// operation record (crash between the two appends) means the op
  /// never committed — the client's retry is correct to re-execute.
  ClientMark = 32,
};

/// Record encoders (the attach_journal hooks call these; tests build
/// records directly).
namespace journal_codec {
[[nodiscard]] std::vector<std::uint8_t> admit(const Task& t);
[[nodiscard]] std::vector<std::uint8_t> admit_group(
    std::span<const Task> group);
[[nodiscard]] std::vector<std::uint8_t> remove(TaskId id);
[[nodiscard]] std::vector<std::uint8_t> remove_group(
    std::span<const TaskId> ids);
[[nodiscard]] std::vector<std::uint8_t> client_mark(
    const std::string& client, std::uint64_t request_id,
    std::uint8_t flags);
}  // namespace journal_codec

/// Serialize the controller (options + stats + sequence + the complete
/// demand store) to `path`, atomically. `journal_lsn` records which
/// journal prefix the snapshot reflects (0 when not journaling).
/// Not safe concurrently with controller mutation (the controller
/// itself is single-mutator; snapshot between operations).
void save_snapshot(const AdmissionController& controller,
                   const std::string& path, std::uint64_t journal_lsn = 0);

/// Restore `out` from a controller snapshot, overwriting its options
/// and entire store. \throws PersistError on any framing/CRC/value
/// problem or a kind mismatch.
SnapshotMeta load_snapshot(AdmissionController& out,
                           const std::string& path);

/// Watches a controller recovery replay record by record. The network
/// server implements this to rebuild its per-client exactly-once dedup
/// window: on_mark announces the (client, request_id) a ClientMark
/// record carried, and the following result callback delivers the
/// re-executed operation's outcome — bit-identical to the original run,
/// so the rebuilt cached response matches the one originally sent.
/// Every callback defaults to a no-op.
class ReplayObserver {
 public:
  virtual ~ReplayObserver() = default;
  virtual void on_mark(const std::string& /*client*/,
                       std::uint64_t /*request_id*/, std::uint8_t /*flags*/) {}
  virtual void on_admit(const AdmissionDecision& /*d*/) {}
  virtual void on_admit_group(const GroupDecision& /*d*/) {}
  virtual void on_remove(TaskId /*id*/, bool /*removed*/) {}
  virtual void on_remove_group(std::span<const TaskId> /*ids*/,
                               std::size_t /*removed*/) {}
};

struct RecoveryResult {
  bool snapshot_loaded = false;
  std::uint64_t snapshot_lsn = 0;   ///< journal records folded into it
  std::uint64_t journal_records = 0;  ///< intact records found
  std::uint64_t replayed = 0;       ///< records applied on top
  bool torn_tail = false;  ///< a partial final record was dropped
};

/// Load the snapshot (if `snapshot_path` names an existing file), then
/// replay the journal suffix (if `journal_path` names an existing
/// file) through the normal admission entry points. Either path may be
/// empty/absent: snapshot-only, journal-only (cold), and nothing-at-all
/// recoveries are all valid. Whatever state `out` already holds is
/// discarded — overwritten by the snapshot, or reset to empty (options
/// kept) when there is none, so a cold journal replay never
/// double-applies records on top of live state. The controller's
/// attached journal (if any) is detached for the duration — replay
/// must not re-journal. \throws PersistError on corruption (a torn
/// journal tail is NOT corruption — it is dropped and reported).
/// An optional observer sees every replayed record's outcome (see
/// ReplayObserver) — the network server's dedup-window rebuild.
RecoveryResult recover(AdmissionController& out,
                       const std::string& snapshot_path,
                       const std::string& journal_path,
                       ReplayObserver* observer = nullptr);

/// Apply ONE journal record payload through the normal controller
/// entry points — the body of recover()'s replay loop, exposed so a
/// replication follower (src/repl/) can run the recovery path
/// *continuously*, record by record, as the primary ships them.
/// The caller is responsible for journal discipline: a follower keeps
/// its controller's journal detached and appends the shipped bytes to
/// its local journal itself (byte-identical WAL), then applies here.
/// \throws PersistError on a malformed or unknown record.
void apply_record(AdmissionController& out,
                  std::span<const std::uint8_t> payload,
                  ReplayObserver* observer = nullptr);

/// save_snapshot()'s container as bytes — what a REPL_SNAPSHOT frame
/// carries when a follower is (re-)seeded.
[[nodiscard]] std::vector<std::uint8_t> encode_snapshot(
    const AdmissionController& controller, std::uint64_t journal_lsn = 0);

/// load_snapshot() from bytes (same container, no file).
SnapshotMeta load_snapshot_bytes(AdmissionController& out,
                                 std::vector<std::uint8_t> bytes);

/// Decode only the meta section (kind + journal LSN) of a controller
/// snapshot container — how the shipper labels a snapshot it forwards
/// without paying for a store decode.
[[nodiscard]] SnapshotMeta read_snapshot_meta(
    std::vector<std::uint8_t> bytes);

/// CRC32 over the snapshot codec's serialized store: options, stats,
/// decision sequence, and the complete demand store — everything the
/// decision paths read, nothing transient. Two controllers with equal
/// digests are bit-identical deciders from here on; this is the
/// replication divergence check (primary and follower exchange digests
/// at matching journal LSNs).
[[nodiscard]] std::uint32_t store_digest(
    const AdmissionController& controller);

}  // namespace edfkit
