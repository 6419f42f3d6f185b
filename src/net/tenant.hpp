/// \file tenant.hpp
/// Per-tenant admission state for the network server: each tenant name
/// maps to its own AdmissionController (its own resident set, TaskId
/// space, stats and ladder options) plus, when a data directory is
/// configured, its own write-ahead journal and snapshot file.
///
/// Tenant durability is controller journal replay, which is
/// bit-identical: the TaskIds a recovered controller assigns are
/// exactly the ids it handed out before the crash, so the ids remote
/// clients hold stay valid across a server restart.
///
/// Durability class is negotiated at HELLO (net/protocol.hpp): the
/// first HELLO for a name creates the tenant with the requested
/// persist::FsyncPolicy; later HELLOs attach to the existing tenant
/// (its class does not change mid-life — mixed-durability writers to
/// one journal would make the weakest class the real one).
///
/// Checkpointing ties into journal compaction (persist/journal.hpp
/// rotate()): every `checkpoint_every` journaled operations the tenant
/// snapshots at the current LSN and rotates the journal there, so a
/// long-lived tenant's on-disk footprint is one snapshot plus a
/// bounded suffix instead of an unbounded operation history. A new
/// durable primary also checkpoints once when it opens, before its
/// first journal record, so its options are on disk from the start.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "admission/controller.hpp"
#include "net/protocol.hpp"
#include "persist/journal.hpp"

namespace edfkit {
class ReplayObserver;  // admission/snapshot.hpp
}

namespace edfkit::obs {
class Obs;
}

namespace edfkit::net {

struct TenantOptions {
  /// Base ladder options every tenant's controller starts from (HELLO
  /// may additionally switch return_certificate on).
  AdmissionOptions admission;
  /// Directory for per-tenant durability artifacts
  /// (<dir>/<tenant>.snap, <dir>/<tenant>.wal). Empty = in-memory
  /// tenants, no journal, nothing to recover.
  std::string data_dir;
  /// Journaled operations between checkpoint+rotate cycles; 0 = never
  /// checkpoint automatically (flush()/checkpoint() still work).
  std::size_t checkpoint_every = 0;
  /// Per-client applied responses retained for exactly-once retry: a
  /// resent request whose id is still inside the window is answered
  /// from the cached result; one that fell off (the client is more
  /// than this many requests behind) gets InternalError rather than a
  /// silent double-apply.
  std::size_t dedup_window = 128;
  /// Create tenants as replication followers (src/repl/): the
  /// controller does not journal its own operations — instead
  /// apply_replicated() appends the primary's exact record bytes and
  /// replays each through the same recovery path, keeping the follower
  /// bit-identical. promote() flips a follower into a serving primary.
  bool standby = false;
};

/// One tenant: name, controller, optional journal. Created via
/// TenantTable; not movable once created (the controller holds a raw
/// journal pointer).
class Tenant {
 public:
  Tenant(std::string name, const TenantOptions& opts,
         persist::FsyncPolicy fsync, std::uint64_t fsync_interval,
         bool certified, obs::Obs* obs, std::uint32_t platform_m = 1);
  Tenant(const Tenant&) = delete;
  Tenant& operator=(const Tenant&) = delete;
  ~Tenant();

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] AdmissionController& controller() noexcept { return ctl_; }
  [[nodiscard]] const AdmissionController& controller() const noexcept {
    return ctl_;
  }
  [[nodiscard]] bool journaled() const noexcept {
    return journal_.has_value();
  }
  [[nodiscard]] std::uint64_t journal_base_lsn() const noexcept {
    return journal_ ? journal_->base_lsn() : 0;
  }
  [[nodiscard]] std::uint64_t journal_lsn() const noexcept {
    return journal_ ? journal_->lsn() : 0;
  }

  /// Call after every journaled mutating operation: counts toward the
  /// checkpoint_every cycle and checkpoints when it is due.
  void on_operation();

  /// Snapshot now at the journal's LSN and rotate the journal there
  /// (no-op for in-memory tenants). \throws PersistError on IO failure
  /// — the caller decides whether that degrades or kills serving.
  void checkpoint();

  /// fdatasync the journal now (the SIGTERM drain path). No-op for
  /// in-memory tenants.
  void flush();

  // ------------------------------------------- failure domain
  // A PersistError from this tenant's journal/checkpoint quarantines
  // *this tenant only*: its journal handle is dropped (it may be
  // poisoned), mutating ops are answered Unavailable by the server,
  // and a background re-probe periodically attempts a full recovery
  // from the on-disk artifacts. Other tenants keep serving.

  [[nodiscard]] bool quarantined() const noexcept { return quarantined_; }
  /// False when the quarantining error was fatal (corrupt artifacts) —
  /// re-probing cannot help; the tenant stays dark until an operator
  /// repairs or removes the files.
  [[nodiscard]] bool quarantine_retryable() const noexcept {
    return quarantine_retryable_;
  }
  [[nodiscard]] const std::string& quarantine_reason() const noexcept {
    return quarantine_reason_;
  }

  /// Enter quarantine: detach + drop the journal handle, remember the
  /// error. Idempotent.
  void quarantine(const persist::PersistError& e);

  /// One recovery probe: discard in-memory state and rebuild everything
  /// from the on-disk artifacts — dedup sidecar, snapshot, full journal
  /// replay (rebuilding the dedup window from ClientMark records), then
  /// reopen the journal for append. A *full* pass on purpose: a failed
  /// fsync may have left an operation journaled-but-not-executed, so
  /// memory must be re-derived from disk, not patched. Returns true and
  /// clears the quarantine on success; on failure stays quarantined
  /// (updating retryability from the new error) and returns false.
  [[nodiscard]] bool try_recover();

  // ------------------------------------------- exactly-once dedup
  // The server journals a ClientMark record naming (client, request_id)
  // immediately before the operation record it annotates, and caches
  // the encoded response after applying. A resent request (lost reply,
  // reconnect, server restart) is answered from the cache — never
  // applied twice. Request ids must be issued monotonically per client
  // (the client library does), starting at 1.

  /// Session epoch: a random nonce minted when this Tenant object was
  /// created. A retrying client that sees it change across reconnects
  /// knows the server restarted (and recovered from disk).
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }

  /// Highest request id applied for `client` (0 = never seen).
  [[nodiscard]] std::uint64_t highest_applied(
      const std::string& client) const noexcept;

  enum class DedupResult : std::uint8_t {
    Miss,     ///< new request — execute it
    Hit,      ///< already applied; *out points at the cached response
    Evicted,  ///< applied, but the response fell off the window
  };
  [[nodiscard]] DedupResult dedup_lookup(
      const std::string& client, std::uint64_t request_id,
      const std::vector<std::uint8_t>** out) const noexcept;

  /// Journal the (client, request_id, flags) mark ahead of the
  /// operation record. No-op for in-memory tenants (their window is
  /// process-local). \throws PersistError — the op must NOT run then.
  void append_mark(const std::string& client, std::uint64_t request_id,
                   std::uint8_t flags);

  /// Cache an applied operation's encoded response payload and advance
  /// highest_applied. Idempotent: ids at or below highest_applied are
  /// ignored (the recovery replay may revisit sidecar-covered records).
  void record_applied(const std::string& client, std::uint64_t request_id,
                      std::vector<std::uint8_t> response);

  // ------------------------------------------- standby replica
  // A standby tenant mirrors a primary record-for-record: every shipped
  // journal payload is appended verbatim to the local WAL (the two
  // files stay byte-identical) and then applied through the same
  // replay path recovery uses, with a persistent dedup-rebuild observer
  // so ClientMark records carry the exactly-once windows across
  // failover. Replication piggybacks on replay determinism: the
  // follower's resident set, TaskIds, headers and stats match the
  // primary bit for bit, which the digest exchange verifies.

  [[nodiscard]] bool standby() const noexcept { return standby_; }
  /// True once the state came from a snapshot: this tenant's own on
  /// disk, or a primary's seed. The journal records operations, not the
  /// options they run under, so a standby without one answers
  /// REPL_HELLO with kReplNeedSnapshot and applies no record until the
  /// seed arrives.
  [[nodiscard]] bool seeded() const noexcept { return seeded_; }
  /// Next record LSN apply_replicated() expects (== primary journal
  /// LSNs already applied).
  [[nodiscard]] std::uint64_t replica_lsn() const noexcept {
    return repl_lsn_;
  }

  /// Append one shipped record to the local WAL (durability first),
  /// then replay it into the controller. Counts non-mark records
  /// toward the checkpoint cycle so a long-lived follower's footprint
  /// stays bounded. \throws PersistError on WAL append failure (the
  /// caller quarantines), std::out_of_range on an undecodable record.
  void apply_replicated(std::span<const std::uint8_t> payload);

  /// Discard all state and re-seed from a primary checkpoint: write
  /// the snapshot container + dedup sidecar bytes as this tenant's own
  /// artifacts, load them, and restart the WAL empty at base `lsn`.
  /// Clears divergence *and* quarantine — the seed replaces whatever
  /// was broken. \pre snapshot_bytes is nonempty. \throws PersistError
  void seed_from(std::span<const std::uint8_t> snapshot_bytes,
                 std::span<const std::uint8_t> dedup_bytes,
                 std::uint64_t lsn);

  /// Flip follower -> serving primary: attach the controller to the
  /// WAL it has been mirroring and mint a fresh session epoch (clients
  /// see the epoch change and resync their dedup expectations). The
  /// server refuses to promote diverged tenants; this trusts it.
  void promote();

  /// A digest check failed: refuse apply_replicated()/promote() until
  /// seed_from() replaces the state. Divergence is a hard fault — a
  /// follower that cannot prove bit-identity must never serve.
  void mark_diverged(std::string reason);
  [[nodiscard]] bool diverged() const noexcept { return diverged_; }
  [[nodiscard]] const std::string& diverged_reason() const noexcept {
    return diverged_reason_;
  }

 private:
  struct ClientSession {
    std::uint64_t highest_applied = 0;
    /// (request_id, encoded response payload), oldest first.
    std::deque<std::pair<std::uint64_t, std::vector<std::uint8_t>>> window;
  };

  /// Recover + dedup rebuild + journal open — the shared body of the
  /// constructor and try_recover(). \throws PersistError
  void open_artifacts();
  /// checkpoint() when this primary tenant has no snapshot on disk.
  /// The journal records operations, not the options they run under,
  /// so a durable primary snapshots before its first record: recovery
  /// and edfkit_fsck then always read the options from disk. A standby
  /// takes its snapshot from the primary's seed instead.
  /// \throws PersistError
  void checkpoint_if_unsaved();
  /// Persist the dedup sessions to the sidecar (<dir>/<name>.dedup) at
  /// journal LSN `lsn`. Written *before* the snapshot in checkpoint():
  /// if the snapshot then fails, marks in [sidecar_lsn, snapshot_lsn)
  /// are still replayed (idempotently); the reverse order could lose
  /// them — neither in the sidecar nor replayed.
  void save_dedup(std::uint64_t lsn) const;
  void load_dedup();
  /// Parse a dedup sidecar container into sessions_ (the shared body
  /// of load_dedup() and seed_from()).
  void load_dedup_bytes(std::vector<std::uint8_t> bytes);

  std::string name_;
  AdmissionController ctl_;
  std::optional<persist::Journal> journal_;
  std::string snapshot_path_;
  std::string journal_path_;
  std::string dedup_path_;
  persist::FsyncPolicy fsync_ = persist::FsyncPolicy::None;
  std::uint64_t fsync_interval_ = 64;
  obs::Obs* obs_ = nullptr;
  std::size_t checkpoint_every_ = 0;
  std::size_t ops_since_checkpoint_ = 0;
  std::size_t dedup_window_ = 128;
  std::uint64_t epoch_ = 0;
  std::map<std::string, ClientSession> sessions_;
  bool quarantined_ = false;
  bool quarantine_retryable_ = true;
  std::string quarantine_reason_;
  bool standby_ = false;
  bool seeded_ = false;
  std::uint64_t repl_lsn_ = 0;
  bool diverged_ = false;
  std::string diverged_reason_;
  /// Persistent dedup-window rebuilder fed by apply_replicated() (the
  /// same observer class recovery uses, kept armed across records so a
  /// ClientMark and its operation may arrive in different batches).
  std::unique_ptr<ReplayObserver> standby_rebuild_;
};

/// Build the wire response for an applied mutating operation. Shared
/// by the serving path (net/server.cpp) and the recovery replay's
/// dedup-window rebuild, so a cached retry answer is bit-identical to
/// the response originally sent. `flags` are the *request* flags (the
/// ClientMark record carries them for replay).
[[nodiscard]] NetResponse make_admit_response(std::uint64_t request_id,
                                              std::uint8_t flags,
                                              const AdmissionDecision& d);
[[nodiscard]] NetResponse make_admit_group_response(std::uint64_t request_id,
                                                    std::uint8_t flags,
                                                    const GroupDecision& d);
[[nodiscard]] NetResponse make_remove_response(NetOp op,
                                               std::uint64_t request_id,
                                               std::uint64_t removed);

/// True iff `name` is a safe tenant name: 1..64 chars drawn from
/// [A-Za-z0-9_-] (tenant names become file names; nothing else may).
/// Client ids (HELLO `client`) use the same rule — they are journaled
/// and persisted in the dedup sidecar.
[[nodiscard]] bool valid_tenant_name(const std::string& name) noexcept;

/// Name -> Tenant. Single-threaded, like the server's event loop.
class TenantTable {
 public:
  explicit TenantTable(TenantOptions opts, obs::Obs* obs = nullptr);

  /// Look up `name`, creating (and, when durable artifacts exist,
  /// recovering) it on first use. The fsync/certified/platform_m
  /// parameters only apply at creation (platform_m > 1 creates the
  /// tenant's controller in global admission mode; a recovered
  /// snapshot's platform wins over the parameter). \throws
  /// std::invalid_argument for invalid names or an invalid platform,
  /// PersistError when recovery finds corrupt artifacts.
  [[nodiscard]] Tenant& get_or_create(const std::string& name,
                                      persist::FsyncPolicy fsync,
                                      std::uint64_t fsync_interval,
                                      bool certified,
                                      std::uint32_t platform_m = 1);

  /// Look up only; nullptr when absent.
  [[nodiscard]] Tenant* find(const std::string& name) noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return tenants_.size(); }

  /// fdatasync every tenant journal (SIGTERM drain).
  void flush_all();

  /// Flip the standby flag for tenants created *after* this call
  /// (promotion flips existing tenants individually via promote()).
  void set_standby(bool standby) noexcept { opts_.standby = standby; }

  /// Visit every tenant in name order.
  template <typename F>
  void for_each(F&& f) {
    for (auto& [name, tenant] : tenants_) f(*tenant);
  }

 private:
  TenantOptions opts_;
  obs::Obs* obs_ = nullptr;
  std::map<std::string, std::unique_ptr<Tenant>> tenants_;
};

}  // namespace edfkit::net
