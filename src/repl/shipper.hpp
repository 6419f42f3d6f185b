/// \file shipper.hpp
/// Primary-side half of hot-standby replication: a background thread
/// that tails every tenant journal in the primary's data directory
/// (persist/tailer.hpp) and ships the records — the exact bytes the
/// primary journaled — to a standby server over the ordinary wire
/// protocol (net/protocol.hpp REPL_* ops).
///
/// Replication rides on replay determinism: the follower appends each
/// shipped record to its own WAL verbatim and replays it through the
/// same recovery path a restart uses, so its resident set, TaskIds,
/// headers, stats and dedup windows stay bit-identical to the
/// primary's. The shipper never touches the serving thread's state —
/// its only inputs are the on-disk journals (read via its own fds) and
/// the digest queue the server pushes into — so the primary's hot path
/// pays nothing for an attached standby beyond the page-cache reads.
///
/// Ship protocol per tenant:
///   REPL_HELLO       — open the follower tenant, learn its applied
///                      LSN; the tailer resumes there.
///   REPL_APPEND      — a batch of consecutive records from that LSN,
///                      optionally carrying a store digest the follower
///                      verifies when its applied LSN reaches the
///                      digest's (a 0-record append is a pure check).
///   REPL_SNAPSHOT    — (re-)seed: the primary's snapshot container +
///                      dedup sidecar, sent when the follower needs one
///                      (kReplNeedSnapshot: a follower tenant that has
///                      loaded no snapshot yet — the journal does not
///                      carry the tenant's options — or one behind a
///                      rotated journal) or reports divergence
///                      (kReplDiverged: a digest mismatch — hard fault,
///                      full re-seed).
///
/// Durability model: acks are asynchronous — an admitted operation is
/// acked to the client when the *primary* journals it, and reaches the
/// standby within the shipping lag (repl_lag_records gauges it).
/// Combined with exactly-once client retry (the dedup windows ship in
/// ClientMark records and snapshot sidecars), a failover client that
/// re-drives its unacknowledged ids observes each operation applied
/// exactly once. A synchronous-ack durability class is a ROADMAP
/// follow-on.
///
/// Transport failures never bubble: the shipper closes, backs off, and
/// re-handshakes every tenant on reconnect (REPL_HELLO is idempotent).
/// A tenant whose journal turns out corrupt is disabled and counted
/// (repl_ship_errors_total) rather than poisoning the others.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "net/client.hpp"
#include "persist/journal.hpp"
#include "persist/tailer.hpp"

namespace edfkit::obs {
class Obs;
struct ReplInstruments;
}  // namespace edfkit::obs

namespace edfkit::repl {

struct ShipperOptions {
  /// Standby address.
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// The primary's data directory; every <name>.wal in it is tailed.
  std::string data_dir;
  /// Durability class the follower opens tenants with (REPL_HELLO) —
  /// the server's defaults; per-tenant classes negotiated by client
  /// HELLOs are not mirrored (the follower's WAL bytes are identical
  /// either way, only its fsync cadence differs).
  persist::FsyncPolicy fsync = persist::FsyncPolicy::None;
  std::uint64_t fsync_interval = 64;
  /// Batch bounds per REPL_APPEND (both respected; the frame limit
  /// kMaxFrameBytes is the hard ceiling behind max_batch_bytes).
  std::size_t max_batch_records = 128;
  std::size_t max_batch_bytes = 256 * 1024;
  /// Idle sleep between passes when every tenant is caught up, and the
  /// reconnect backoff after a transport failure.
  std::uint64_t poll_interval_ms = 5;
  std::uint64_t reconnect_backoff_ms = 100;
  /// Socket deadlines for the replication connection.
  std::uint64_t connect_timeout_ms = 1000;
  std::uint64_t io_timeout_ms = 5000;
};

class Shipper {
 public:
  explicit Shipper(ShipperOptions opts, obs::Obs* obs = nullptr);
  Shipper(const Shipper&) = delete;
  Shipper& operator=(const Shipper&) = delete;
  /// stop()s.
  ~Shipper();

  /// Launch the shipping thread. Idempotent.
  void start();
  /// Signal + join. Idempotent; safe to call with start() never run.
  void stop();

  /// Queue a store digest for verification on the follower, taken by
  /// the serving thread at journal LSN `lsn`. Attached to the
  /// REPL_APPEND whose batch reaches that LSN (or shipped as a
  /// 0-record pure check when the follower is already there).
  /// Thread-safe; bounded — when the queue is full the oldest digest
  /// is dropped (a newer one supersedes it).
  void push_digest(const std::string& tenant, std::uint64_t lsn,
                   std::uint32_t digest);

  /// Highest follower-acked LSN for `tenant` (0 = not yet shipped).
  /// Thread-safe (tests poll this to wait for catch-up).
  [[nodiscard]] std::uint64_t acked_lsn(const std::string& tenant) const;

  /// Transport/ship errors so far (mirrors repl_ship_errors_total).
  [[nodiscard]] std::uint64_t errors() const;

 private:
  struct TenantShip {
    std::string name;
    std::string wal_path;
    std::unique_ptr<persist::JournalTailer> tailer;
    std::uint64_t acked = 0;
    bool hello_done = false;
    /// The journal was unreadable (corruption) — disabled until
    /// process restart; other tenants keep replicating.
    bool dead = false;
    /// Digests waiting for the batch that reaches their LSN.
    std::deque<std::pair<std::uint64_t, std::uint32_t>> digests;
  };

  void run();
  void discover_tenants();
  /// One shipping pass over `t`. Returns true when progress was made
  /// (records shipped or a digest checked) — the loop idles only when
  /// every tenant returns false. \throws on transport failure (the
  /// loop reconnects) and persist::PersistError (the tenant dies).
  bool ship_tenant(TenantShip& t);
  void handshake(TenantShip& t);
  /// Read the tenant's snapshot + dedup artifacts and REPL_SNAPSHOT
  /// them; repositions the tailer at the seeded LSN. Returns false,
  /// sending nothing, while the tenant has no snapshot yet: the next
  /// pass handshakes again.
  bool seed_tenant(TenantShip& t);
  void note_ack(const TenantShip& t);

  ShipperOptions opts_;
  obs::ReplInstruments* ins_ = nullptr;
  net::Client conn_;
  std::map<std::string, TenantShip> tenants_;
  std::uint64_t next_request_id_ = 1;

  std::thread thread_;
  std::atomic<bool> stop_{false};
  bool started_ = false;

  mutable std::mutex mu_;
  /// Digests pushed by the serving thread, drained into per-tenant
  /// queues by the shipping thread.
  std::deque<std::tuple<std::string, std::uint64_t, std::uint32_t>>
      pending_digests_;
  /// Shipping-thread progress published for readers.
  std::map<std::string, std::uint64_t> acked_;
  std::uint64_t errors_ = 0;
};

}  // namespace edfkit::repl
