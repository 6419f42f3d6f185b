/// \file server.hpp
/// Single-threaded epoll event loop serving the admission wire
/// protocol (net/protocol.hpp) over TCP.
///
/// Design: one thread owns everything — the listener, every
/// connection, every tenant controller. Admission decisions are
/// microseconds (the ladder settles most arrivals at rung 1/2), so a
/// single loop sustains tens of thousands of decisions per second
/// without locks, and the controllers' single-mutator contract holds
/// by construction. The loop is level-triggered and non-blocking
/// throughout: accept/read/write never block, torn frames reassemble
/// across reads in per-connection buffers, and short writes park their
/// tail in a per-connection write buffer drained on EPOLLOUT.
///
/// Per-tick batching: each poll tick drains every readable connection,
/// decodes all complete frames into one pending queue, then serves the
/// queue in order, one request at a time: every ADMIT is one try_admit.
/// The queue depth at decode time is the backpressure signal
/// (net/shed.hpp).
///
/// Failure domains: a PersistError from one tenant's journal or
/// checkpoint quarantines *that tenant* — its mutating ops answer
/// Unavailable (with a retry_after_ms hint) while STATS/PING/HELLO
/// keep working — and a background probe re-runs a full recovery every
/// reprobe_interval_ms until the fault clears. Other tenants, and the
/// event loop itself, are unaffected: no per-request exception escapes
/// serve_pending().
///
/// Exactly-once retry: a connection that HELLOs with a client id gets
/// a per-tenant dedup window — the server journals a ClientMark ahead
/// of each operation record and caches the encoded response, so a
/// resent request (lost reply, reconnect, even a server restart, via
/// journal replay) is answered from the applied result, never applied
/// twice. See net/tenant.hpp; net/client.hpp's RetryingClient is the
/// matching caller.
///
/// Shutdown: stop() is async-signal-safe (one eventfd write). The loop
/// drains on exit — flushes every tenant journal — before run()
/// returns; the caller (examples/admission_server.cpp) then dumps
/// final metrics.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/protocol.hpp"
#include "net/shed.hpp"
#include "net/tenant.hpp"

namespace edfkit::obs {
class Obs;
struct NetInstruments;
struct ReplInstruments;
}  // namespace edfkit::obs

namespace edfkit::repl {
class Shipper;
}

namespace edfkit::net {

struct ServerOptions {
  /// IPv4 address to bind. Loopback by default: the protocol carries
  /// no authentication; anything wider is a deployment's TLS/proxy
  /// problem (see ROADMAP follow-ons).
  std::string bind_address = "127.0.0.1";
  /// 0 = ephemeral; read the actual port back via port().
  std::uint16_t port = 0;
  int backlog = 64;
  std::size_t max_connections = 256;
  /// Close connections idle longer than this. 0 = never.
  std::uint64_t idle_timeout_ms = 0;
  /// Milliseconds between recovery probes of quarantined tenants (and
  /// the retry_after_ms hint Unavailable responses carry). 0 = never
  /// re-probe automatically.
  std::uint64_t reprobe_interval_ms = 200;
  /// Close a connection whose outbound buffer exceeds this (a consumer
  /// that stopped reading must not grow server memory without bound).
  std::size_t max_outbound_bytes = 4u << 20;
  TenantOptions tenants;
  ShedOptions shed;
  /// Primary side of replication: when a shipper is attached
  /// (src/repl/shipper.hpp, owned by the caller, outliving the
  /// server), the loop pushes a store digest per journaled tenant into
  /// it every digest_interval_ms — the standby verifies bit-identity
  /// within one interval of any divergence. 0 disables digests.
  repl::Shipper* shipper = nullptr;
  std::uint64_t digest_interval_ms = 250;
};

class Server {
 public:
  /// Binds and listens immediately (so port() is valid before run()).
  /// \throws std::system_error on socket failures.
  explicit Server(ServerOptions opts, obs::Obs* obs = nullptr);
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;
  ~Server();

  /// The bound port (resolves port 0).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Serve until stop(). Drains (journal flush) before returning.
  void run();

  /// One event-loop tick: wait up to `timeout_ms` for events, then
  /// drain reads, serve decoded requests, flush writes, and sweep idle
  /// connections. Returns true if any request was served. run() is
  /// this in a loop; tests drive ticks directly.
  bool poll_once(int timeout_ms);

  /// Request run() to exit. Async-signal-safe (one eventfd write).
  void stop() noexcept;

  [[nodiscard]] TenantTable& tenants() noexcept { return tenants_; }
  [[nodiscard]] std::size_t connections() const noexcept {
    return conns_.size();
  }

  /// True while this server is a replication standby
  /// (ServerOptions::tenants.standby): it applies REPL_* ops and
  /// answers every mutating client op Unavailable.
  [[nodiscard]] bool standby() const noexcept { return standby_; }

  /// Flip standby -> serving primary: every follower tenant attaches
  /// its controller to the WAL it has been mirroring and mints a fresh
  /// session epoch; later tenants are created as primaries. Returns
  /// the number of tenants promoted (0 when already a primary — the
  /// call is idempotent). The wire PROMOTE op and the server binary's
  /// promote-on-signal path both land here. Callers must check that no
  /// tenant is diverged first (the wire handler refuses; direct callers
  /// share that responsibility).
  std::uint64_t promote();

 private:
  struct Connection {
    int fd = -1;
    std::vector<std::uint8_t> rbuf;
    std::vector<std::uint8_t> wbuf;
    std::size_t woff = 0;  ///< bytes of wbuf already written
    Tenant* tenant = nullptr;
    std::string client_id;        ///< HELLO client (exactly-once dedup)
    bool want_epollout = false;   ///< EPOLLOUT currently armed
    std::uint64_t last_activity_ns = 0;
  };

  /// One decoded request awaiting service this tick.
  struct Pending {
    int fd = -1;  ///< by fd, not pointer: the conn may die mid-tick
    NetRequest req;
  };

  void accept_ready();
  void read_ready(Connection& c);
  void write_ready(Connection& c);
  void drain_frames(Connection& c);
  void serve_pending();
  void serve_one(Connection& c, const NetRequest& req,
                 std::size_t queue_depth);
  void send_response(Connection& c, const NetResponse& resp);
  /// Queue an already-encoded response payload (the dedup-cache resend
  /// path; send_response goes through here too). Enforces the outbound
  /// cap and the net.server.drop_response failpoint.
  void send_payload(Connection& c, std::span<const std::uint8_t> payload);
  /// Move the tenant into quarantine (Unavailable until a re-probe
  /// recovers it) and bump the metrics.
  void quarantine_tenant(Tenant& t, const persist::PersistError& e);
  /// The metrics half of quarantine_tenant(), also run for a new
  /// tenant that opened quarantined (its first checkpoint failed).
  void count_quarantine();
  /// Periodic try_recover() pass over quarantined tenants.
  void reprobe_quarantined();
  void close_connection(int fd);
  void update_epollout(Connection& c);
  void sweep_idle();
  /// Periodic digest push into the attached shipper (primary only).
  void push_digests();
  /// REPL_* op bodies (serve_one dispatches here; standby only).
  void serve_repl_hello(const NetRequest& req, NetResponse& resp);
  void serve_repl_append(const NetRequest& req, NetResponse& resp);
  void serve_repl_snapshot(const NetRequest& req, NetResponse& resp);

  ServerOptions opts_;
  obs::Obs* obs_ = nullptr;
  obs::NetInstruments* metrics_ = nullptr;
  obs::ReplInstruments* repl_ins_ = nullptr;
  TenantTable tenants_;
  ShedPolicy shed_;
  int epoll_fd_ = -1;
  int listen_fd_ = -1;
  int stop_fd_ = -1;  ///< eventfd; stop() writes, the loop exits
  std::uint16_t port_ = 0;
  bool stop_requested_ = false;
  bool standby_ = false;
  std::uint64_t next_reprobe_ns_ = 0;
  std::uint64_t next_digest_ns_ = 0;
  std::unordered_map<int, std::unique_ptr<Connection>> conns_;
  std::vector<Pending> pending_;
};

}  // namespace edfkit::net
