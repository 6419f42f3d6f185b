/// \file wire.hpp
/// The wire workloads: their definitions, the server process, and the
/// closed-loop client that drives it over loopback.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "check.hpp"
#include "net/client.hpp"
#include "opstream.hpp"
#include "report.hpp"

namespace perfbench {

/// Settings shared by every workload of one invocation.
struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string server_path;  ///< the admission_server binary
  std::string work_dir;     ///< working directory for journals, snapshots
  std::string spans_out;    ///< write the traced run's spans here ("" = no)
};

struct WireSpec {
  const char* name = "";
  /// One tenant per connection: two connections sharing a tenant make
  /// the decisions depend on how their requests interleave.
  std::size_t connections = 1;
  /// Requests in flight per connection (closed loop).
  std::size_t window = 4;
  /// Journaled tenants (--data-dir, HELLO durability EveryN).
  bool durable = false;
  std::uint64_t fsync_interval = 64;
  std::size_t checkpoint_every = 4096;
  bool skip_exact = true;
  std::uint32_t platform_m = 1;
  /// The server's --epsilon (its default, 0.1).
  double epsilon = 0.1;
  StreamShape stream;
  std::size_t warmup_ops = 0;  ///< untimed ops per connection
};

/// nullptr for an unknown name.
[[nodiscard]] const WireSpec* find_wire_spec(const std::string& name);
[[nodiscard]] std::vector<std::string> workload_names();

/// The twin controller options matching the server's tenant.
[[nodiscard]] edfkit::AdmissionOptions twin_options(const WireSpec& spec);

/// What one driven phase saw.
struct PhaseResult {
  std::uint64_t ops = 0;     ///< requests answered
  std::uint64_t failed = 0;  ///< answered with an error status
  std::uint64_t offered = 0;   ///< tasks offered by admit ops
  std::uint64_t admitted = 0;  ///< tasks admitted
  std::uint64_t wall_ns = 0;
  std::vector<double> latency_us;  ///< per request, send to response
  std::vector<Mark> marks;  ///< run_for: window boundaries (see report.hpp)
};

/// A closed-loop client: one thread, one connection per tenant, each
/// keeping `window` requests in flight. Every answer is logged for the
/// decision check.
class LoadClient {
 public:
  /// One connection per entry of `rngs` (see tenant_rngs()).
  LoadClient(const WireSpec& spec, const std::vector<edfkit::Rng>& rngs,
             std::uint16_t port);

  /// Send `ops[c]` more requests on connection c and wait for all.
  PhaseResult run_count(const std::vector<std::uint64_t>& ops);
  /// Timed: keep the windows full for `seconds`, then wait for the
  /// requests still in flight. The phase is cut into window_count()
  /// windows, reading the deciding process's CPU at each boundary.
  [[nodiscard]] PhaseResult run_for(
      double seconds, const std::function<std::uint64_t()>& cpu_ns);
  /// The final STATS of every tenant (nothing may be in flight).
  [[nodiscard]] std::vector<edfkit::net::NetResponse> stats();

  [[nodiscard]] std::size_t connections() const noexcept {
    return conns_.size();
  }
  [[nodiscard]] const std::vector<Answer>& log(std::size_t c) const {
    return conns_[c].log;
  }

 private:
  struct InFlight {
    std::uint64_t request_id = 0;
    edfkit::net::NetOp kind = edfkit::net::NetOp::Admit;
    std::uint64_t key = 0;
    std::size_t offered = 0;
    std::uint64_t sent_ns = 0;
  };
  struct Conn {
    Conn(edfkit::net::Client c, OpStream s)
        : client(std::move(c)), stream(std::move(s)) {}

    edfkit::net::Client client;  ///< owns the socket; HELLO and STATS
    OpStream stream;
    std::vector<std::uint8_t> rbuf;
    std::vector<std::uint8_t> wbuf;
    std::vector<InFlight> inflight;  ///< FIFO: answered in order
    std::size_t inflight_head = 0;
    std::uint64_t next_request_id = 1;
    std::uint64_t sent = 0;
    std::uint64_t limit = UINT64_MAX;  ///< run_count's cap on `sent`
    std::vector<Answer> log;
  };

  /// Fill `c`'s window unless `stop`, then write what was queued.
  void fill(Conn& c, bool stop);
  /// Read what is available and handle every complete response.
  void receive(Conn& c, PhaseResult* phase);
  /// Drive until every connection has nothing in flight and `done`
  /// says to stop sending.
  template <typename Done>
  void drive(Done done, PhaseResult* phase);

  const WireSpec& spec_;
  std::vector<Conn> conns_;
};

/// One timed run against the server binary: `setups` set-ups (spawn,
/// HELLO, warm-up fill), the last of which is timed for opt.seconds.
struct TimedWire {
  std::vector<double> setup_s;
  PhaseResult phase;
  std::uint64_t server_cpu_ns = 0;  ///< over the timed phase
  std::uint64_t steal_ticks = 0;    ///< host steal over the timed phase
  double rss_mb = 0.0;              ///< server peak RSS
  std::vector<edfkit::net::NetResponse> stats;  ///< final STATS per tenant
  std::unique_ptr<LoadClient> client;  ///< its logs; the server is gone
};

[[nodiscard]] TimedWire timed_wire(const WireSpec& spec, const RunOptions& opt,
                                   int setups);

/// Replay tenant `c`'s log through a twin fed the same stream; compare
/// every answer, then each final STATS in `stats`. Prints what differs.
[[nodiscard]] bool check_tenant(
    const WireSpec& spec, std::uint64_t seed, std::size_t c,
    const std::vector<Answer>& log,
    const std::vector<const edfkit::net::NetResponse*>& stats);

}  // namespace perfbench
