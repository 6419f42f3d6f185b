/// \file admission_server.cpp
/// Admission as a network service: a net::Server epoll event loop
/// serving the binary wire protocol (net/protocol.hpp) to remote
/// clients, one AdmissionController per tenant, with per-tenant
/// durability and load-shedding backpressure.
///
///   ./admission_server [--port 7433] [--bind 127.0.0.1]
///                      [--data-dir DIR] [--checkpoint-every 4096]
///                      [--epsilon 0.1] [--skip-exact]
///                      [--max-pending 1024] [--max-residents 0]
///                      [--util-headroom 1.0] [--retry-after-ms 50]
///                      [--idle-timeout-ms 0] [--max-connections 256]
///                      [--reprobe-interval-ms 200]
///                      [--metrics-dump] [--trace-out flight.json]
///                      [--trace-capacity 512]
///                      [--replicate-to HOST:PORT]
///                      [--digest-interval-ms 250]
///                      [--standby] [--promote-on-signal]
///
/// Tenants are created on first HELLO; with --data-dir each tenant gets
/// its own snapshot + write-ahead journal under that directory and is
/// recovered from disk on first HELLO after a restart (client-held
/// TaskIds stay valid — controller replay is bit-identical). With
/// --checkpoint-every N each tenant snapshots and rotates its journal
/// every N journaled operations, bounding on-disk state.
///
/// Backpressure: --max-pending / --max-residents / --util-headroom
/// drive the shed policy (net/shed.hpp) — admits past the limits are
/// answered Shed with --retry-after-ms, without running the ladder.
/// --util-headroom is a fraction of each tenant's platform capacity: a
/// tenant on m processors (HELLO platform_m) is shed from utilization
/// headroom * m on; 1.0 disables it.
///
/// Shutdown: SIGTERM (or SIGINT) stops the loop at the next tick
/// boundary, drains — fdatasyncs every tenant journal — then runs the
/// admission invariant (a full re-check of every tenant's resident set
/// on its own platform: the exact test on one processor, the global
/// ladder on m > 1) and emits the final metrics dump. SIGUSR1
/// dumps the metrics registry (Prometheus text format) to stderr
/// mid-run, serviced on the loop thread between ticks so the export
/// never runs in signal context.
///
/// Fault injection: the EDFKIT_FAULTS environment spec (src/fault)
/// arms persist/server failpoints at startup — the chaos CI job runs
/// this binary under fsync flaps, snapshot rename failures, and random
/// short writes. Armed points are announced on stdout, and the metrics
/// dumps append per-point hit/fire counters.
///
/// Replication (src/repl): --replicate-to HOST:PORT attaches a journal
/// shipper that streams every tenant's WAL to a standby server started
/// with --standby (which answers client mutations Unavailable until
/// promoted). --promote-on-signal makes SIGUSR2 promote a standby to
/// serving primary (refused while any tenant is diverged); the failover
/// CI job kills the primary, SIGUSR2s the standby, and lets clients
/// fail over.
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "fault/fault.hpp"
#include "net/server.hpp"
#include "obs/obs.hpp"
#include "repl/shipper.hpp"
#include "util/cli.hpp"

namespace {

using namespace edfkit;

/// SIGTERM/SIGINT stop the loop; the drain happens on the main thread.
std::atomic<bool> g_stop{false};
/// stop() is async-signal-safe (one eventfd write), so the handler may
/// call it directly — that is what wakes a loop parked in epoll_wait.
net::Server* g_server = nullptr;

void on_sigterm(int) {
  g_stop.store(true, std::memory_order_relaxed);
  if (g_server != nullptr) g_server->stop();
}

/// SIGUSR1 requests a metrics dump; the handler only sets a flag — the
/// loop thread does the (allocating, non-async-signal-safe) export.
std::atomic<bool> g_dump{false};

void on_sigusr1(int) { g_dump.store(true, std::memory_order_relaxed); }

/// SIGUSR2 (with --promote-on-signal) requests standby promotion; like
/// the dump it only sets a flag — the loop thread runs promote().
std::atomic<bool> g_promote{false};

void on_sigusr2(int) { g_promote.store(true, std::memory_order_relaxed); }

/// Split "host:port" (last colon wins, so bare IPv4/hostnames only).
/// \throws std::runtime_error on a malformed spec.
std::pair<std::string, std::uint16_t> parse_host_port(
    const std::string& spec) {
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= spec.size()) {
    throw std::runtime_error("expected HOST:PORT, got '" + spec + "'");
  }
  const unsigned long port = std::stoul(spec.substr(colon + 1));
  if (port == 0 || port > 65535) {
    throw std::runtime_error("port out of range in '" + spec + "'");
  }
  return {spec.substr(0, colon), static_cast<std::uint16_t>(port)};
}

/// Append the failpoint hit/fire counters to a metrics dump — the
/// chaos harness reconciles fires against quarantine/retry metrics.
void dump_fault_counters(std::FILE* out) {
  for (const fault::FailPoint* fp : fault::list()) {
    if (fp->hits() == 0 && !fp->armed()) continue;
    std::fprintf(out, "edfkit_fault_hits_total{point=\"%s\"} %llu\n",
                 fp->name().c_str(),
                 static_cast<unsigned long long>(fp->hits()));
    std::fprintf(out, "edfkit_fault_fires_total{point=\"%s\"} %llu\n",
                 fp->name().c_str(),
                 static_cast<unsigned long long>(fp->fires()));
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliFlags flags(argc, argv);

    net::ServerOptions opts;
    opts.bind_address = flags.get("bind", "127.0.0.1");
    opts.port = static_cast<std::uint16_t>(flags.get_int("port", 7433));
    opts.max_connections =
        static_cast<std::size_t>(flags.get_int("max-connections", 256));
    opts.idle_timeout_ms =
        static_cast<std::uint64_t>(flags.get_int("idle-timeout-ms", 0));
    opts.reprobe_interval_ms = static_cast<std::uint64_t>(
        flags.get_int("reprobe-interval-ms", 200));

    opts.tenants.data_dir = flags.get("data-dir", "");
    opts.tenants.checkpoint_every =
        static_cast<std::size_t>(flags.get_int("checkpoint-every", 4096));
    opts.tenants.admission.epsilon = flags.get_double("epsilon", 0.1);
    opts.tenants.admission.skip_exact = flags.get_bool("skip-exact", false);

    opts.shed.max_pending =
        static_cast<std::size_t>(flags.get_int("max-pending", 1024));
    opts.shed.max_residents =
        static_cast<std::size_t>(flags.get_int("max-residents", 0));
    opts.shed.utilization_headroom = flags.get_double("util-headroom", 1.0);
    opts.shed.retry_after_ms =
        static_cast<std::uint32_t>(flags.get_int("retry-after-ms", 50));

    opts.tenants.standby = flags.get_bool("standby", false);
    opts.digest_interval_ms = static_cast<std::uint64_t>(
        flags.get_int("digest-interval-ms", 250));
    const std::string replicate_to = flags.get("replicate-to", "");
    const bool promote_on_signal =
        flags.get_bool("promote-on-signal", false);

    const bool metrics_dump = flags.get_bool("metrics-dump", false);
    const std::string trace_out = flags.get("trace-out", "");
    obs::ObsConfig ocfg;
    ocfg.trace_capacity =
        static_cast<std::size_t>(flags.get_int("trace-capacity", 512));

    obs::Obs obs(ocfg, /*shards=*/1);
    // Chaos harnesses arm failpoints through the environment; a
    // malformed spec must abort loudly, not serve un-faulted.
    if (const char* spec = std::getenv("EDFKIT_FAULTS");
        spec != nullptr && *spec != '\0') {
      std::string err;
      if (!fault::configure(spec, &err)) {
        throw std::runtime_error("EDFKIT_FAULTS: " + err);
      }
      std::size_t armed = 0;
      for (const fault::FailPoint* fp : fault::list()) {
        armed += fp->armed() ? 1 : 0;
      }
      std::printf("fault injection: %zu failpoint(s) armed\n", armed);
    }

    // Primary-side replication: the shipper tails the same data-dir the
    // tenants journal into, so it must outlive the server (the server
    // holds only the raw pointer for digest pushes).
    std::unique_ptr<repl::Shipper> shipper;
    if (!replicate_to.empty()) {
      if (opts.tenants.data_dir.empty()) {
        throw std::runtime_error("--replicate-to requires --data-dir");
      }
      if (opts.tenants.standby) {
        throw std::runtime_error(
            "--replicate-to and --standby are mutually exclusive "
            "(multi-standby fan-out is a ROADMAP follow-on)");
      }
      const auto [rhost, rport] = parse_host_port(replicate_to);
      repl::ShipperOptions sopts;
      sopts.host = rhost;
      sopts.port = rport;
      sopts.data_dir = opts.tenants.data_dir;
      shipper = std::make_unique<repl::Shipper>(sopts, &obs);
      opts.shipper = shipper.get();
    }

    net::Server server(opts, &obs);
    g_server = &server;
    if (shipper) {
      shipper->start();
      std::printf("replicating to %s data-dir=%s\n", replicate_to.c_str(),
                  opts.tenants.data_dir.c_str());
    }

    std::signal(SIGTERM, on_sigterm);
    std::signal(SIGINT, on_sigterm);
    std::signal(SIGUSR1, on_sigusr1);
    if (promote_on_signal) std::signal(SIGUSR2, on_sigusr2);
    std::signal(SIGPIPE, SIG_IGN);  // peer resets surface as EPIPE writes

    // The resolved port on one greppable line, flushed before serving —
    // harnesses start the server with --port 0 and scrape this.
    std::printf("listening on %s:%u data-dir=%s checkpoint-every=%zu "
                "epsilon=%.3f role=%s\n",
                opts.bind_address.c_str(), server.port(),
                opts.tenants.data_dir.empty() ? "(none)"
                                              : opts.tenants.data_dir.c_str(),
                opts.tenants.checkpoint_every,
                opts.tenants.admission.epsilon,
                opts.tenants.standby ? "standby" : "primary");
    std::fflush(stdout);

    // The event loop, driven tick by tick so SIGUSR1 dumps run on this
    // thread between ticks. stop() (from the SIGTERM handler) both
    // interrupts a parked epoll_wait and sets the flag poll_once acts
    // on, so shutdown latency is one tick, not one timeout.
    while (!g_stop.load(std::memory_order_relaxed)) {
      server.poll_once(/*timeout_ms=*/100);
      if (g_dump.exchange(false, std::memory_order_relaxed)) {
        const std::string text = obs.registry().to_prometheus();
        std::fwrite(text.data(), 1, text.size(), stderr);
        dump_fault_counters(stderr);
        std::fflush(stderr);
      }
      if (g_promote.exchange(false, std::memory_order_relaxed)) {
        // Refuse while any follower tenant is diverged — a diverged
        // store serving admits would hand out wrong answers; the
        // operator re-seeds (restart the standby) instead.
        bool diverged = false;
        server.tenants().for_each([&](net::Tenant& t) {
          if (t.diverged()) {
            std::fprintf(stderr, "promote refused: tenant %s diverged: %s\n",
                         t.name().c_str(), t.diverged_reason().c_str());
            diverged = true;
          }
        });
        if (!diverged) {
          const std::uint64_t n = server.promote();
          std::printf("promoted: %llu tenant(s) now serving\n",
                      static_cast<unsigned long long>(n));
          std::fflush(stdout);
        }
      }
    }
    if (shipper) shipper->stop();

    // SIGTERM drain: every tenant journal fdatasynced while no request
    // is in flight (the loop is stopped) — a restart recovers exactly
    // the decisions clients were told about.
    server.tenants().flush_all();
    std::printf("drained: %zu tenants flushed, %zu connections open\n",
                server.tenants().size(), server.connections());

    // The admission invariant, per tenant: every resident set the
    // server built over the wire is provably feasible when analyzed
    // anew on the tenant's own platform (exact processor demand on one
    // processor, the global ladder on m > 1).
    bool invariant_ok = true;
    server.tenants().for_each([&](net::Tenant& t) {
      const FeasibilityResult r = t.controller().recheck_resident();
      const StoreHeader h = t.controller().demand_header();
      const Platform& p = t.controller().platform();
      std::printf("tenant %s: residents=%llu m=%u %s re-check: %s "
                  "journal=[%llu, %llu)\n",
                  t.name().c_str(),
                  static_cast<unsigned long long>(h.residents), p.m,
                  p.uniprocessor() ? "exact" : "global-ladder",
                  to_string(r.verdict),
                  static_cast<unsigned long long>(t.journal_base_lsn()),
                  static_cast<unsigned long long>(t.journal_lsn()));
      if (!r.feasible() && h.residents > 0) invariant_ok = false;
    });

    // Final metrics dump — the same registry SIGUSR1 exports mid-run.
    if (metrics_dump) {
      const std::string text = obs.registry().to_prometheus();
      std::fwrite(text.data(), 1, text.size(), stdout);
      dump_fault_counters(stdout);
    }
    if (!trace_out.empty()) {
      std::ofstream out(trace_out);
      if (!out) {
        throw std::runtime_error("cannot open --trace-out " + trace_out);
      }
      out << obs.recorder().to_json() << '\n';
      std::printf("flight recorder -> %s\n", trace_out.c_str());
    }

    g_server = nullptr;
    return invariant_ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
