/// \file admission_client.cpp
/// Load driver and differential checker for the admission server
/// (examples/admission_server.cpp), speaking the binary wire protocol
/// through net::Client.
///
///   ./admission_client [--host 127.0.0.1] [--port 7433]
///                      [--mode load|replay|chaos]
///                      [--tenant bench] [--tenants 1]
///                      [--connections 2] [--events 2000] [--rate 0]
///                      [--seed N] [--utilization 0.9]
///                      [--group-probability 0.15]
///                      [--depart-probability 0.5]
///                      [--fsync none|record|interval]
///                      [--fsync-interval 64] [--certify]
///                      [--platform-m 1]
///                      [--epsilon 0.1] [--skip-exact]
///                      [--gate-p99-us 0] [--expect-no-shed]
///                      [--client chaos] [--retry-timeout-ms 1000]
///                      [--retry-attempts 50]
///                      [--failover-to HOST:PORT[,HOST:PORT...]]
///
/// Any other flag is refused by name with exit 2 (every mode accepts
/// every flag above, and ignores those it does not use).
///
/// `--mode load` — open-loop benchmark: each connection (one thread
/// each) replays its own deterministic churn trace (gen/scenario §5
/// workload) over the socket, paced so the fleet offers --rate events
/// per second total (0 = as fast as the server answers). Send times
/// follow the schedule, not the responses: a slow answer does not slow
/// the offered load, it shows up as latency (open-loop with catch-up).
/// The run reports per-request latency p50/p99/p999, the decision mix
/// (admitted/rejected/shed), and throughput; --gate-p99-us and
/// --expect-no-shed turn the report into a CI gate (exit 1 on breach).
///
/// `--mode replay` — the end-to-end differential: one connection
/// replays a churn trace over the socket while an in-process twin
/// AdmissionController (same options, same trace) replays it locally,
/// comparing every decision — admitted, TaskIds, settling rung,
/// verdict, removal counts — and the final STATS header (epoch
/// excluded: recovery restarts epochs) plus stats JSON. Any divergence
/// prints both sides and exits 1. Because controller replay is
/// bit-identical, this holds even when the server is killed and
/// restarted (with --data-dir) mid-trace: client ids stay valid across
/// the reconnect. With --certify, every admit response's certificate is
/// re-verified client-side against the twin's resident set — the
/// client checks the server's proof without trusting the server.
///
/// `--mode chaos` — the replay differential through a RetryingClient
/// (net/client.hpp) with a stable client id: every transport failure —
/// dropped responses (fault-injected or real), connection resets,
/// server kills and restarts, tenant quarantines — is retried under
/// the original request id, and the server's exactly-once dedup window
/// answers resends from the applied result. The twin comparison is the
/// same as replay, so the gate it proves is stronger: decisions stay
/// bit-identical even when the harness is actively killing the server
/// (the chaos CI job runs exactly this under an EDFKIT_FAULTS matrix
/// plus a kill -9 loop). --retry-timeout-ms bounds each attempt's
/// receive wait; the final line reports retries / reconnects /
/// observed restarts for the harness to reconcile against server
/// metrics.
///
/// With --failover-to, chaos mode is also the failover differential:
/// the RetryingClient walks the endpoint list when the primary dies,
/// and because replication acks are asynchronous (src/repl/shipper.hpp)
/// the driver keeps a sliding window of acked (id, request, response)
/// triples — on every reconnect it compares the endpoint's
/// highest_applied watermark against its own last acked id and
/// re-drives the gap under the original ids, in order, before the
/// in-flight request (RetryingClient's on_reconnect hook guarantees
/// the ordering). Each re-driven answer must match the answer the dead
/// primary gave — determinism makes that exact — so the run proves
/// zero lost acked ops and zero double-applies across a kill -9 +
/// promote.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "admission/controller.hpp"
#include "admission/replay.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "query/certificate.hpp"
#include "util/cli.hpp"
#include "util/random.hpp"

namespace {

using namespace edfkit;
using Clock = std::chrono::steady_clock;

struct ClientConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 7433;
  std::string tenant = "bench";
  std::size_t tenants = 1;
  std::size_t connections = 2;
  std::uint64_t seed = 20050307;
  double rate = 0.0;  ///< total events/sec across connections; 0 = max
  persist::FsyncPolicy fsync = persist::FsyncPolicy::None;
  std::uint64_t fsync_interval = 64;
  bool certify = false;
  /// HELLO platform_m: 1 = uniprocessor ladder, > 1 = global admission
  /// mode over m processors (protocol v2).
  std::uint32_t platform_m = 1;
  ChurnConfig churn;
  AdmissionOptions twin;  ///< replay-mode twin controller options
};

/// Parse a comma-separated HOST:PORT list (--failover-to).
std::vector<net::Endpoint> parse_endpoints(const std::string& spec) {
  std::vector<net::Endpoint> out;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string one = spec.substr(pos, comma - pos);
    const std::size_t colon = one.rfind(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 >= one.size()) {
      throw std::invalid_argument("--failover-to: expected HOST:PORT, got '" +
                                  one + "'");
    }
    const unsigned long port = std::stoul(one.substr(colon + 1));
    if (port == 0 || port > 65535) {
      throw std::invalid_argument("--failover-to: port out of range in '" +
                                  one + "'");
    }
    out.push_back({one.substr(0, colon), static_cast<std::uint16_t>(port)});
    pos = comma + 1;
  }
  return out;
}

persist::FsyncPolicy parse_fsync(const std::string& s) {
  if (s == "none") return persist::FsyncPolicy::None;
  if (s == "record") return persist::FsyncPolicy::EveryRecord;
  if (s == "interval") return persist::FsyncPolicy::EveryN;
  throw std::invalid_argument("unknown --fsync '" + s +
                              "' (none|record|interval)");
}

std::uint8_t hello_flags(const ClientConfig& cfg) {
  return cfg.certify ? net::kFlagCertifiedTenant : 0;
}

net::NetRequest request_for(const TraceEvent& ev,
                            const std::vector<TaskId>& depart_ids,
                            bool want_certificate) {
  net::NetRequest req;
  switch (ev.op) {
    case TraceOp::Arrive:
      req.hdr.op = static_cast<std::uint8_t>(net::NetOp::Admit);
      req.task = ev.task;
      if (want_certificate) req.hdr.flags |= net::kFlagWantCertificate;
      break;
    case TraceOp::ArriveGroup:
      req.hdr.op = static_cast<std::uint8_t>(net::NetOp::AdmitGroup);
      req.group = ev.group;
      if (want_certificate) req.hdr.flags |= net::kFlagWantCertificate;
      break;
    case TraceOp::Depart:
      req.hdr.op = static_cast<std::uint8_t>(net::NetOp::RemoveGroup);
      req.ids = depart_ids;
      break;
    case TraceOp::Crash:
      break;  // not a wire op; callers skip it
  }
  return req;
}

// ------------------------------------------------------------- load

struct LoadResult {
  std::vector<std::uint64_t> latency_ns;
  std::uint64_t ok = 0;
  std::uint64_t rejected = 0;
  std::uint64_t shed = 0;
  std::uint64_t errors = 0;
  bool failed = false;
  std::string error;
};

/// One connection's worth of open-loop load: replay `trace` over the
/// wire, pacing sends to `interval` (catch-up, never ahead of
/// schedule), recording one round-trip latency per event.
void run_load_connection(const ClientConfig& cfg, std::string tenant,
                         std::vector<TraceEvent> trace,
                         Clock::duration interval, LoadResult* out) {
  try {
    net::Client client = net::Client::connect(cfg.host, cfg.port);
    const net::NetResponse h =
        client.hello(tenant, cfg.fsync, cfg.fsync_interval,
                     hello_flags(cfg), "", cfg.platform_m);
    if (h.hdr.status != static_cast<std::uint8_t>(net::NetStatus::Ok)) {
      throw std::runtime_error(std::string("HELLO failed: ") +
                               net::to_string(
                                   static_cast<net::NetStatus>(h.hdr.status)));
    }

    std::unordered_map<std::uint64_t, std::vector<TaskId>> resident;
    out->latency_ns.reserve(trace.size());
    const Clock::time_point start = Clock::now();
    std::size_t sent = 0;
    for (const TraceEvent& ev : trace) {
      if (ev.op == TraceOp::Crash) continue;
      std::vector<TaskId> depart_ids;
      if (ev.op == TraceOp::Depart) {
        const auto it = resident.find(ev.key);
        if (it == resident.end()) continue;  // never admitted / gone
        depart_ids = std::move(it->second);
        resident.erase(it);
      }
      if (interval.count() > 0) {
        // Open-loop schedule: event k is *offered* at start + k*dt. If
        // we are behind (a slow response), send immediately — the
        // backlog is the server's latency problem, not a rate cut.
        std::this_thread::sleep_until(start + interval * sent);
      }
      ++sent;

      const Clock::time_point t0 = Clock::now();
      const net::NetResponse resp =
          client.call(request_for(ev, depart_ids, /*want_certificate=*/false));
      out->latency_ns.push_back(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               t0)
              .count()));

      switch (static_cast<net::NetStatus>(resp.hdr.status)) {
        case net::NetStatus::Ok:
          ++out->ok;
          if (ev.op == TraceOp::Arrive) {
            resident.emplace(ev.key, std::vector<TaskId>{resp.id});
          } else if (ev.op == TraceOp::ArriveGroup) {
            resident.emplace(ev.key, resp.ids);
          }
          break;
        case net::NetStatus::Rejected:
          ++out->rejected;
          break;
        case net::NetStatus::Shed:
          ++out->shed;
          break;
        default:
          ++out->errors;
          break;
      }
    }
  } catch (const std::exception& e) {
    out->failed = true;
    out->error = e.what();
  }
}

std::uint64_t percentile_ns(std::vector<std::uint64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

int run_load(const ClientConfig& cfg, std::uint64_t gate_p99_us,
             bool expect_no_shed) {
  Rng rng(cfg.seed);
  std::vector<LoadResult> results(cfg.connections);
  const Clock::duration interval =
      cfg.rate > 0.0
          ? std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(
                    static_cast<double>(cfg.connections) / cfg.rate))
          : Clock::duration::zero();

  const Clock::time_point start = Clock::now();
  {
    std::vector<std::thread> threads;
    threads.reserve(cfg.connections);
    for (std::size_t c = 0; c < cfg.connections; ++c) {
      Rng child = rng.fork();
      std::vector<TraceEvent> trace = generate_churn_trace(child, cfg.churn);
      std::string tenant =
          cfg.tenants <= 1
              ? cfg.tenant
              : cfg.tenant + "-" + std::to_string(c % cfg.tenants);
      threads.emplace_back(run_load_connection, std::cref(cfg),
                           std::move(tenant), std::move(trace), interval,
                           &results[c]);
    }
    for (std::thread& t : threads) t.join();
  }
  const double secs =
      std::chrono::duration<double>(Clock::now() - start).count();

  std::vector<std::uint64_t> all;
  std::uint64_t ok = 0, rejected = 0, shed = 0, errors = 0;
  for (const LoadResult& r : results) {
    if (r.failed) {
      std::fprintf(stderr, "connection failed: %s\n", r.error.c_str());
      return 2;
    }
    all.insert(all.end(), r.latency_ns.begin(), r.latency_ns.end());
    ok += r.ok;
    rejected += r.rejected;
    shed += r.shed;
    errors += r.errors;
  }
  std::sort(all.begin(), all.end());

  const double us = 1e-3;
  const std::uint64_t p50 = percentile_ns(all, 0.50);
  const std::uint64_t p99 = percentile_ns(all, 0.99);
  const std::uint64_t p999 = percentile_ns(all, 0.999);
  std::printf("%zu connections x %zu events, %s\n", cfg.connections,
              cfg.churn.events,
              cfg.rate > 0.0
                  ? (std::to_string(cfg.rate) + " events/sec offered").c_str()
                  : "unpaced (closed-loop max)");
  std::printf("served %zu requests in %.3fs -> %.0f req/sec\n", all.size(),
              secs, static_cast<double>(all.size()) / secs);
  std::printf("latency: p50=%.1fus p99=%.1fus p999=%.1fus max=%.1fus\n",
              static_cast<double>(p50) * us, static_cast<double>(p99) * us,
              static_cast<double>(p999) * us,
              all.empty() ? 0.0 : static_cast<double>(all.back()) * us);
  std::printf("decisions: ok=%llu rejected=%llu shed=%llu errors=%llu\n",
              static_cast<unsigned long long>(ok),
              static_cast<unsigned long long>(rejected),
              static_cast<unsigned long long>(shed),
              static_cast<unsigned long long>(errors));

  bool pass = errors == 0;
  if (gate_p99_us != 0 && p99 > gate_p99_us * 1000) {
    std::fprintf(stderr, "GATE: p99 %.1fus exceeds --gate-p99-us %llu\n",
                 static_cast<double>(p99) * us,
                 static_cast<unsigned long long>(gate_p99_us));
    pass = false;
  }
  if (expect_no_shed && shed != 0) {
    std::fprintf(stderr,
                 "GATE: %llu requests shed under --expect-no-shed\n",
                 static_cast<unsigned long long>(shed));
    pass = false;
  }
  return pass ? 0 : 1;
}

// ----------------------------------------------------------- replay

/// Reconnect loop for the kill+recover differential: the server may be
/// down for a moment between SIGTERM and restart.
net::Client connect_with_retry(const ClientConfig& cfg, int budget_ms) {
  for (int waited = 0;; waited += 50) {
    try {
      return net::Client::connect(cfg.host, cfg.port);
    } catch (const std::exception&) {
      if (waited >= budget_ms) throw;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
}

int run_replay(const ClientConfig& cfg) {
  Rng rng(cfg.seed);
  const std::vector<TraceEvent> trace = generate_churn_trace(rng, cfg.churn);

  AdmissionOptions twin_opts = cfg.twin;
  twin_opts.return_certificate = cfg.certify;
  AdmissionController twin(twin_opts);

  net::Client client = connect_with_retry(cfg, /*budget_ms=*/5000);
  net::NetResponse h =
      client.hello(cfg.tenant, cfg.fsync, cfg.fsync_interval,
                   hello_flags(cfg), "", cfg.platform_m);
  if (h.hdr.status != static_cast<std::uint8_t>(net::NetStatus::Ok)) {
    std::fprintf(stderr, "HELLO failed: %s\n",
                 net::to_string(static_cast<net::NetStatus>(h.hdr.status)));
    return 2;
  }

  std::unordered_map<std::uint64_t, std::vector<TaskId>> wire_resident;
  std::unordered_map<std::uint64_t, std::vector<TaskId>> twin_resident;
  std::uint64_t mismatches = 0;
  std::uint64_t verified = 0;
  const auto diverge = [&](std::size_t i, const std::string& what) {
    std::fprintf(stderr, "DIVERGENCE at event %zu: %s\n", i, what.c_str());
    ++mismatches;
  };

  for (std::size_t i = 0; i < trace.size(); ++i) {
    const TraceEvent& ev = trace[i];
    if (ev.op == TraceOp::Crash) continue;

    std::vector<TaskId> depart_ids;
    if (ev.op == TraceOp::Depart) {
      const auto it = wire_resident.find(ev.key);
      if (it == wire_resident.end()) {
        if (twin_resident.count(ev.key) != 0) {
          diverge(i, "key resident in twin but not over the wire");
        }
        continue;
      }
      depart_ids = std::move(it->second);
      wire_resident.erase(it);
    }

    // The wire side. If the server went away (kill+recover harness),
    // reconnect, re-HELLO the same tenant — which recovers it from its
    // snapshot + journal — and resend this event: nothing of it was
    // served (the differential harness only kills between round trips).
    net::NetResponse resp;
    try {
      resp = client.call(request_for(ev, depart_ids, cfg.certify));
    } catch (const std::exception& e) {
      std::fprintf(stderr,
                   "event %zu: connection lost (%s); reconnecting\n", i,
                   e.what());
      client = connect_with_retry(cfg, /*budget_ms=*/10000);
      h = client.hello(cfg.tenant, cfg.fsync, cfg.fsync_interval,
                       hello_flags(cfg), "", cfg.platform_m);
      if (h.hdr.status != static_cast<std::uint8_t>(net::NetStatus::Ok)) {
        std::fprintf(stderr, "re-HELLO failed\n");
        return 2;
      }
      std::printf("reconnected: tenant journal [%llu, %llu)\n",
                  static_cast<unsigned long long>(h.base_lsn),
                  static_cast<unsigned long long>(h.lsn));
      resp = client.call(request_for(ev, depart_ids, cfg.certify));
    }
    const auto status = static_cast<net::NetStatus>(resp.hdr.status);
    if (status != net::NetStatus::Ok && status != net::NetStatus::Rejected) {
      diverge(i, std::string("unexpected status ") + net::to_string(status));
      continue;
    }
    const bool wire_admitted = status == net::NetStatus::Ok;

    // The in-process twin, and the comparison.
    switch (ev.op) {
      case TraceOp::Arrive: {
        const AdmissionDecision d = twin.try_admit(ev.task);
        if (d.admitted != wire_admitted) {
          diverge(i, "admit verdicts differ");
        } else if (d.admitted && d.id != resp.id) {
          diverge(i, "admitted TaskIds differ");
        }
        if (static_cast<std::uint8_t>(d.rung) != resp.rung) {
          diverge(i, "settling rungs differ");
        }
        if (static_cast<std::uint8_t>(d.analysis.verdict) != resp.verdict) {
          diverge(i, "verdicts differ");
        }
        if (d.admitted) {
          wire_resident.emplace(ev.key, std::vector<TaskId>{resp.id});
          twin_resident.emplace(ev.key, std::vector<TaskId>{d.id});
        }
        if (cfg.certify &&
            (resp.hdr.flags & net::kFlagHasCertificate) != 0) {
          // Round-trip verification against *our* view of the set: the
          // twin's post-decision residents (plus the rejected task for
          // an infeasibility witness).
          TaskSet view = twin.snapshot();
          if (!d.admitted) view.add(ev.task);
          if (!verify(view, resp.certificate).valid) {
            diverge(i, "server certificate failed client-side verify()");
          } else {
            ++verified;
          }
        }
        break;
      }
      case TraceOp::ArriveGroup: {
        const GroupDecision d = twin.admit_group(ev.group);
        if (d.admitted != wire_admitted) {
          diverge(i, "group verdicts differ");
        } else if (d.admitted && d.ids != resp.ids) {
          diverge(i, "group TaskIds differ");
        }
        if (static_cast<std::uint8_t>(d.rung) != resp.rung) {
          diverge(i, "group settling rungs differ");
        }
        if (d.admitted) {
          wire_resident.emplace(ev.key, resp.ids);
          twin_resident.emplace(ev.key, d.ids);
        }
        if (cfg.certify &&
            (resp.hdr.flags & net::kFlagHasCertificate) != 0) {
          TaskSet view = twin.snapshot();
          if (!d.admitted) {
            for (const Task& t : ev.group) view.add(t);
          }
          if (!verify(view, resp.certificate).valid) {
            diverge(i, "group certificate failed client-side verify()");
          } else {
            ++verified;
          }
        }
        break;
      }
      case TraceOp::Depart: {
        const auto it = twin_resident.find(ev.key);
        std::size_t removed = 0;
        if (it != twin_resident.end()) {
          removed = twin.remove_group(it->second);
          twin_resident.erase(it);
        }
        if (removed != resp.removed) diverge(i, "removal counts differ");
        break;
      }
      case TraceOp::Crash:
        break;
    }
  }

  // Final-state differential: the server's store header and stats
  // against the twin's. Epoch is excluded — recovery (and the tenant's
  // own checkpoint cycles) restart epochs without changing state.
  net::NetRequest stats_req;
  stats_req.hdr.op = static_cast<std::uint8_t>(net::NetOp::Stats);
  const net::NetResponse stats = client.call(std::move(stats_req));
  const StoreHeader a = stats.stats;
  const StoreHeader b = twin.demand_header();
  if (a.residents != b.residents || a.constrained != b.constrained ||
      a.live_checkpoints != b.live_checkpoints ||
      a.utilization != b.utilization || a.cert_ratio != b.cert_ratio) {
    std::fprintf(stderr,
                 "DIVERGENCE: final headers differ "
                 "(server %llu residents u=%.6f, twin %llu u=%.6f)\n",
                 static_cast<unsigned long long>(a.residents), a.utilization,
                 static_cast<unsigned long long>(b.residents), b.utilization);
    ++mismatches;
  }
  if (stats.stats_json != twin.stats().to_json()) {
    std::fprintf(stderr, "DIVERGENCE: stats json differs\nserver: %s\ntwin:   %s\n",
                 stats.stats_json.c_str(), twin.stats().to_json().c_str());
    ++mismatches;
  }

  std::printf("replay differential: %zu events, %llu residents, "
              "%llu certificates verified, %llu mismatches\n",
              trace.size(),
              static_cast<unsigned long long>(b.residents),
              static_cast<unsigned long long>(verified),
              static_cast<unsigned long long>(mismatches));
  return mismatches == 0 ? 0 : 1;
}

// ------------------------------------------------------------ chaos

/// The replay differential driven through RetryingClient: transport
/// failures, drops, restarts, and quarantines are absorbed by the
/// exactly-once retry path instead of the manual reconnect above, so
/// the comparison loop itself never sees them — only the counters do.
int run_chaos(const ClientConfig& cfg, const std::string& client_id,
              std::uint64_t retry_timeout_ms, std::size_t retry_attempts,
              const std::vector<net::Endpoint>& standbys) {
  Rng rng(cfg.seed);
  const std::vector<TraceEvent> trace = generate_churn_trace(rng, cfg.churn);

  AdmissionController twin(cfg.twin);

  net::RetryPolicy policy;
  policy.receive_timeout_ms = retry_timeout_ms;
  policy.send_timeout_ms = retry_timeout_ms;
  policy.connect_timeout_ms = retry_timeout_ms;
  policy.max_attempts = retry_attempts;
  policy.seed = cfg.seed;  // deterministic jitter for reproducible runs
  std::vector<net::Endpoint> endpoints{{cfg.host, cfg.port}};
  endpoints.insert(endpoints.end(), standbys.begin(), standbys.end());
  net::RetryingClient rc(std::move(endpoints), cfg.tenant, client_id, policy,
                         cfg.fsync, cfg.fsync_interval, hello_flags(cfg),
                         cfg.platform_m);

  std::unordered_map<std::uint64_t, std::vector<TaskId>> wire_resident;
  std::unordered_map<std::uint64_t, std::vector<TaskId>> twin_resident;
  std::uint64_t mismatches = 0;
  const auto diverge = [&](std::size_t i, const std::string& what) {
    std::fprintf(stderr, "DIVERGENCE at event %zu: %s\n", i, what.c_str());
    ++mismatches;
  };

  // Failover re-drive window: the last kRedriveWindow acked mutating
  // operations — id, the request as sent, the answer the server gave.
  // Asynchronous replication means a killed primary may have acked ops
  // the standby never received; the on_reconnect hook below re-sends
  // everything above the fresh endpoint's watermark under the original
  // ids (in order, ahead of the in-flight request) and checks that the
  // new endpoint gives the very same answers. Ids below the watermark
  // that we re-send anyway are answered from the dedup window, so the
  // hook is harmless on ordinary (same-server restart) reconnects.
  struct SentOp {
    std::uint64_t id = 0;
    net::NetRequest req;
    net::NetResponse expected;
  };
  constexpr std::size_t kRedriveWindow = 1024;
  std::deque<SentOp> window;
  std::uint64_t redriven = 0;
  std::uint64_t redrive_mismatches = 0;
  bool window_overrun = false;
  const auto responses_match = [](const net::NetResponse& a,
                                  const net::NetResponse& b) {
    return a.hdr.status == b.hdr.status && a.id == b.id && a.ids == b.ids &&
           a.rung == b.rung && a.verdict == b.verdict &&
           a.removed == b.removed;
  };
  rc.set_on_reconnect([&] {
    const std::uint64_t watermark = rc.highest_applied();
    if (window.empty() || window.back().id <= watermark) return;
    if (window.front().id > watermark + 1) window_overrun = true;
    for (const SentOp& op : window) {
      if (op.id <= watermark) continue;
      net::NetRequest copy = op.req;
      copy.hdr.request_id = op.id;
      const net::NetResponse got = rc.call(std::move(copy));
      ++redriven;
      if (!responses_match(op.expected, got)) {
        std::fprintf(stderr,
                     "DIVERGENCE: re-driven id %llu answered differently "
                     "after failover\n",
                     static_cast<unsigned long long>(op.id));
        ++redrive_mismatches;
      }
    }
  });

  for (std::size_t i = 0; i < trace.size(); ++i) {
    const TraceEvent& ev = trace[i];
    if (ev.op == TraceOp::Crash) continue;

    std::vector<TaskId> depart_ids;
    if (ev.op == TraceOp::Depart) {
      const auto it = wire_resident.find(ev.key);
      if (it == wire_resident.end()) {
        if (twin_resident.count(ev.key) != 0) {
          diverge(i, "key resident in twin but not over the wire");
        }
        continue;
      }
      depart_ids = std::move(it->second);
      wire_resident.erase(it);
    }

    // RetryingClient owns every failure mode here: a lost response is
    // resent under the same id and answered from the server's dedup
    // window, so the decision we compare is the one applied exactly
    // once — even across a kill -9 and journal recovery.
    const net::NetRequest req =
        request_for(ev, depart_ids, /*want_certificate=*/false);
    const net::NetResponse resp = rc.call(req);
    const auto status = static_cast<net::NetStatus>(resp.hdr.status);
    if (status == net::NetStatus::Ok || status == net::NetStatus::Rejected) {
      // An acked mutation: remember it for the failover re-drive.
      window.push_back({rc.last_request_id(), req, resp});
      if (window.size() > kRedriveWindow) window.pop_front();
    } else {
      diverge(i, std::string("unexpected status ") + net::to_string(status));
      continue;
    }
    const bool wire_admitted = status == net::NetStatus::Ok;

    switch (ev.op) {
      case TraceOp::Arrive: {
        const AdmissionDecision d = twin.try_admit(ev.task);
        if (d.admitted != wire_admitted) {
          diverge(i, "admit verdicts differ");
        } else if (d.admitted && d.id != resp.id) {
          diverge(i, "admitted TaskIds differ");
        }
        if (static_cast<std::uint8_t>(d.rung) != resp.rung) {
          diverge(i, "settling rungs differ");
        }
        if (static_cast<std::uint8_t>(d.analysis.verdict) != resp.verdict) {
          diverge(i, "verdicts differ");
        }
        if (d.admitted) {
          wire_resident.emplace(ev.key, std::vector<TaskId>{resp.id});
          twin_resident.emplace(ev.key, std::vector<TaskId>{d.id});
        }
        break;
      }
      case TraceOp::ArriveGroup: {
        const GroupDecision d = twin.admit_group(ev.group);
        if (d.admitted != wire_admitted) {
          diverge(i, "group verdicts differ");
        } else if (d.admitted && d.ids != resp.ids) {
          diverge(i, "group TaskIds differ");
        }
        if (static_cast<std::uint8_t>(d.rung) != resp.rung) {
          diverge(i, "group settling rungs differ");
        }
        if (d.admitted) {
          wire_resident.emplace(ev.key, resp.ids);
          twin_resident.emplace(ev.key, d.ids);
        }
        break;
      }
      case TraceOp::Depart: {
        const auto it = twin_resident.find(ev.key);
        std::size_t removed = 0;
        if (it != twin_resident.end()) {
          removed = twin.remove_group(it->second);
          twin_resident.erase(it);
        }
        if (removed != resp.removed) diverge(i, "removal counts differ");
        break;
      }
      case TraceOp::Crash:
        break;
    }
  }

  // Final-state differential, same shape as replay. Epoch is excluded
  // (restarts change it by design — epoch_changes() counts them).
  net::NetRequest stats_req;
  stats_req.hdr.op = static_cast<std::uint8_t>(net::NetOp::Stats);
  const net::NetResponse stats = rc.call(std::move(stats_req));
  const StoreHeader a = stats.stats;
  const StoreHeader b = twin.demand_header();
  if (a.residents != b.residents || a.constrained != b.constrained ||
      a.live_checkpoints != b.live_checkpoints ||
      a.utilization != b.utilization || a.cert_ratio != b.cert_ratio) {
    std::fprintf(stderr,
                 "DIVERGENCE: final headers differ "
                 "(server %llu residents u=%.6f, twin %llu u=%.6f)\n",
                 static_cast<unsigned long long>(a.residents), a.utilization,
                 static_cast<unsigned long long>(b.residents), b.utilization);
    ++mismatches;
  }
  if (stats.stats_json != twin.stats().to_json()) {
    std::fprintf(stderr,
                 "DIVERGENCE: stats json differs\nserver: %s\ntwin:   %s\n",
                 stats.stats_json.c_str(), twin.stats().to_json().c_str());
    ++mismatches;
  }

  if (window_overrun) {
    std::fprintf(stderr,
                 "GATE: acked operations fell off the %zu-entry re-drive "
                 "window before failover — ops lost\n",
                 kRedriveWindow);
  }
  std::printf("chaos differential: %zu events, %llu residents, "
              "%llu mismatches\n",
              trace.size(), static_cast<unsigned long long>(b.residents),
              static_cast<unsigned long long>(mismatches));
  std::printf("chaos transport: retries=%llu reconnects=%llu "
              "restarts-observed=%llu epoch=%llu failovers=%llu "
              "redriven=%llu redrive-mismatches=%llu\n",
              static_cast<unsigned long long>(rc.retries()),
              static_cast<unsigned long long>(rc.reconnects()),
              static_cast<unsigned long long>(rc.epoch_changes()),
              static_cast<unsigned long long>(rc.epoch()),
              static_cast<unsigned long long>(rc.failovers()),
              static_cast<unsigned long long>(redriven),
              static_cast<unsigned long long>(redrive_mismatches));
  return (mismatches == 0 && redrive_mismatches == 0 && !window_overrun)
             ? 0
             : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliFlags flags(argc, argv);
    if (flags.reject_unknown(
            {"host", "port", "tenant", "tenants", "connections", "seed",
             "rate", "fsync", "fsync-interval", "certify", "platform-m",
             "events", "utilization", "group-probability",
             "depart-probability", "epsilon", "skip-exact", "mode",
             "gate-p99-us", "expect-no-shed", "failover-to", "client",
             "retry-timeout-ms", "retry-attempts"})) {
      return 2;
    }

    ClientConfig cfg;
    cfg.host = flags.get("host", "127.0.0.1");
    cfg.port = static_cast<std::uint16_t>(flags.get_int("port", 7433));
    cfg.tenant = flags.get("tenant", "bench");
    cfg.tenants = static_cast<std::size_t>(flags.get_int("tenants", 1));
    cfg.connections =
        static_cast<std::size_t>(flags.get_int("connections", 2));
    cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed", 20050307));
    cfg.rate = flags.get_double("rate", 0.0);
    cfg.fsync = parse_fsync(flags.get("fsync", "none"));
    cfg.fsync_interval =
        static_cast<std::uint64_t>(flags.get_int("fsync-interval", 64));
    cfg.certify = flags.get_bool("certify", false);
    cfg.platform_m =
        static_cast<std::uint32_t>(flags.get_int("platform-m", 1));

    cfg.churn.events = static_cast<std::size_t>(flags.get_int("events", 2000));
    cfg.churn.pool_utilization = flags.get_double("utilization", 0.9);
    cfg.churn.group_probability = flags.get_double("group-probability", 0.15);
    cfg.churn.depart_probability =
        flags.get_double("depart-probability", 0.5);

    cfg.twin.epsilon = flags.get_double("epsilon", 0.1);
    cfg.twin.skip_exact = flags.get_bool("skip-exact", false);
    // The differential twin mirrors the wire tenant's platform, so
    // replay/chaos compare global decisions against global decisions.
    cfg.twin.platform.m = cfg.platform_m;

    const std::string mode = flags.get("mode", "load");
    if (mode == "load") {
      return run_load(cfg,
                      static_cast<std::uint64_t>(
                          flags.get_int("gate-p99-us", 0)),
                      flags.get_bool("expect-no-shed", false));
    }
    if (mode == "replay") return run_replay(cfg);
    if (mode == "chaos") {
      const std::string failover_to = flags.get("failover-to", "");
      return run_chaos(
          cfg, flags.get("client", "chaos"),
          static_cast<std::uint64_t>(flags.get_int("retry-timeout-ms", 1000)),
          static_cast<std::size_t>(flags.get_int("retry-attempts", 50)),
          failover_to.empty() ? std::vector<net::Endpoint>{}
                              : parse_endpoints(failover_to));
    }
    throw std::invalid_argument("unknown --mode '" + mode +
                                "' (load|replay|chaos)");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
