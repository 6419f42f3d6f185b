/// \file obs.hpp
/// The observability facade: one `Obs` object owns the metrics
/// registry, the flight recorder, and the named instrument bundles the
/// admission subsystem attaches to (`attach_obs` on the controller
/// and journal mirrors `attach_journal`).
///
/// Everything is compiled-in-but-cheap: `Obs{ObsConfig::disabled()}`
/// hands out null metric handles and a zero-capacity recorder, and the
/// consumers skip their probes entirely when nothing is attached — the
/// perf_suite `obs` cell gates the instrumented-vs-disabled overhead
/// in CI.
///
/// Metric name catalog (all exported with an `edfkit_` prefix; the
/// README "Observability" section is the user-facing copy):
///
///   admission_admits_total / admission_rejects_total /
///   admission_removals_total / admission_group_decisions_total /
///   admission_rollbacks_total
///   admission_rung{0..3}_attempts_total / _settled_total /
///   _admits_total       — escalation-ladder rung statistics
///   (admits/rejects/rung attempts are derived at read time from the
///   rung histograms and per-rung counters; see derive_counter())
///   admission_rung{0..3}_ns, admission_decision_ns   — histograms
///   admission_cert_cover_hits_total / _misses_total
///   admission_scan_iterations_total /
///   admission_scan_refinements_total /
///   admission_segments_walked_total /
///   admission_segments_fast_forwarded_total /
///   admission_tombstone_compactions_total            — scan internals
///   journal_appends_total / journal_fsyncs_total
///   journal_append_ns, journal_fsync_ns              — histograms
///   replay_events_total / replay_arrivals_total /
///   replay_departures_total / replay_crashes_total /
///   replay_snapshots_total
///   net_accepted_total / net_closed_total / net_connections (gauge) /
///   net_requests_total / net_shed_total /
///   net_protocol_errors_total / net_bytes_in_total /
///   net_bytes_out_total
///   net_unavailable_total / net_dedup_hits_total /
///   net_tenant_quarantines_total / net_tenant_unquarantines_total /
///   net_tenant_reprobe_failures_total /
///   net_tenants_quarantined (gauge)                  — failure domains, dedup
///   net_op_<op>_ns                                   — per-op service
///   latency histograms (hello/admit/admit_group/remove/remove_group/
///   stats/ping, the repl_* ops and promote, plus unknown)
///   repl_shipped_records_total / repl_ship_batches_total /
///   repl_acked_records_total / repl_ship_errors_total /
///   repl_seeds_sent_total / repl_digests_sent_total /
///   repl_applied_records_total / repl_digests_checked_total /
///   repl_digest_mismatches_total / repl_seeds_applied_total /
///   repl_lag_records (gauge)                         — replication
///   query_ns_<backend>                               — batch_analyze
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace edfkit::obs {

struct ObsConfig {
  bool metrics = true;
  bool tracing = true;
  /// Flight-recorder slots per shard (rounded up to a power of two).
  /// The default keeps one shard's ring around 50KB: pushing a record
  /// dirties fresh cache lines until the ring wraps, and a recorder
  /// sized past L2 measurably evicts the admission working set (it was
  /// most of the obs cell's overhead before the default was sized to
  /// fit). 512 decisions per shard is ample for post-mortem dumps;
  /// raise it explicitly when deeper history matters more than the
  /// last percent of admit throughput.
  std::size_t trace_capacity = 512;

  [[nodiscard]] static ObsConfig disabled() noexcept {
    return ObsConfig{false, false, 0};
  }
  [[nodiscard]] bool any() const noexcept {
    return metrics || (tracing && trace_capacity > 0);
  }
};

/// Monotonic nanosecond clock for probe timestamps.
[[nodiscard]] inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Fast monotonic tick source for intra-decision interval timing: the
/// TSC on x86-64 (one rdtsc, ~5ns, vs ~25ns for clock_gettime), the ns
/// clock elsewhere. Probes subtract ticks on the hot path and convert
/// to ns once per decision via `ns_per_tick()`, whose scale is
/// calibrated against the ns clock on first use (the Obs constructor
/// forces that, keeping the ~1ms spin off the decision path).
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
namespace detail {
[[nodiscard]] double calibrate_ns_per_tick() noexcept;  // obs.cpp
}
[[nodiscard]] inline std::uint64_t now_ticks() noexcept {
  return __builtin_ia32_rdtsc();
}
[[nodiscard]] inline double ns_per_tick() noexcept {
  static const double scale = detail::calibrate_ns_per_tick();
  return scale;
}
#else
[[nodiscard]] inline std::uint64_t now_ticks() noexcept { return now_ns(); }
[[nodiscard]] inline double ns_per_tick() noexcept { return 1.0; }
#endif

/// Controller-side handles (one bundle shared by every attached
/// controller; writes are internally sharded).
/// Note: several ladder counters are *derived* at read time rather
/// than written on the decision path, exploiting two structural
/// invariants — the probe records exactly one rung_ns sample per
/// entered rung, and the ladder escalates one rung at a time:
///   rung{r}_attempts ≡ count(rung{r}_ns)
///   rung{r}_settled  ≡ count(rung{r}_ns) − count(rung{r+1}_ns)
///   admits           ≡ Σ rung_admits
///   rejects          ≡ count(rung0_ns) − Σ rung_admits
///   cert_cover_hits  ≡ count(rung2_ns) − cert_cover_misses
/// They have no handles here; read them by name. A cover-hit admit
/// thus pays only the samples it must record anyway (rung_ns ×
/// entered rungs, decision_ns, rung_admits).
struct AdmissionInstruments {
  std::array<Counter, kTraceRungs> rung_admits;
  std::array<Histogram, kTraceRungs> rung_ns;
  Histogram decision_ns;
  Counter removals;
  Counter group_decisions;
  Counter rollbacks;
  Counter cert_cover_misses;
  Counter scan_iterations;
  Counter scan_refinements;
  Counter segments_walked;
  Counter segments_fast_forwarded;
  Counter tombstone_compactions;
};

struct JournalInstruments {
  Counter appends;
  Counter fsyncs;
  Histogram append_ns;
  Histogram fsync_ns;
};

struct ReplayInstruments {
  Counter events;
  Counter arrivals;
  Counter departures;
  Counter crashes;
  Counter snapshots;
};

/// Replication instruments (src/repl/ + the server's follower path).
/// Primary side: shipped/acked record counts, batches, snapshot
/// (re-)seeds sent, transport errors, digests attached, and the
/// current shipping lag in records (journal head minus last ack).
/// Follower side: records applied through controller replay, digests
/// checked, mismatches (each one forces a re-seed), and seeds applied.
struct ReplInstruments {
  Counter shipped;
  Counter ship_batches;
  Counter acked;
  Counter ship_errors;
  Counter seeds_sent;
  Counter digests_sent;
  Counter applied;
  Counter digests_checked;
  Counter digest_mismatches;
  Counter seeds_applied;
  Gauge lag;
};

/// Wire-op slots for NetInstruments::op_ns. Index 0 is the unknown-op
/// bucket; 1..12 mirror net::NetOp (protocol.hpp static_asserts the
/// mirror, keeping obs a dependency leaf like kTraceRungs does for the
/// admission ladder). Slots 8..12 are the replication ops (PR 9).
inline constexpr std::size_t kNetOps = 13;

struct NetInstruments {
  Counter accepted;
  Counter closed;
  Gauge connections;
  Counter requests;
  Counter sheds;
  Counter protocol_errors;
  Counter bytes_in;
  Counter bytes_out;
  /// Fault-domain + exactly-once counters (net/server.hpp): responses
  /// answered Unavailable because the tenant is quarantined, retries
  /// answered from the dedup window, quarantine entries/exits, failed
  /// re-probe attempts, and the current quarantined-tenant gauge.
  Counter unavailable;
  Counter dedup_hits;
  Counter quarantines;
  Counter unquarantines;
  Counter reprobe_failures;
  Gauge quarantined;
  /// Decode-to-encode service time per op, unknown ops in slot 0.
  std::array<Histogram, kNetOps> op_ns;
};

class Obs {
 public:
  explicit Obs(ObsConfig cfg = {}, std::size_t shards = 1);
  Obs(const Obs&) = delete;
  Obs& operator=(const Obs&) = delete;

  [[nodiscard]] const ObsConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] MetricsRegistry& registry() noexcept { return registry_; }
  [[nodiscard]] const MetricsRegistry& registry() const noexcept {
    return registry_;
  }
  [[nodiscard]] FlightRecorder& recorder() noexcept { return recorder_; }
  [[nodiscard]] const FlightRecorder& recorder() const noexcept {
    return recorder_;
  }

  /// Instrument bundles, created on first use (null handles when the
  /// registry is disabled). Pointers stay valid for the Obs lifetime.
  [[nodiscard]] AdmissionInstruments* admission();
  [[nodiscard]] JournalInstruments* journal();
  [[nodiscard]] ReplayInstruments* replay();
  [[nodiscard]] NetInstruments* net();
  [[nodiscard]] ReplInstruments* repl();

  /// Per-backend query latency histogram (`query_ns_<backend>`).
  [[nodiscard]] Histogram query_ns(const std::string& backend);

 private:
  ObsConfig cfg_;
  MetricsRegistry registry_;
  FlightRecorder recorder_;
  std::mutex mu_;
  std::unique_ptr<AdmissionInstruments> admission_;
  std::unique_ptr<JournalInstruments> journal_;
  std::unique_ptr<ReplayInstruments> replay_;
  std::unique_ptr<NetInstruments> net_;
  std::unique_ptr<ReplInstruments> repl_;
};

}  // namespace edfkit::obs
