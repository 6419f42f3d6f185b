#include "obs/obs.hpp"

namespace edfkit::obs {
namespace {

std::string rung_metric(std::size_t rung, const char* suffix) {
  return "admission_rung" + std::to_string(rung) + suffix;
}

}  // namespace

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
namespace detail {

double calibrate_ns_per_tick() noexcept {
  // Spin ~1ms against the ns clock; the TSC is invariant on anything
  // this library targets, so one calibration serves the process. A
  // non-advancing TSC (emulators) degrades to the 1:1 fallback.
  const std::uint64_t t0 = now_ticks();
  const std::uint64_t n0 = now_ns();
  while (now_ns() - n0 < 1000000) {
  }
  const std::uint64_t dt = now_ticks() - t0;
  const std::uint64_t dn = now_ns() - n0;
  if (dt == 0 || dn == 0) return 1.0;
  return static_cast<double>(dn) / static_cast<double>(dt);
}

}  // namespace detail
#endif

Obs::Obs(ObsConfig cfg, std::size_t shards)
    : cfg_(cfg),
      registry_(cfg.metrics),
      recorder_(cfg.tracing ? shards : 0, cfg.trace_capacity) {
  // Force tick-clock calibration now, not inside the first decision.
  if (cfg.any()) (void)ns_per_tick();
}

AdmissionInstruments* Obs::admission() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (admission_ == nullptr) {
    auto b = std::make_unique<AdmissionInstruments>();
    std::vector<std::string> admit_names;
    for (std::size_t r = 0; r < kTraceRungs; ++r) {
      b->rung_admits[r] = registry_.counter(rung_metric(r, "_admits_total"));
      b->rung_ns[r] = registry_.histogram(rung_metric(r, "_ns"));
      // One rung_ns sample is recorded per entered rung, so the
      // attempts counter is exactly that histogram's sample count —
      // derived at read time, free on the decision path. Settled
      // follows from the ladder escalating one rung at a time: a
      // decision settles at r iff it entered r and not r + 1.
      registry_.derive_counter(rung_metric(r, "_attempts_total"),
                               {rung_metric(r, "_ns")});
      registry_.derive_counter(
          rung_metric(r, "_settled_total"), {rung_metric(r, "_ns")}, {}, {},
          r + 1 < kTraceRungs
              ? std::vector<std::string>{rung_metric(r + 1, "_ns")}
              : std::vector<std::string>{});
      admit_names.push_back(rung_metric(r, "_admits_total"));
    }
    b->decision_ns = registry_.histogram("admission_decision_ns");
    registry_.derive_counter("admission_admits_total", {}, admit_names);
    registry_.derive_counter("admission_rejects_total",
                             {rung_metric(0, "_ns")}, {}, admit_names);
    b->removals = registry_.counter("admission_removals_total");
    b->group_decisions = registry_.counter("admission_group_decisions_total");
    b->rollbacks = registry_.counter("admission_rollbacks_total");
    b->cert_cover_misses =
        registry_.counter("admission_cert_cover_misses_total");
    // Every rung-2 entrant runs the cover test, so hits are implied.
    registry_.derive_counter("admission_cert_cover_hits_total",
                             {rung_metric(2, "_ns")}, {},
                             {"admission_cert_cover_misses_total"});
    b->scan_iterations = registry_.counter("admission_scan_iterations_total");
    b->scan_refinements =
        registry_.counter("admission_scan_refinements_total");
    b->segments_walked =
        registry_.counter("admission_segments_walked_total");
    b->segments_fast_forwarded =
        registry_.counter("admission_segments_fast_forwarded_total");
    b->tombstone_compactions =
        registry_.counter("admission_tombstone_compactions_total");
    admission_ = std::move(b);
  }
  return admission_.get();
}

JournalInstruments* Obs::journal() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (journal_ == nullptr) {
    journal_ = std::make_unique<JournalInstruments>();
    journal_->appends = registry_.counter("journal_appends_total");
    journal_->fsyncs = registry_.counter("journal_fsyncs_total");
    journal_->append_ns = registry_.histogram("journal_append_ns");
    journal_->fsync_ns = registry_.histogram("journal_fsync_ns");
  }
  return journal_.get();
}

ReplayInstruments* Obs::replay() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (replay_ == nullptr) {
    replay_ = std::make_unique<ReplayInstruments>();
    replay_->events = registry_.counter("replay_events_total");
    replay_->arrivals = registry_.counter("replay_arrivals_total");
    replay_->departures = registry_.counter("replay_departures_total");
    replay_->crashes = registry_.counter("replay_crashes_total");
    replay_->snapshots = registry_.counter("replay_snapshots_total");
  }
  return replay_.get();
}

NetInstruments* Obs::net() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (net_ == nullptr) {
    // Slot order mirrors net::NetOp (slot 0 = unknown).
    static constexpr const char* kOpNames[kNetOps] = {
        "unknown",    "hello",       "admit",    "admit_group",
        "remove",     "remove_group", "stats",   "ping",
        "repl_hello", "repl_append", "repl_ack", "repl_snapshot",
        "promote"};
    auto b = std::make_unique<NetInstruments>();
    b->accepted = registry_.counter("net_accepted_total");
    b->closed = registry_.counter("net_closed_total");
    b->connections = registry_.gauge("net_connections");
    b->requests = registry_.counter("net_requests_total");
    b->sheds = registry_.counter("net_shed_total");
    b->protocol_errors = registry_.counter("net_protocol_errors_total");
    b->bytes_in = registry_.counter("net_bytes_in_total");
    b->bytes_out = registry_.counter("net_bytes_out_total");
    b->unavailable = registry_.counter("net_unavailable_total");
    b->dedup_hits = registry_.counter("net_dedup_hits_total");
    b->quarantines = registry_.counter("net_tenant_quarantines_total");
    b->unquarantines = registry_.counter("net_tenant_unquarantines_total");
    b->reprobe_failures =
        registry_.counter("net_tenant_reprobe_failures_total");
    b->quarantined = registry_.gauge("net_tenants_quarantined");
    for (std::size_t i = 0; i < kNetOps; ++i) {
      b->op_ns[i] =
          registry_.histogram(std::string("net_op_") + kOpNames[i] + "_ns");
    }
    net_ = std::move(b);
  }
  return net_.get();
}

ReplInstruments* Obs::repl() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (repl_ == nullptr) {
    auto b = std::make_unique<ReplInstruments>();
    b->shipped = registry_.counter("repl_shipped_records_total");
    b->ship_batches = registry_.counter("repl_ship_batches_total");
    b->acked = registry_.counter("repl_acked_records_total");
    b->ship_errors = registry_.counter("repl_ship_errors_total");
    b->seeds_sent = registry_.counter("repl_seeds_sent_total");
    b->digests_sent = registry_.counter("repl_digests_sent_total");
    b->applied = registry_.counter("repl_applied_records_total");
    b->digests_checked = registry_.counter("repl_digests_checked_total");
    b->digest_mismatches =
        registry_.counter("repl_digest_mismatches_total");
    b->seeds_applied = registry_.counter("repl_seeds_applied_total");
    b->lag = registry_.gauge("repl_lag_records");
    repl_ = std::move(b);
  }
  return repl_.get();
}

Histogram Obs::query_ns(const std::string& backend) {
  return registry_.histogram("query_ns_" + backend);
}

}  // namespace edfkit::obs
