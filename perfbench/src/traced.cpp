// The traced run of a wire workload. The server runs in-process, built
// like the binary (obs attached), and its loop is driven tick by tick
// on a thread of its own, so its CPU time is measured per phase. The
// same op stream is then replayed through the protocol codec and
// through twin controllers (with and without a journal), timing each
// call into a layer's public functions as a span. The layers' self
// times per op, subtracted from the loop's CPU per op, leave the
// residual: epoll, syscalls and dispatch.
#include <unistd.h>

#include <array>
#include <atomic>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <thread>

#include "admission/snapshot.hpp"
#include "net/server.hpp"
#include "obs/obs.hpp"
#include "persist/journal.hpp"
#include "runs.hpp"
#include "spans.hpp"

namespace perfbench {

namespace net = edfkit::net;
using edfkit::AdmissionRung;

const std::vector<LayerMetric>& per_layer_metrics() {
  static const std::vector<LayerMetric> all = {
      {"net.codec_ns_per_op", "ns"},
      {"net.wire_bytes_per_op", "count"},
      {"net.loop_cpu_us_per_op", "us"},
      {"net.requests_per_busy_tick", "count"},
      {"net.residual_us_per_op", "us"},
      {"admission.decide_us_mean", "us"},
      {"admission.rung.utilization.frac", "frac"},
      {"admission.rung.approximate.frac", "frac"},
      {"admission.rung.approximate.us_mean", "us"},
      {"admission.group.us_mean", "us"},
      {"admission.group.reject_frac", "frac"},
      {"admission.remove_us_mean", "us"},
      {"demand.effort_per_decision", "count"},
      {"persist.journal_us_per_op", "us"},
      {"persist.fsync_us_mean", "us"},
      {"persist.checkpoint_ms", "ms"},
      {"query.dynamic.us_per_set", "us"},
      {"query.all-approx.us_per_set", "us"},
      {"query.qpa.us_per_set", "us"},
      {"query.dynamic.effort_per_set", "count"},
      {"query.all-approx.effort_per_set", "count"},
      {"query.qpa.effort_per_set", "count"},
      {"multi.rung.utilization.frac", "frac"},
      {"multi.rung.approximate.frac", "frac"},
      {"multi.rung.exact.frac", "frac"},
      {"multi.rung.utilization.us_mean", "us"},
      {"multi.rung.exact.us_mean", "us"},
      {"multi.unknown_reject_frac", "frac"},
      {"trace.overhead_frac", "frac"},
  };
  return all;
}

namespace {

/// Per-phase bookkeeping of the in-process server's loop thread.
enum Phase : int { kWarm, kTraced, kPost, kStop, kPhases };

/// The served ops of the traced phase, per tenant: log indices [lo, hi).
struct Range {
  std::size_t lo = 0;
  std::size_t hi = 0;
  [[nodiscard]] bool has(std::size_t i) const noexcept {
    return i >= lo && i < hi;
  }
};

/// Decision statistics of the twin replay over the traced range.
struct Decisions {
  std::uint64_t decisions = 0;  ///< admit + group ops
  std::uint64_t decide_ns = 0;
  std::array<std::uint64_t, edfkit::kAdmissionRungs> by_rung{};
  std::array<std::uint64_t, edfkit::kAdmissionRungs> rung_ns{};
  std::uint64_t groups = 0;
  std::uint64_t group_rejects = 0;
  std::uint64_t group_ns = 0;
  std::uint64_t removes = 0;
  std::uint64_t remove_ns = 0;
  std::uint64_t effort = 0;
  std::uint64_t unknown_rejects = 0;

  void add(const Applied& a) {
    const std::uint64_t ns = a.end_ns - a.start_ns;
    if (a.answer.op == net::NetOp::RemoveGroup) {
      ++removes;
      remove_ns += ns;
      return;
    }
    ++decisions;
    decide_ns += ns;
    const auto r = static_cast<std::size_t>(a.rung);
    ++by_rung[r];
    rung_ns[r] += ns;
    effort += a.analysis.effort();
    if (a.answer.op == net::NetOp::AdmitGroup) {
      ++groups;
      group_ns += ns;
      if (!a.answer.admitted()) ++group_rejects;
    }
    if (!a.answer.admitted() &&
        a.analysis.verdict == edfkit::Verdict::Unknown) {
      ++unknown_rejects;
    }
  }
};

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }
double ratio(std::uint64_t num, std::uint64_t den) {
  return ratio(static_cast<double>(num), static_cast<double>(den));
}

const char* span_name(net::NetOp op) {
  switch (op) {
    case net::NetOp::Admit:
      return "admission.admit";
    case net::NetOp::AdmitGroup:
      return "admission.group";
    default:
      return "admission.remove";
  }
}

net::NetResponse response_for(const Answer& a, std::uint64_t request_id) {
  net::NetResponse r;
  r.hdr.op = static_cast<std::uint8_t>(a.op);
  r.hdr.request_id = request_id;
  r.hdr.status = static_cast<std::uint8_t>(a.status);
  r.id = a.id;
  r.ids = a.ids;
  r.rung = a.rung;
  r.verdict = a.verdict;
  r.removed = a.removed;
  return r;
}

/// Replay the traced range through the codec: client encode, then (as a
/// child span) the server's frame parse + decode and response encode,
/// then the client's decode. Returns the frame bytes both ways.
std::uint64_t codec_replay(const WireSpec& spec, const edfkit::Rng& rng,
                           const std::vector<Answer>& log, Range range,
                           SpanRecorder& spans) {
  OpStream stream(rng, spec.stream);
  std::uint64_t bytes = 0;
  std::vector<std::uint8_t> frame;
  std::vector<std::uint8_t> reply;
  for (std::size_t i = 0; i < range.hi; ++i) {
    const std::optional<Op> op = stream.next();
    if (!op) throw std::logic_error("sequential op stream stalled");
    const Answer& a = log[i];
    if (op->kind != net::NetOp::RemoveGroup) {
      stream.resolve(op->key, a.admitted(),
                     op->kind == net::NetOp::Admit ? std::vector<TaskId>{a.id}
                                                   : a.ids);
    }
    if (!range.has(i)) continue;
    const std::int64_t parent = spans.begin("net.codec", i);
    net::NetRequest req = to_request(*op);
    req.hdr.request_id = i + 1;
    frame.clear();
    net::append_frame(frame, net::encode_request(req));

    const std::int64_t server = spans.begin("net.codec.server", i, parent);
    net::FrameView f;
    if (net::try_parse_frame(frame, f) != net::FrameStatus::Ok) {
      throw std::logic_error("codec replay produced a bad frame");
    }
    const net::NetRequest decoded = net::decode_request(f.payload);
    reply.clear();
    net::append_frame(reply, net::encode_response(
                                 response_for(a, decoded.hdr.request_id)));
    spans.end(server);

    net::FrameView g;
    if (net::try_parse_frame(reply, g) != net::FrameStatus::Ok ||
        net::decode_response(g.payload).hdr.request_id != i + 1) {
      throw std::logic_error("codec replay lost a response");
    }
    spans.end(parent);
    bytes += frame.size() + reply.size();
  }
  return bytes;
}

/// The persist layer: a second twin with a journal attached, fed the
/// same ops in lockstep with the plain twin (so both are timed under the
/// same conditions), syncing at the EveryN cadence and checkpointing
/// (snapshot + rotate) every checkpoint_every ops, as a journaled tenant
/// does.
class JournaledTwin {
 public:
  JournaledTwin(const WireSpec& spec, const std::string& dir)
      : spec_(spec),
        dir_((std::filesystem::create_directories(dir), dir)),
        journal_(edfkit::persist::Journal::create(dir + "/twin.wal")),
        twin_(twin_options(spec)) {
    twin_.attach_journal(&journal_);
  }
  JournaledTwin(const JournaledTwin&) = delete;
  JournaledTwin& operator=(const JournaledTwin&) = delete;
  ~JournaledTwin() { twin_.attach_journal(nullptr); }

  /// Apply op `i`, then sync or checkpoint when due.
  Applied apply_op(const Op& op, std::size_t i, bool traced,
                   SpanRecorder& spans) {
    const Applied a = apply(twin_, op);
    if (traced) spans.add({"persist.op", a.start_ns, a.end_ns, kNoParent, i});
    const std::uint64_t lsn = journal_.lsn();
    if (lsn % spec_.fsync_interval == 0) {
      const std::int64_t s = traced ? spans.begin("persist.fsync", i) : kNoParent;
      journal_.sync();
      if (traced) spans.end(s);
    }
    if ((i + 1) % spec_.checkpoint_every == 0) {
      const std::int64_t s =
          traced ? spans.begin("persist.checkpoint", i) : kNoParent;
      edfkit::save_snapshot(twin_, dir_ + "/twin.snap", lsn);
      (void)journal_.rotate(lsn);
      if (traced) spans.end(s);
    }
    return a;
  }

 private:
  const WireSpec& spec_;
  std::string dir_;
  edfkit::persist::Journal journal_;
  edfkit::AdmissionController twin_;
};

}  // namespace

RunOutcome run_wire_traced(const WireSpec& spec, const RunOptions& opt,
                           Report& report) {
  // The untraced reference: a timed run of the server binary. The
  // in-process server below then serves exactly the same ops (same
  // counts per tenant after the same warm-up), so the traced loop's CPU
  // per op compares with the binary's over identical work.
  const TimedWire base = timed_wire(spec, opt, 1);
  std::vector<std::uint64_t> timed_ops(spec.connections);
  for (std::size_t c = 0; c < spec.connections; ++c) {
    timed_ops[c] = base.client->log(c).size() - spec.warmup_ops;
  }

  const std::string dir =
      opt.work_dir + "/traced-" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);

  // The server as the binary builds it: its defaults, obs attached.
  net::ServerOptions so;
  so.bind_address = "127.0.0.1";
  so.port = 0;
  so.tenants.admission.epsilon = spec.epsilon;
  so.tenants.admission.skip_exact = spec.skip_exact;
  so.tenants.checkpoint_every = spec.checkpoint_every;
  if (spec.durable) so.tenants.data_dir = dir + "/data";
  edfkit::obs::Obs obs(edfkit::obs::ObsConfig{}, 1);
  net::Server server(so, &obs);

  std::atomic<int> phase{kWarm};
  std::array<std::uint64_t, kPhases> loop_cpu{};
  std::uint64_t busy_ticks = 0;
  SpanRecorder tick_spans;
  std::exception_ptr loop_error;
  std::thread loop([&] {
    try {
      int seen = kWarm;
      std::uint64_t mark = thread_cpu_ns();
      for (;;) {
        const int now = phase.load(std::memory_order_acquire);
        if (now != seen) {
          const std::uint64_t c = thread_cpu_ns();
          loop_cpu[seen] += c - mark;
          mark = c;
          seen = now;
        }
        if (seen == kStop) break;
        const std::uint64_t t0 = now_ns();
        if (server.poll_once(5) && seen == kTraced) {
          tick_spans.add({"net.tick", t0, now_ns(), kNoParent, 0});
          ++busy_ticks;
        }
      }
    } catch (...) {
      loop_error = std::current_exception();
    }
  });

  const std::vector<edfkit::Rng> rngs = tenant_rngs(opt.seed, spec.connections);
  std::vector<Range> ranges(spec.connections);
  PhaseResult traced;
  std::vector<net::NetResponse> stats;
  std::unique_ptr<LoadClient> client;
  try {
    client = std::make_unique<LoadClient>(spec, rngs, server.port());
    (void)client->run_count(
        std::vector<std::uint64_t>(spec.connections, spec.warmup_ops));
    for (std::size_t c = 0; c < ranges.size(); ++c) {
      ranges[c].lo = client->log(c).size();
    }
    phase.store(kTraced, std::memory_order_release);
    traced = client->run_count(timed_ops);
    phase.store(kPost, std::memory_order_release);
    for (std::size_t c = 0; c < ranges.size(); ++c) {
      ranges[c].hi = client->log(c).size();
    }
    stats = client->stats();
  } catch (...) {
    phase.store(kStop, std::memory_order_release);
    loop.join();
    throw;
  }
  phase.store(kStop, std::memory_order_release);
  loop.join();
  if (loop_error) std::rethrow_exception(loop_error);

  // Both servers must have answered identically; the twin replay below
  // checks the answers themselves and both final STATS.
  RunOutcome out;
  out.attempted = traced.ops;
  out.failed = traced.failed + base.phase.failed;
  for (std::size_t c = 0; c < spec.connections; ++c) {
    const std::vector<Answer>& a = base.client->log(c);
    const std::vector<Answer>& b = client->log(c);
    bool same = a.size() == b.size();
    for (std::size_t i = 0; same && i < a.size(); ++i) {
      same = compare(a[i], b[i]).empty();
    }
    if (!same) {
      std::fprintf(stderr,
                   "DIVERGENCE tenant t%zu: the in-process server answered "
                   "differently from the binary\n",
                   c);
      out.correct = false;
    }
  }

  // Twin replay: the decision check, the admission/demand (or multi)
  // spans of the traced range and, for journaled tenants, the persist
  // spans of a journaled twin run in lockstep.
  SpanRecorder spans;
  Decisions dec;
  for (std::size_t c = 0; c < spec.connections; ++c) {
    const std::vector<Answer>& log = client->log(c);
    OpStream stream(rngs[c], spec.stream);
    edfkit::AdmissionController twin(twin_options(spec));
    std::unique_ptr<JournaledTwin> jtwin;
    if (spec.durable) {
      jtwin = std::make_unique<JournaledTwin>(
          spec, dir + "/twin-" + std::to_string(c));
    }
    CheckResult check;
    for (std::size_t i = 0; i < log.size(); ++i) {
      const std::optional<Op> op = stream.next();
      if (!op) throw std::logic_error("sequential op stream stalled");
      // The two twins take turns going first, so neither gains from the
      // other warming the caches for this op.
      Applied journaled;
      if (jtwin && i % 2 == 1) {
        journaled = jtwin->apply_op(*op, i, ranges[c].has(i), spans);
      }
      const Applied a = apply(twin, *op);
      if (jtwin && i % 2 == 0) {
        journaled = jtwin->apply_op(*op, i, ranges[c].has(i), spans);
      }
      std::string diff = compare(log[i], a.answer);
      if (diff.empty() && jtwin) diff = compare(a.answer, journaled.answer);
      if (!diff.empty()) check.note(i, diff);
      if (op->kind != net::NetOp::RemoveGroup) {
        stream.resolve(op->key, a.answer.admitted(),
                       op->kind == net::NetOp::Admit
                           ? std::vector<TaskId>{a.answer.id}
                           : a.answer.ids);
      }
      if (ranges[c].has(i)) {
        spans.add({span_name(op->kind), a.start_ns, a.end_ns, kNoParent, i});
        dec.add(a);
      }
    }
    std::string d = compare_stats(stats[c], twin);
    if (d.empty()) d = compare_stats(base.stats[c], twin);
    if (check.mismatches != 0 || !d.empty()) {
      std::fprintf(stderr, "DIVERGENCE tenant t%zu: %s %s\n", c,
                   check.first.c_str(), d.c_str());
      out.correct = false;
    }
  }
  std::uint64_t bytes = 0;
  for (std::size_t c = 0; c < spec.connections; ++c) {
    bytes += codec_replay(spec, rngs[c], client->log(c), ranges[c], spans);
  }
  std::filesystem::remove_all(dir);

  // Self times per layer, per op of the traced range.
  for (const Span& s : tick_spans.spans()) (void)spans.add(s);
  const auto by = self_time_by_name(spans.spans());
  const auto self_us = [&](const char* name) {
    const auto it = by.find(name);
    return it == by.end() ? 0.0 : static_cast<double>(it->second.self_ns) / 1e3;
  };
  const auto count = [&](const char* name) {
    const auto it = by.find(name);
    return it == by.end() ? std::uint64_t{0} : it->second.count;
  };
  const double ops = static_cast<double>(traced.ops);
  const double loop_us = static_cast<double>(loop_cpu[kTraced]) / 1e3 / ops;
  const double plain_loop_us = static_cast<double>(base.server_cpu_ns) / 1e3 /
                               static_cast<double>(base.phase.ops);
  const double server_codec_us = self_us("net.codec.server") / ops;
  const double admission_us = (self_us("admission.admit") +
                               self_us("admission.group") +
                               self_us("admission.remove")) /
                              ops;
  const double journal_us =
      spec.durable ? (self_us("persist.op") / ops - admission_us) : 0.0;
  const double persist_us =
      journal_us +
      (self_us("persist.fsync") + self_us("persist.checkpoint")) / ops;
  const Attribution attr =
      attribute(loop_us, {server_codec_us, admission_us, persist_us});

  const bool global = spec.platform_m > 1;
  const auto rung = [](AdmissionRung r) { return static_cast<std::size_t>(r); };
  const double decisions = static_cast<double>(dec.decisions);
  report.add("net.codec_ns_per_op",
             (self_us("net.codec") + self_us("net.codec.server")) * 1e3 / ops,
             "ns", traced.ops);
  report.add("net.wire_bytes_per_op", static_cast<double>(bytes) / ops, "count",
             traced.ops);
  report.add("net.loop_cpu_us_per_op", loop_us, "us", traced.ops);
  report.add("net.requests_per_busy_tick", ratio(traced.ops, busy_ticks),
             "count", busy_ticks);
  report.add("net.residual_us_per_op", attr.residual, "us", traced.ops);
  if (!global) {
    report.add("admission.decide_us_mean",
               ratio(static_cast<double>(dec.decide_ns) / 1e3, decisions), "us",
               dec.decisions);
    report.add("admission.rung.utilization.frac",
               ratio(dec.by_rung[rung(AdmissionRung::Utilization)],
                     dec.decisions),
               "frac", dec.decisions);
    report.add("admission.rung.approximate.frac",
               ratio(dec.by_rung[rung(AdmissionRung::Approximate)],
                     dec.decisions),
               "frac", dec.decisions);
    report.add("admission.rung.approximate.us_mean",
               ratio(static_cast<double>(
                         dec.rung_ns[rung(AdmissionRung::Approximate)]) /
                         1e3,
                     static_cast<double>(
                         dec.by_rung[rung(AdmissionRung::Approximate)])),
               "us", dec.by_rung[rung(AdmissionRung::Approximate)]);
    report.add("admission.group.us_mean",
               ratio(static_cast<double>(dec.group_ns) / 1e3,
                     static_cast<double>(dec.groups)),
               "us", dec.groups);
    report.add("admission.group.reject_frac",
               ratio(dec.group_rejects, dec.groups), "frac", dec.groups);
    report.add("admission.remove_us_mean",
               ratio(static_cast<double>(dec.remove_ns) / 1e3,
                     static_cast<double>(dec.removes)),
               "us", dec.removes);
  } else {
    for (const auto& [name, r] :
         {std::pair{"multi.rung.utilization.frac", AdmissionRung::Utilization},
          std::pair{"multi.rung.approximate.frac", AdmissionRung::Approximate},
          std::pair{"multi.rung.exact.frac", AdmissionRung::Exact}}) {
      report.add(name, ratio(dec.by_rung[rung(r)], dec.decisions), "frac",
                 dec.decisions);
    }
    for (const auto& [name, r] :
         {std::pair{"multi.rung.utilization.us_mean",
                    AdmissionRung::Utilization},
          std::pair{"multi.rung.exact.us_mean", AdmissionRung::Exact}}) {
      report.add(name,
                 ratio(static_cast<double>(dec.rung_ns[rung(r)]) / 1e3,
                       static_cast<double>(dec.by_rung[rung(r)])),
                 "us", dec.by_rung[rung(r)]);
    }
    report.add("multi.unknown_reject_frac",
               ratio(dec.unknown_rejects, dec.decisions), "frac",
               dec.decisions);
  }
  report.add("demand.effort_per_decision",
             ratio(static_cast<double>(dec.effort), decisions), "count",
             dec.decisions);
  if (spec.durable) {
    report.add("persist.journal_us_per_op", journal_us, "us", traced.ops);
    report.add("persist.fsync_us_mean",
               ratio(self_us("persist.fsync"),
                     static_cast<double>(count("persist.fsync"))),
               "us", count("persist.fsync"));
    report.add("persist.checkpoint_ms",
               ratio(self_us("persist.checkpoint") / 1e3,
                     static_cast<double>(count("persist.checkpoint"))),
               "ms", count("persist.checkpoint"));
  }
  report.add("trace.overhead_frac", loop_us / plain_loop_us - 1.0, "frac",
             traced.ops);

  std::printf(
      "attribution (us/op of the traced phase): loop cpu %.3f = net codec "
      "%.3f + admission %.3f + persist %.3f + residual %.3f "
      "(residual share %.1f%%; untraced server binary %.3f)\n",
      attr.total, server_codec_us, admission_us, persist_us, attr.residual,
      100.0 * attr.residual_frac, plain_loop_us);
  std::printf("decision check: %s; %zu spans kept\n",
              out.correct ? "every answer equals the twin's" : "MISMATCH",
              spans.spans().size());
  if (!opt.spans_out.empty()) spans.write_jsonl(opt.spans_out);
  return out;
}

}  // namespace perfbench
