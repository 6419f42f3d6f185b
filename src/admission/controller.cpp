#include "admission/controller.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "admission/snapshot.hpp"
#include "analysis/multi/global_tests.hpp"
#include "obs/obs.hpp"
#include "persist/journal.hpp"
#include "query/query.hpp"

namespace edfkit {

// The obs layer is a dependency leaf and mirrors the rung count; keep
// the mirror honest here, where both headers are visible.
static_assert(obs::kTraceRungs == kAdmissionRungs,
              "obs::kTraceRungs must mirror kAdmissionRungs");

namespace {

/// Rung-3 / verification analyses route through the unified query API
/// with the backend's default parameters (certificates off: the
/// controller keeps its own instrumentation and the hot path must not
/// pay a construction sweep). Query::run hands the resident set to the
/// backend without copying it.
FeasibilityResult query_exact(const TaskSet& ts, TestKind kind) {
  if (ts.empty()) return make_verdict(Verdict::Feasible);
  return Query::single(kind).with_certificates(false).run(ts).analysis;
}

/// Per-decision observability probe: collects rung-boundary timestamps
/// and scan internals while the ladder runs, then settles them into
/// the instrument bundle and the flight-recorder ring in one shot.
/// When nothing is attached every method is a single branch — the
/// ObsConfig::disabled() overhead story depends on exactly that.
struct DecisionProbe {
  const obs::AdmissionInstruments* m;
  obs::TraceRing* ring;
  bool active;
  std::uint64_t t0 = 0;
  std::uint64_t t_rung = 0;
  std::uint64_t compactions0 = 0;
  std::uint64_t scan_iters = 0;
  std::size_t cur = 0;  // rung currently on the clock
  std::size_t ws = 0;   // write_shard(), looked up once per decision
  obs::DecisionTrace tr;

  /// `group_size` is 0 for a single arrival (try_admit).
  DecisionProbe(const obs::AdmissionInstruments* metrics,
                obs::TraceRing* trace, std::uint64_t compactions_now,
                std::size_t group_size) noexcept
      : m(metrics), ring(trace),
        active(metrics != nullptr || trace != nullptr) {
    if (!active) return;
    t0 = t_rung = obs::now_ticks();
    compactions0 = compactions_now;
    tr.rungs_entered = 1;  // every decision starts on Structural
    tr.group_size = static_cast<std::uint32_t>(group_size);
    if (m != nullptr) ws = obs::write_shard();
  }

  /// The ladder escalated: close the current rung's clock, open `r`'s.
  /// rung_ns accumulates raw ticks until finish() converts in place.
  /// No counter write here: rung attempts are derived at read time
  /// from the rung_ns sample counts (one sample per entered rung).
  void enter(AdmissionRung r) noexcept {
    if (!active) return;
    const std::uint64_t now = obs::now_ticks();
    tr.rung_ns[cur] += now - t_rung;
    t_rung = now;
    cur = static_cast<std::size_t>(r);
    tr.rungs_entered |= static_cast<std::uint8_t>(1u << cur);
  }

  /// Outcome of the rung-2 O(1) certificate-cover test. Only misses
  /// write (amortized into the scan they trigger); hits are derived as
  /// rung-2 attempts minus misses, keeping the O(1) fast path free.
  void cover(bool hit) noexcept {
    if (!active) return;
    tr.cert_cover = hit;
    if (m != nullptr && !hit) m->cert_cover_misses.add_at(ws);
  }

  /// Fold one demand scan's internals into the decision record. The
  /// counters flush once in finish(), not per scan call.
  void scan(const DemandCheck& c) noexcept {
    if (!active) return;
    scan_iters += c.iterations;
    tr.refinements += static_cast<std::uint32_t>(c.revisions);
    tr.segments_walked += c.segments_walked;
    tr.segments_fast_forwarded += c.segments_fast_forwarded;
  }

  /// A rejected group's tentative inserts were withdrawn. A single
  /// arrival's withdrawal is not a group rollback and is not counted.
  void rollback() noexcept {
    if (active && tr.group_size > 0) tr.rollback = true;
  }

  void finish(bool admitted, AdmissionRung rung, std::uint64_t sequence,
              TaskId id, std::uint64_t compactions_now) noexcept {
    if (!active) return;
    const std::uint64_t now = obs::now_ticks();
    tr.rung_ns[cur] += now - t_rung;
    // Convert tick deltas to ns in place. total_ns is the sum of the
    // converted per-rung values (not the converted t0 delta) so that
    // "entered rung_ns sum exactly to total_ns" survives rounding.
    const double k = obs::ns_per_tick();
    tr.total_ns = 0;
    for (std::size_t r = 0; r < kAdmissionRungs; ++r) {
      tr.rung_ns[r] = static_cast<std::uint64_t>(
          static_cast<double>(tr.rung_ns[r]) * k);
      tr.total_ns += tr.rung_ns[r];
    }
    tr.sequence = sequence;
    tr.task_id = id;
    tr.admitted = admitted;
    tr.rung = static_cast<std::uint8_t>(rung);
    if (m != nullptr) {
      // Rung histograms in ascending order: attempts/settled/rejects
      // are all derived from their sample counts, and recording r
      // before r + 1 keeps those differences non-negative even for a
      // reader racing this flush. The entire outcome tally then costs
      // one RMW (rung_admits on admit, nothing on reject).
      for (std::size_t r = 0; r < kAdmissionRungs; ++r) {
        if (((tr.rungs_entered >> r) & 1u) != 0) {
          m->rung_ns[r].record_at(ws, tr.rung_ns[r]);
        }
      }
      m->decision_ns.record_at(ws, tr.total_ns);
      if (admitted) {
        m->rung_admits[static_cast<std::size_t>(rung)].add_at(ws);
      }
      if (tr.group_size > 0) m->group_decisions.add_at(ws);
      if (tr.rollback) m->rollbacks.add_at(ws);
      const std::uint64_t compacted = compactions_now - compactions0;
      if (compacted != 0) m->tombstone_compactions.add_at(ws, compacted);
      // Scan internals accumulated across the decision's scans flush
      // here once; zero deltas skip the RMW entirely.
      if (scan_iters != 0) m->scan_iterations.add_at(ws, scan_iters);
      if (tr.refinements != 0) {
        m->scan_refinements.add_at(ws, tr.refinements);
      }
      if (tr.segments_walked != 0) {
        m->segments_walked.add_at(ws, tr.segments_walked);
      }
      if (tr.segments_fast_forwarded != 0) {
        m->segments_fast_forwarded.add_at(ws, tr.segments_fast_forwarded);
      }
    }
    if (ring != nullptr) ring->push(tr);
  }
};

/// Build the decision's certificate (opts.return_certificate): the
/// resident set is post-settlement here — it includes an admitted
/// arrival and has rolled back a rejected one. Infeasibility needs only
/// the analysis record; feasibility pays a construction sweep over the
/// residents. A failed construction (pathological U == 1 set past the
/// step cap) leaves kind == None rather than an unsound certificate.
Certificate decision_certificate(const FeasibilityResult& analysis,
                                 bool admitted, const TaskSet& resident) {
  if (!admitted && analysis.verdict == Verdict::Infeasible) {
    return make_infeasibility_certificate(analysis);
  }
  if (admitted) {
    if (std::optional<Certificate> cert =
            build_feasibility_certificate(resident)) {
      return *std::move(cert);
    }
  }
  return Certificate{};
}

/// One settled pass of the global-EDF admission ladder over the widened
/// (candidate-resident) set.
struct GlobalLadderOutcome {
  bool accept = false;
  AdmissionRung rung = AdmissionRung::Utilization;
  /// The backend whose condition decided (certificate construction
  /// re-derives exactly this condition).
  TestKind decided_by = TestKind::GfbDensity;
  FeasibilityResult analysis;
};

void fold_instrumentation(FeasibilityResult& acc,
                          const FeasibilityResult& r) {
  acc.iterations += r.iterations;
  acc.revisions += r.revisions;
  acc.max_interval_tested =
      std::max(acc.max_interval_tested, r.max_interval_tested);
  acc.degraded = acc.degraded || r.degraded;
}

/// The rung a global backend reports under (see the header comment):
/// GFB and its O(n) infeasibility gates are Utilization, the window
/// sufficient tests Approximate, RTA and the decisive sim Exact.
AdmissionRung global_rung(TestKind kind) noexcept {
  switch (kind) {
    case TestKind::GfbDensity: return AdmissionRung::Utilization;
    case TestKind::GlobalRta:
    case TestKind::GlobalSim: return AdmissionRung::Exact;
    default: return AdmissionRung::Approximate;
  }
}

/// Walk default_ladder_kinds(p) through the registry: the first
/// decisive verdict settles; skip_exact stops before the Exact rung
/// with Unknown (no infeasibility proof).
GlobalLadderOutcome run_global_ladder(const TaskSet& widened,
                                      const Platform& p, bool skip_exact,
                                      DecisionProbe& probe) {
  GlobalLadderOutcome out;
  const BackendRegistry& registry = BackendRegistry::instance();
  for (const TestKind kind : default_ladder_kinds(p)) {
    const AdmissionRung rung = global_rung(kind);
    if (rung == AdmissionRung::Exact && skip_exact) break;
    if (rung != out.rung) {
      probe.enter(rung);
      out.rung = rung;
    }
    const FeasibilityResult r =
        registry.find(kind)->run(widened, p, default_params(kind));
    fold_instrumentation(out.analysis, r);
    out.decided_by = kind;
    out.analysis.verdict = r.verdict;
    out.analysis.witness = r.witness;
    if (r.verdict != Verdict::Unknown) break;
  }
  out.accept = out.analysis.verdict == Verdict::Feasible;
  return out;
}

}  // namespace

const char* to_string(AdmissionRung r) noexcept {
  switch (r) {
    case AdmissionRung::Structural: return "structural";
    case AdmissionRung::Utilization: return "utilization";
    case AdmissionRung::Approximate: return "approximate";
    case AdmissionRung::Exact: return "exact";
  }
  return "?";
}

std::string AdmissionDecision::to_string() const {
  std::ostringstream os;
  os << "#" << sequence << " " << (admitted ? "admit" : "reject") << " via "
     << edfkit::to_string(rung) << " (" << edfkit::to_string(analysis.verdict)
     << ", effort=" << analysis.effort() << ")";
  return os.str();
}

std::string GroupDecision::to_string() const {
  std::ostringstream os;
  os << "#" << sequence << " group(" << ids.size() << ") "
     << (admitted ? "admit" : "reject") << " via "
     << edfkit::to_string(rung) << " (" << edfkit::to_string(analysis.verdict)
     << ", effort=" << analysis.effort() << ")";
  return os.str();
}

std::string AdmissionStats::to_string() const {
  std::ostringstream os;
  os << "arrivals=" << arrivals << " admitted=" << admitted
     << " rejected=" << rejected << " removals=" << removals
     << " groups=" << groups << " effort=" << total_effort << " rungs[";
  for (std::size_t i = 0; i < by_rung.size(); ++i) {
    if (i != 0) os << " ";
    os << edfkit::to_string(static_cast<AdmissionRung>(i)) << "="
       << by_rung[i];
  }
  os << "]";
  return os.str();
}

std::string AdmissionStats::to_json() const {
  std::ostringstream os;
  os << "{\"arrivals\":" << arrivals << ",\"admitted\":" << admitted
     << ",\"rejected\":" << rejected << ",\"removals\":" << removals
     << ",\"groups\":" << groups << ",\"total_effort\":" << total_effort
     << ",\"by_rung\":{";
  for (std::size_t i = 0; i < by_rung.size(); ++i) {
    if (i != 0) os << ',';
    os << '"' << edfkit::to_string(static_cast<AdmissionRung>(i)) << "\":"
       << by_rung[i];
  }
  os << "}}";
  return os.str();
}

AdmissionController::AdmissionController(AdmissionOptions opts)
    : opts_(opts), demand_(opts.epsilon) {
  if (!platform_valid(opts_.platform)) {
    throw std::invalid_argument("AdmissionController: invalid platform " +
                                edfkit::to_string(opts_.platform));
  }
}

AdmissionDecision AdmissionController::try_admit(const Task& t) {
  t.validate();
  // Write-ahead: the offered operation is durable before it executes,
  // so journal replay re-runs this exact call (rejections included —
  // their tentative insert consumes a TaskId and may learn refinement).
  if (journal_ != nullptr) journal_->append(journal_codec::admit(t));
  GroupDecision g = decide(std::span<const Task>(&t, 1), /*group=*/false);
  AdmissionDecision d;
  d.admitted = g.admitted;
  d.id = g.admitted ? g.ids.front() : kInvalidTaskId;
  d.rung = g.rung;
  d.analysis = g.analysis;
  d.sequence = g.sequence;
  d.certificate = std::move(g.certificate);
  return d;
}

GroupDecision AdmissionController::admit_group(std::span<const Task> group) {
  for (const Task& t : group) t.validate();  // before any mutation
  if (journal_ != nullptr) {
    journal_->append(journal_codec::admit_group(group));
  }
  return decide(group, /*group=*/true);
}

GroupDecision AdmissionController::decide(std::span<const Task> tasks,
                                          bool group) {
  GroupDecision d;
  d.sequence = ++sequence_;
  if (group) ++stats_.groups;
  stats_.arrivals += tasks.size();
  // Probe clock starts after the WAL append: rung timings measure
  // ladder work; journal latency has its own histograms.
  DecisionProbe probe(metrics_, trace_, demand_.compactions(),
                      group ? tasks.size() : 0);

  const auto settle = [&](bool admitted, AdmissionRung rung) {
    d.admitted = admitted;
    d.rung = rung;
    (admitted ? stats_.admitted : stats_.rejected) += tasks.size();
    ++stats_.by_rung[static_cast<std::size_t>(rung)];
    stats_.total_effort += d.analysis.effort();
    if (!admitted) d.ids.clear();
    if (opts_.return_certificate && opts_.platform.uniprocessor()) {
      d.certificate =
          decision_certificate(d.analysis, admitted, demand_.resident());
    }
    probe.finish(admitted, rung, d.sequence,
                 d.ids.empty() ? kInvalidTaskId : d.ids.front(),
                 demand_.compactions());
    return d;
  };

  if (tasks.empty()) {
    // Vacuous: the resident set is unchanged and (by the standing
    // invariant) feasible.
    d.analysis.verdict = Verdict::Feasible;
    return settle(true, AdmissionRung::Structural);
  }

  // Every rejecting rung below withdraws the tentative inserts
  // exact-inverse (membership and aggregates return to their pre-call
  // values; refinement the scan learned is kept). The withdrawn ids
  // stay consumed.
  const auto rollback = [&] {
    (void)demand_.remove_group(d.ids);
    probe.rollback();
  };

  if (global_mode()) {
    // Global ladder over the widened set: tentative insert, one settled
    // ladder pass, rollback on reject. The demand store's epsilon
    // machinery keeps its aggregates maintained but takes no part in
    // the verdict. Its density bounds settle most GFB accepts in O(1),
    // reporting exactly what the from-scratch gfb rung would (every
    // such accept is also one of gfb_density_test); whatever they
    // cannot prove runs the whole ladder, gfb first.
    probe.enter(AdmissionRung::Utilization);
    demand_.add_group(tasks, d.ids);
    GlobalLadderOutcome g;  // rung Utilization, decided_by GfbDensity
    if (multi::gfb_bounds_accept(demand_.density_bounds(),
                                 opts_.platform.m)) {
      g.accept = true;
      g.analysis.verdict = Verdict::Feasible;
      g.analysis.iterations = demand_.size();
    } else {
      g = run_global_ladder(demand_.resident(), opts_.platform,
                            opts_.skip_exact, probe);
    }
    d.analysis = g.analysis;
    if (opts_.return_certificate &&
        (g.accept || d.analysis.verdict == Verdict::Infeasible)) {
      // Certify while the widened set is still materialized: the
      // certificate's claim is about resident + candidates either way.
      if (auto cert = build_multiprocessor_certificate(
              demand_.resident(), opts_.platform, g.decided_by,
              d.analysis)) {
        d.certificate = *std::move(cert);
      }
    }
    if (!g.accept) rollback();
    return settle(g.accept, g.rung);
  }

  // Rung 1: exact utilization classification of the widened set,
  // mutation-free — saturation rejects touch no demand state at all.
  probe.enter(AdmissionRung::Utilization);
  d.analysis.iterations = 1;
  const UtilizationClass uc = demand_.utilization_class_with(tasks);
  if (uc == UtilizationClass::AboveOne) {
    d.analysis.verdict = Verdict::Infeasible;
    return settle(false, AdmissionRung::Utilization);
  }
  d.analysis.degraded = (uc == UtilizationClass::Marginal);
  bool implicit = uc != UtilizationClass::Marginal &&
                  demand_.constrained_tasks() == 0;
  for (const Task& t : tasks) {
    implicit = implicit && t.effective_deadline() >= t.period;
  }
  if (implicit) {
    // Every deadline (arrivals included) is at least its period: U <= 1
    // is exact (EDF optimality, cf. liu_layland_test).
    demand_.add_group(tasks, d.ids);
    d.analysis.verdict = Verdict::Feasible;
    return settle(true, AdmissionRung::Utilization);
  }

  // Rung 2 fast path: certificate-covered arrivals admit O(1) in
  // sequence (each add charges the certificate, so cover-then-add stays
  // sound). From the first uncovered one on, the rest insert fused and
  // *one* certified O(n*k) scan decides the whole widened set.
  probe.enter(AdmissionRung::Approximate);
  std::size_t covered = 0;
  while (covered < tasks.size() &&
         demand_.certificate_covers(tasks[covered])) {
    d.ids.push_back(demand_.add(tasks[covered]));
    ++covered;
  }
  probe.cover(covered == tasks.size());
  if (covered == tasks.size()) {
    d.analysis.verdict = Verdict::Feasible;
    return settle(true, AdmissionRung::Approximate);
  }
  demand_.add_group(tasks.subspan(covered), d.ids);
  const DemandCheck c = demand_.check();
  probe.scan(c);
  d.analysis.iterations += c.iterations;
  d.analysis.revisions += c.revisions;
  d.analysis.max_interval_tested = c.max_interval_tested;
  d.analysis.degraded = d.analysis.degraded || c.degraded;
  if (c.fits) {
    d.analysis.verdict = Verdict::Feasible;
    return settle(true, AdmissionRung::Approximate);
  }
  // The hybrid path found exact dbf(w) > w: a full infeasibility proof
  // with no exact-test escalation.
  if (c.overflow_proof) {
    rollback();
    d.analysis.witness = c.witness;
    d.analysis.verdict = Verdict::Infeasible;
    return settle(false, AdmissionRung::Approximate);
  }
  if (opts_.skip_exact) {
    rollback();
    d.analysis.witness = c.witness;
    d.analysis.verdict = Verdict::Unknown;  // no infeasibility proof
    return settle(false, AdmissionRung::Approximate);
  }

  // Rung 3: QPA over the widened resident set, zero-copy — the only
  // from-scratch rung, for borderline sets.
  probe.enter(AdmissionRung::Exact);
  const FeasibilityResult exact =
      query_exact(demand_.resident(), TestKind::Qpa);
  d.analysis.verdict = exact.verdict;
  d.analysis.iterations += exact.iterations;
  d.analysis.revisions += exact.revisions;
  d.analysis.witness = exact.witness;
  d.analysis.max_interval_tested =
      std::max(d.analysis.max_interval_tested, exact.max_interval_tested);
  d.analysis.degraded = d.analysis.degraded || exact.degraded;
  if (exact.feasible()) return settle(true, AdmissionRung::Exact);
  rollback();
  return settle(false, AdmissionRung::Exact);
}

bool AdmissionController::remove(TaskId id) {
  // Journaled even when the id turns out unknown: replaying a no-op
  // remove is a no-op, and recording before executing keeps the WAL
  // ordering uniform.
  if (journal_ != nullptr) journal_->append(journal_codec::remove(id));
  if (!demand_.remove(id)) return false;
  ++stats_.removals;
  if (metrics_ != nullptr) metrics_->removals.add();
  return true;
}

std::size_t AdmissionController::remove_group(std::span<const TaskId> ids) {
  if (journal_ != nullptr) {
    journal_->append(journal_codec::remove_group(ids));
  }
  const std::size_t gone = demand_.remove_group(ids);
  stats_.removals += gone;
  if (metrics_ != nullptr && gone != 0) metrics_->removals.add(gone);
  return gone;
}

void AdmissionController::attach_obs(obs::Obs* obs, std::size_t shard) {
  if (obs == nullptr || !obs->config().any()) {
    metrics_ = nullptr;
    trace_ = nullptr;
    return;
  }
  metrics_ = obs->config().metrics ? obs->admission() : nullptr;
  trace_ = obs->recorder().ring(shard);
}

const Task* AdmissionController::find(TaskId id) const noexcept {
  return demand_.find(id);
}

FeasibilityResult AdmissionController::analyze_resident(TestKind kind) const {
  return query_exact(demand_.resident(), kind);
}

FeasibilityResult AdmissionController::recheck_resident() const {
  const TaskSet& ts = demand_.resident();
  if (opts_.platform.uniprocessor()) {
    return query_exact(ts, TestKind::ProcessorDemand);
  }
  if (ts.empty()) return make_verdict(Verdict::Feasible);
  return Query::cascade(opts_.platform)
      .with_certificates(false)
      .run(ts)
      .analysis;
}

}  // namespace edfkit
