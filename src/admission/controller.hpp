/// \file controller.hpp
/// Online admission controller: a long-lived, mutable task-set that
/// answers admit/remove/query requests through an escalation ladder
/// instead of a from-scratch analysis per decision.
///
/// Ladder (cheapest rung that decides wins):
///   1. Utilization — O(1) from the incrementally maintained exact
///      utilization: U > 1 rejects with proof; U <= 1 with no
///      constrained-deadline resident accepts with proof (EDF
///      optimality, cf. liu_layland_test).
///   2. Approximate demand — one O(n*k) checkpoint scan of the
///      epsilon-approximated dbf' (incremental_dbf.hpp). A pass is a
///      feasibility proof (sound accept); a fail escalates.
///   3. Exact — QPA over the resident set; this is the only rung that
///      pays from-scratch cost, and only borderline sets reach it. (The
///      exact tests differ in effort, not verdict, so one suffices.)
///
/// try_admit and admit_group share one decision function: a single
/// arrival is decided as a one-task group.
///
/// Removals are free: the demand bound function decreases pointwise and
/// utilization decreases, so a feasible resident set stays feasible —
/// the controller's standing invariant. Every decision returns a
/// FeasibilityResult-compatible instrumentation record.
///
/// Global mode (AdmissionOptions::platform.m > 1): one controller admits
/// against m identical processors under global EDF. The ladder walks
/// the multiprocessor portfolio in default_ladder_kinds(Platform) order
/// (query/query.hpp) through the backend registry, mapped onto the same
/// rung names so stats, traces, and wire STATS stay comparable with
/// uniprocessor tenants:
///   Utilization — the GFB density accept, O(1) when the density
///                 bounds IncrementalDemand maintains prove it with
///                 margin (multi::gfb_bounds_accept). Otherwise the
///                 from-scratch O(n) gfb sweep runs: its accept, or its
///                 U > m capacity and C > D rejects (exact rationals).
///                 A fast accept reports exactly what the sweep would
///                 (Feasible, iterations = |widened set|);
///   Approximate — the window sufficient tests (BCL, iterated BCL,
///                 load/busy-window), cheapest first;
///   Exact       — global RTA, then the decisive m-processor simulation
///                 rung (a sim miss is an infeasibility proof; accepts
///                 carry periodic-interpretation semantics, see
///                 sim/oracle.hpp).
/// Monotone removal safety holds unchanged: every global sufficient
/// condition is monotone in the task set, so the standing invariant
/// survives removals. With return_certificate, every decided outcome
/// carries a MultiprocessorCertificate (query/certificate.hpp) built
/// over the widened set while it is still materialized.
///
/// Not thread-safe: each network tenant owns one controller, driven
/// only from the server's event-loop thread.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "admission/incremental_dbf.hpp"
#include "model/platform.hpp"
#include "query/certificate.hpp"
#include "query/registry.hpp"

namespace edfkit {

namespace persist {
class Journal;
}

namespace obs {
class Obs;
class TraceRing;
struct AdmissionInstruments;
}  // namespace obs

/// Which ladder rung produced a decision.
enum class AdmissionRung : std::uint8_t {
  Structural,   ///< the empty group: vacuously admitted, no analysis
  Utilization,  ///< rung 1: exact U-vs-1 classification
  Approximate,  ///< rung 2: epsilon-approximate demand scan
  Exact,        ///< rung 3: exact test (QPA)
};
inline constexpr std::size_t kAdmissionRungs = 4;

[[nodiscard]] const char* to_string(AdmissionRung r) noexcept;

struct AdmissionOptions {
  /// Accuracy of the approximate rung; k = ceil(1/epsilon) checkpoints
  /// per task. Smaller epsilon accepts more sets without escalating but
  /// scans more checkpoints. (Refinement deepens individual tasks on
  /// demand, so the paper's standard 0.25 is a good default.)
  double epsilon = 0.25;
  /// Skip rung 3 entirely: borderline arrivals are rejected after the
  /// approximate scan (bounded worst-case decision latency).
  bool skip_exact = false;
  /// Attach a machine-checkable certificate (query/certificate.hpp) to
  /// every decision that proves something: a feasibility certificate on
  /// admits, an infeasibility certificate on proven rejects (Unknown
  /// rejects carry none). The caller — or a remote client, over
  /// the wire — can then verify() the verdict independently against its
  /// own view of the set. Off by default: each admit pays one
  /// certificate-construction sweep over the resident set, and journal
  /// replay re-pays it (the option is serialized with the controller).
  bool return_certificate = false;
  /// Execution platform. m == 1 (default) is the classic uniprocessor
  /// ladder; m > 1 switches the controller into *global* admission mode
  /// (see the file comment). epsilon applies only to the uniprocessor
  /// ladder. Serialized with the controller.
  Platform platform;
};

/// One admit/reject decision, instrumented like the offline tests.
struct AdmissionDecision {
  bool admitted = false;
  /// Handle for a later remove(); kInvalidTaskId when rejected.
  TaskId id = kInvalidTaskId;
  AdmissionRung rung = AdmissionRung::Structural;
  /// Verdict semantics: Feasible = proof the widened set is feasible;
  /// Infeasible = proof it is not; Unknown = rejected by a sufficient
  /// rung without an infeasibility proof.
  FeasibilityResult analysis;
  /// Monotone per-controller decision counter.
  std::uint64_t sequence = 0;
  /// With AdmissionOptions::return_certificate: feasibility certificate
  /// over the post-admit resident set, or infeasibility certificate for
  /// a proven reject. kind == None otherwise (option off, or Unknown
  /// verdict).
  Certificate certificate;

  [[nodiscard]] std::string to_string() const;
};

/// One all-or-nothing group decision: either every task of the group
/// was admitted (ids in group order) or the resident set is unchanged.
struct GroupDecision {
  bool admitted = false;
  /// One handle per group member, in order; empty when rejected.
  std::vector<TaskId> ids;
  AdmissionRung rung = AdmissionRung::Structural;
  /// Verdict semantics as AdmissionDecision, for the *whole widened
  /// set* (resident + group): one scan decides the group.
  FeasibilityResult analysis;
  std::uint64_t sequence = 0;
  /// Certificate semantics as AdmissionDecision, for the whole widened
  /// set.
  Certificate certificate;

  [[nodiscard]] std::string to_string() const;
};

/// Running controller counters.
struct AdmissionStats {
  std::uint64_t arrivals = 0;  ///< tasks offered (group members count)
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t removals = 0;
  /// Group decisions taken (each also counts its tasks in arrivals and
  /// one decision in by_rung).
  std::uint64_t groups = 0;
  /// Decisions settled per rung (indexed by AdmissionRung).
  std::array<std::uint64_t, kAdmissionRungs> by_rung{};
  /// Sum of FeasibilityResult::effort() over all decisions.
  std::uint64_t total_effort = 0;

  [[nodiscard]] std::string to_string() const;
  /// Machine-readable rendering (keys mirror the field names; by_rung
  /// is an object keyed by rung name).
  [[nodiscard]] std::string to_json() const;
};

class AdmissionController {
 public:
  /// \throws std::invalid_argument on an epsilon outside (0, 1] or an
  /// invalid platform.
  explicit AdmissionController(AdmissionOptions opts = {});

  /// True when the controller admits against m > 1 processors under
  /// global EDF (AdmissionOptions::platform).
  [[nodiscard]] bool global_mode() const noexcept {
    return !opts_.platform.uniprocessor();
  }
  [[nodiscard]] const Platform& platform() const noexcept {
    return opts_.platform;
  }

  /// Admit `t` iff the widened resident set is provably EDF-feasible.
  /// On rejection the resident set is unchanged. \throws
  /// std::invalid_argument for invalid tasks.
  [[nodiscard]] AdmissionDecision try_admit(const Task& t);

  /// Admit the whole group atomically (all-or-nothing): the group's
  /// checkpoints are inserted in one pass and a *single* certified scan
  /// decides the widened set — one scan for g tasks instead of g scans.
  /// On rejection every insertion is rolled back exact-inverse: the
  /// resident membership and every aggregate return to their pre-call
  /// values (refinement the failing scan learned is kept, as for a
  /// rejected single arrival). An empty group is trivially admitted.
  /// \throws std::invalid_argument for invalid tasks (before any
  /// mutation).
  [[nodiscard]] GroupDecision admit_group(std::span<const Task> group);

  /// Withdraw a resident task. Feasibility is preserved by
  /// monotonicity; with deferred compaction this is O(level) amortized.
  /// \returns false for unknown ids.
  bool remove(TaskId id);

  /// Withdraw a whole group (unknown ids skipped) with the per-update
  /// overhead amortized across the group — the departure path for
  /// group-admitted tasks. \returns the number withdrawn.
  std::size_t remove_group(std::span<const TaskId> ids);

  [[nodiscard]] const Task* find(TaskId id) const noexcept;
  [[nodiscard]] std::size_t size() const noexcept { return demand_.size(); }
  [[nodiscard]] bool empty() const noexcept { return demand_.empty(); }
  [[nodiscard]] double utilization() const noexcept {
    return demand_.utilization_double();
  }
  [[nodiscard]] const AdmissionOptions& options() const noexcept {
    return opts_;
  }
  [[nodiscard]] const AdmissionStats& stats() const noexcept { return stats_; }

  /// The resident set, zero-copy (see IncrementalDemand::resident).
  [[nodiscard]] const TaskSet& resident() const noexcept {
    return demand_.resident();
  }

  /// The demand store's aggregates (IncrementalDemand::header()). Not
  /// safe to call while another thread mutates the controller.
  [[nodiscard]] StoreHeader demand_header() const noexcept {
    return demand_.header();
  }

  /// Materialize a copy of the resident set. O(n).
  [[nodiscard]] TaskSet snapshot() const { return demand_.snapshot(); }

  /// From-scratch analysis of the resident set (verification path; the
  /// standing invariant is that this is Feasible for exact kinds).
  [[nodiscard]] FeasibilityResult analyze_resident(
      TestKind kind = TestKind::ProcessorDemand) const;

  /// The standing invariant's re-check on the controller's own platform,
  /// as the server drain and edfkit_fsck run it: one processor gets the
  /// exact processor-demand test; m > 1 gets the global ladder
  /// (default_ladder_kinds(platform()), as Query::cascade runs it),
  /// first decisive verdict wins. A healthy global set above U = 1
  /// fails the uniprocessor test, so that test cannot judge it.
  [[nodiscard]] FeasibilityResult recheck_resident() const;

  /// Verify the incremental aggregates against a from-scratch rebuild.
  [[nodiscard]] bool verify_consistency() const {
    return demand_.matches_rebuild();
  }

  /// Write-ahead journaling (admission/snapshot.hpp): while attached,
  /// every offered operation — try_admit, admit_group, remove,
  /// remove_group, *including* rejected admits, whose tentative
  /// insert/remove cycle consumes a TaskId and may refine levels —
  /// appends one record before it executes, so replaying the journal
  /// through these same entry points reproduces the store
  /// bit-identically. Pass nullptr to detach (recovery replays
  /// detached). The journal must outlive the attachment.
  void attach_journal(persist::Journal* journal) noexcept {
    journal_ = journal;
  }
  [[nodiscard]] persist::Journal* journal() const noexcept {
    return journal_;
  }

  /// Observability (src/obs/): while attached, every decision updates
  /// the ladder's per-rung counters + cost histograms and pushes one
  /// DecisionTrace into the recorder's ring for `shard`. Purely
  /// read-side — verdicts, ids and the serialized store are unchanged,
  /// so a recovered controller may attach where its crashed twin did
  /// not. Pass nullptr (or a disabled Obs) to detach. The Obs must
  /// outlive the attachment.
  void attach_obs(obs::Obs* obs, std::size_t shard = 0);

 private:
  /// Snapshot save/load reaches every field (admission/snapshot.cpp).
  friend struct SnapshotCodec;

  /// The ladder itself, behind both try_admit (a one-task span, with
  /// `group` false: no stats().groups count) and admit_group. The
  /// caller has validated and journaled the offer.
  [[nodiscard]] GroupDecision decide(std::span<const Task> tasks, bool group);

  AdmissionOptions opts_;
  IncrementalDemand demand_;
  AdmissionStats stats_;
  std::uint64_t sequence_ = 0;
  persist::Journal* journal_ = nullptr;
  /// Not serialized: observability is runtime wiring, not store state.
  const obs::AdmissionInstruments* metrics_ = nullptr;
  obs::TraceRing* trace_ = nullptr;
};

}  // namespace edfkit
