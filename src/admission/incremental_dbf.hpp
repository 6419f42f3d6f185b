/// \file incremental_dbf.hpp
/// Incrementally maintained approximated demand state for online
/// admission control.
///
/// The offline tests (analysis/, core/) answer "is this fixed set
/// feasible?" from scratch. An admission controller instead faces a
/// *mutable* set: tasks arrive and depart at runtime and every decision
/// must be cheap. This structure maintains, under task add/remove, the
/// state the paper's approximation schemes evaluate:
///
///   dbf'(I) = Sigma_t [ exact steps of the first L_t jobs,
///                       then the linear envelope C*(I-D+T)/T ]
///
/// as flat sorted checkpoint arrays (step corners + envelope borders).
/// Each task enters at level L_t = k = ceil(1/epsilon), contributing k
/// corners and one border, so add/remove costs O(k) searches plus one
/// contiguous merge pass. A feasibility check is one ascending scan —
/// no task-set rebuild, no per-task dbf re-evaluation.
///
/// Adaptive refinement (the paper's revision idea, made persistent):
/// when a scan fails at a checkpoint, the overestimation there comes
/// from tasks whose envelope border lies below it. Those tasks' levels
/// are raised until their borders clear the failing interval and the
/// scan restarts; if no envelope is active at a failing checkpoint its
/// value is the *exact* dbf and the failure is an infeasibility proof.
/// Refined levels persist across decisions, so a churn stream near the
/// admission boundary pays the refinement once and then scans the
/// learned structure — this is what keeps steady-state decisions far
/// below a from-scratch analysis.
///
/// Comparison discipline: the scan keeps certified 2^-62 fixed-point
/// interval state (util/fixedpoint.hpp) but decides most checkpoints
/// with a double-precision filter: IEEE double error over these
/// magnitudes is < 1e-12 ticks, so any checkpoint whose slack lies
/// outside a 1e-6-tick guard band is *proven* (certified-interval
/// widths are ~1e-15 ticks). Checkpoints inside the band re-compare
/// via int128, then exact rationals. Accepting verdicts remain proofs
/// end to end.
///
/// Exact-inverse updates: every per-task contribution (integer step
/// heights, per-task floor/ceil fixed-point pairs) is a deterministic
/// function of the task parameters and its level, so removal subtracts
/// component-wise exactly what addition added — the aggregates never
/// drift, which rebuild()/matches_rebuild() verify.
///
/// Tombstoned removals (the churn-throughput fast path): a departure
/// no longer memmoves every touched segment. Checkpoints whose last
/// referencing task left are *marked dead* (refs == 0, step == 0) and
/// left in place; the scan skips them. This is sound because a dead
/// checkpoint is provably never a failure point while U <= 1: demand
/// is affine between live checkpoints with slope Sigma u_active <= U
/// <= 1, so slack is non-decreasing across a dead time and the
/// preceding live checkpoint dominates it. Removal therefore costs
/// O(level) binary searches plus O(1) writes — no per-segment memmove.
/// Dead entries are reclaimed by *deferred compaction*: a segment
/// compacts once its dead fraction crosses a threshold (amortized O(1)
/// per removal), and resegmentation drops all tombstones wholesale. A
/// re-arriving checkpoint time resurrects its tombstone in place.
/// rebuild() is the tombstone-free reference: it rebuilds the store
/// from its rows at their levels.
///
/// Slack certificate (the O(1) fast path): a clean passing scan also
/// certifies theta = min_I (I - dbf'(I))/I, the minimum fractional
/// slack. Every per-task envelope satisfies dbf'(I, t) <= density(t)*I
/// for all I with density(t) = C/min(D_eff, T), so an arrival whose
/// density fits inside theta (and keeps U <= 1) is admissible without
/// any scan; theta just shrinks by the density. Removals only grow the
/// true slack, so the certificate stays valid (conservatively) across
/// departures.
///
/// Cached-slack index (the saturated-regime fast path): the checkpoint
/// store is partitioned into interval *segments*, each owning its slice
/// of the step/border arrays, their exact step/slope/offset sums, and a
/// certified lower bound on the minimum checkpoint slack *ratio* inside
/// it, measured by the last scan. Maintenance mirrors the certificate
/// calculus: an arrival debits every segment by its decayed
/// contribution-ratio bound (region_charge), a departure credits it
/// (region_credit), and refinement only lowers the demand, so bounds
/// survive churn conservatively. A segment whose bound stays
/// non-negative is *proven* to still fit and the next scan
/// fast-forwards over it using the exact sums — at U -> 1 a decision
/// rescans only the dirty segments around the tight region instead of
/// the whole checkpoint array. Segmenting also caps update cost: a
/// corner insert memmoves one segment (~hundreds of entries), not the
/// whole structure.
///
/// Index engagement is adaptive: per-update bound maintenance only pays
/// off once the store is large, so the index *engages* with hysteresis
/// on the resident count (on at >= kIndexOnResidents, off below
/// kIndexOffResidents — churn across one threshold cannot thrash).
/// While disengaged everything lives in one segment, no bounds are
/// maintained, and every scan walks end to end; verdicts are the same
/// either way. set_index_thresholds() moves the thresholds (tests and
/// benches pin a store engaged or disengaged with it).
///
/// Store header: header() assembles a small aggregate (resident and
/// checkpoint counts, utilization, certificate ratio) from the members
/// the store already keeps, stamped with an epoch. The epoch rises by 2
/// at construction and at every add, add_group, check and rebuild, every
/// remove or remove_group that withdrew a task, and every snapshot load
/// or reset (admission/snapshot.cpp). STATS carries it on the wire.
///
/// GFB density aggregate (the global mode's O(1) accept): next to the
/// utilization bounds the store keeps certified bounds on the density
/// sum Sigma C/min(D, T) and the max density over the gfb-eligible
/// residents (analysis/multi/global_tests.hpp), plus a count of the
/// ineligible ones. The sum is exact-inverse like every other
/// aggregate; the max goes stale when a max-density resident departs
/// and the next density_bounds() rescans in O(n), as d_max_ does. The
/// aggregate is derived state: snapshots do not carry it, the loader
/// recomputes it from the rows, and the header does not report it.
///
/// Residents live in a TaskView (demand/task_view.hpp): densely packed
/// structure-of-arrays rows behind stable slots, so the refinement loop
/// and the O(n) aggregates stream flat arrays instead of walking a
/// std::map, and the resident set is available zero-copy as a TaskSet
/// for the exact escalation rung.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "analysis/multi/global_tests.hpp"
#include "analysis/utilization.hpp"
#include "demand/task_view.hpp"
#include "model/task_set.hpp"
#include "util/fixedpoint.hpp"
#include "util/rational.hpp"

namespace edfkit {

/// Serializes/deserializes the store field-for-field (admission
/// snapshots — see admission/snapshot.hpp).
struct SnapshotCodec;

/// Stable handle for a resident task. Never reused within one structure.
using TaskId = std::uint64_t;
inline constexpr TaskId kInvalidTaskId = 0;

/// Outcome of one demand scan (instrumented like the offline tests:
/// `iterations` counts demand/capacity comparisons).
struct DemandCheck {
  /// Proof that the resident set is EDF-feasible (the refined
  /// approximated demand fits everywhere).
  bool fits = false;
  /// Set when a failing checkpoint carried no approximation error: the
  /// exact dbf exceeds `witness` — a full infeasibility proof.
  bool overflow_proof = false;
  std::uint64_t iterations = 0;
  /// Refinements performed (task levels raised) during this scan.
  std::uint64_t revisions = 0;
  Time max_interval_tested = 0;
  /// The overflow interval (overflow_proof), or the first unresolved
  /// checkpoint (!fits), or -1.
  Time witness = -1;
  bool degraded = false;      ///< a comparison needed the conservative path
  /// Scan internals (observability): segments actually walked vs.
  /// skipped whole via the cached-slack index's fast-forward branch.
  /// Restart passes (refinement) recount — these measure work done,
  /// not store shape.
  std::uint64_t segments_walked = 0;
  std::uint64_t segments_fast_forwarded = 0;
};

/// Aggregate view of the store (see header()).
struct StoreHeader {
  std::uint64_t epoch = 0;            ///< see the file comment
  std::uint64_t residents = 0;
  std::uint64_t constrained = 0;
  std::uint64_t live_checkpoints = 0;
  std::uint64_t dead_checkpoints = 0;  ///< tombstones awaiting compaction
  std::uint64_t segments = 0;
  double utilization = 0.0;            ///< certified upper bound, as double
  double cert_ratio = -1.0;            ///< min certified slack ratio; <0 none
};

/// Mutable task multiset + approximated demand checkpoints.
/// Not thread-safe: one AdmissionController owns and serializes it.
class IncrementalDemand {
 public:
  /// \pre 0 < epsilon <= 1. Initial steps per task: k = ceil(1/epsilon).
  /// The cached-slack index engages adaptively by resident count (see
  /// the file header).
  explicit IncrementalDemand(double epsilon = 0.25);

  /// Insert a task at level k; O(k log n + move). \throws
  /// std::invalid_argument (validate()).
  TaskId add(const Task& t);
  /// Withdraw a task (at whatever level it was refined to). With
  /// deferred compaction this is O(level) searches plus O(1) writes.
  /// \returns false for unknown ids.
  bool remove(TaskId id);

  /// Insert a whole group, appending the new ids to `ids` in group
  /// order. Equivalent to add() per task but amortizes the per-update
  /// overhead across the group: one cached-slack maintenance pass over
  /// the segments (instead of one per task) and one epoch step.
  /// \throws std::invalid_argument (validate()) before any mutation.
  void add_group(std::span<const Task> group, std::vector<TaskId>& ids);
  /// Withdraw a group of resident ids (unknown ids are skipped), with
  /// the same amortization as add_group — the group-admission rollback
  /// path. \returns the number of tasks withdrawn.
  std::size_t remove_group(std::span<const TaskId> ids);

  /// Pre-size every per-task array for `n` residents — bulk loading /
  /// warmup before churn. (The per-group paths deliberately do NOT
  /// reserve: exact-fit reservations every group would defeat the
  /// vectors' geometric growth.)
  void reserve(std::size_t n);

  /// Resident task by id, or nullptr. The pointer is invalidated by the
  /// next add/remove (rows are densely packed) — read, don't hold.
  [[nodiscard]] const Task* find(TaskId id) const noexcept;
  [[nodiscard]] std::size_t size() const noexcept { return view_.size(); }
  [[nodiscard]] bool empty() const noexcept { return view_.empty(); }
  [[nodiscard]] Time steps_per_task() const noexcept { return k_; }
  /// epsilon actually used (1/k after rounding k up).
  [[nodiscard]] double epsilon() const noexcept {
    return 1.0 / static_cast<double>(k_);
  }
  /// Number of resident tasks with effective deadline < period. When 0,
  /// U <= 1 alone already decides feasibility (EDF optimality).
  [[nodiscard]] std::size_t constrained_tasks() const noexcept {
    return constrained_;
  }
  /// Live checkpoints (tombstones excluded).
  [[nodiscard]] std::size_t checkpoint_count() const noexcept {
    return total_steps_;
  }
  /// Tombstoned checkpoints awaiting deferred compaction.
  [[nodiscard]] std::size_t dead_checkpoints() const noexcept {
    return dead_steps_;
  }
  /// Override the index-engagement hysteresis (tests/bench: 0, 0
  /// engages unconditionally; SIZE_MAX, SIZE_MAX never engages).
  /// \pre disengage_below <= engage_at.
  void set_index_thresholds(std::size_t engage_at,
                            std::size_t disengage_below);
  /// Current approximation level of a resident task (>= k after
  /// refinement). \returns 0 for unknown ids.
  [[nodiscard]] Time level_of(TaskId id) const noexcept;

  /// Exact utilization (lazily recomputed: the certified scaled bounds
  /// carry the fast paths; the rational is only materialized for
  /// hair-thin classifications and diagnostics).
  [[nodiscard]] const Rational& utilization() const;
  [[nodiscard]] double utilization_double() const noexcept;
  /// Same contract as analysis/utilization.hpp, evaluated in O(1) from
  /// the incrementally maintained certified bounds.
  [[nodiscard]] UtilizationClass utilization_class() const noexcept;
  /// Classification after a hypothetical add(t), without mutating. O(1).
  [[nodiscard]] UtilizationClass utilization_class_with(const Task& t) const;
  /// Classification after hypothetically adding every task of `group`,
  /// without mutating. O(|group|).
  [[nodiscard]] UtilizationClass utilization_class_with(
      std::span<const Task> group) const;

  /// True iff the slack certificate proves `t` admissible right now —
  /// the O(1) fast path. A subsequent add(t) charges the certificate,
  /// keeping it valid, so cover-then-add needs no scan.
  ///
  /// The certificate is segmented: a passing scan records the minimum
  /// fractional slack per region [X_j, X_{j+1}) of the checkpoint
  /// range. A candidate is charged per region with its *decayed*
  /// contribution-ratio bound u + K_t/max(X_j, D_t) (its envelope
  /// ratio falls from the density at D_t toward u), so late tight
  /// regions only see the task's utilization — far less than the flat
  /// density — and zero below its first deadline.
  [[nodiscard]] bool certificate_covers(const Task& t) const noexcept;
  /// Group fast path, without mutating: simulates the sequential
  /// cover-then-charge walk (each member is tested against the
  /// certificate as charged by its predecessors — exactly the state a
  /// real add sequence would produce) on a local copy of the regions.
  /// True proves the whole group admissible; a subsequent add_group
  /// applies the same charges for real.
  [[nodiscard]] bool certificate_covers(
      std::span<const Task> group) const noexcept;
  /// Certified S-scaled lower bound on the *global* minimum fractional
  /// slack theta, or -1 when no (non-negative) certificate is held.
  [[nodiscard]] Int128 certificate() const noexcept { return cert_lo_; }

  /// Certified GFB density bounds of the resident set, the input of
  /// multi::gfb_bounds_accept (the global mode's O(1) accept). O(1),
  /// except for one O(n) rescan after a max-density resident departed.
  [[nodiscard]] multi::DensityBounds density_bounds() const;

  /// One ascending checkpoint scan with adaptive refinement (see file
  /// header); stops early once the linear envelope provably fits
  /// forever (I >= max deadline and (1-U)*I >= K). A passing scan
  /// refreshes the slack certificate; a failing one drops it.
  ///
  /// `max_revisions` caps level raises this call (each also bounded by
  /// an internal per-task level ceiling); exceeding it returns !fits
  /// without proof — the caller escalates. With max_revisions == 0 the
  /// verdict semantics match chakraborty_test at level k on snapshot()
  /// (the tests assert this).
  [[nodiscard]] DemandCheck check();  ///< default budget 64 + 8n
  [[nodiscard]] DemandCheck check(std::uint64_t max_revisions);

  /// The store's aggregates, read from its members (see file header).
  [[nodiscard]] StoreHeader header() const noexcept;

  /// Exact (integer) demand bound function of the resident set at one
  /// interval; O(n) over the flat columns.
  [[nodiscard]] Time exact_dbf_at(Time interval) const noexcept;

  /// The resident set, zero-copy (dense row order; stays valid across
  /// add/remove). This is what the exact escalation rung analyzes —
  /// no snapshot materialization on the decision path.
  [[nodiscard]] const TaskSet& resident() const noexcept {
    return view_.as_task_set();
  }

  /// Materialize a copy of the resident set (dense row order). O(n).
  [[nodiscard]] TaskSet snapshot() const { return resident(); }

  /// From-scratch reconstruction of every aggregate from the resident
  /// tasks (preserving refinement levels) — the verification path for
  /// the incremental updates.
  void rebuild();
  /// True iff the incremental aggregates equal a from-scratch rebuild
  /// (tombstones are transparent: only live structure is compared).
  [[nodiscard]] bool matches_rebuild() const;

  /// Deferred tombstone-compaction passes performed so far
  /// (observability only — not serialized, so a recovered store
  /// restarts the count at zero).
  [[nodiscard]] std::uint64_t compactions() const noexcept {
    return compactions_;
  }

 private:
  /// Snapshot save/load touches every field (admission/snapshot.cpp);
  /// the decode path restores them one-for-one so a loaded store makes
  /// bit-identical decisions.
  friend struct SnapshotCodec;

  /// One step checkpoint: total demand jump at this interval. Kept
  /// small (24 bytes) — this is both the scan's hot array and the bulk
  /// of per-update memmove traffic. refs == 0 (implying step == 0) is a
  /// tombstone: skipped by scans, reclaimed by deferred compaction,
  /// resurrected in place when its time re-arrives.
  struct StepEntry {
    Time at = 0;             ///< the test interval
    Time step = 0;           ///< Sigma C of jobs with this deadline
    std::int64_t refs = 0;   ///< task-entries touching this checkpoint

    [[nodiscard]] bool operator==(const StepEntry& o) const noexcept {
      return at == o.at && step == o.step && refs == o.refs;
    }
  };
  /// Envelope begin: one per periodic task (its border is always also a
  /// step checkpoint), consumed by a second pointer during the scan.
  /// refs == 0 (slope/offset exactly zero by exact-inverse withdrawal)
  /// is a tombstone: the scan absorbs its zero contribution harmlessly;
  /// deferred compaction reclaims it.
  struct BorderEntry {
    Time at = 0;
    std::int64_t refs = 0;
    ScaledPair slope;        ///< Sigma u_t * S of envelopes starting here
    ScaledPair offset;       ///< Sigma u_t * border_t * S of the same

    [[nodiscard]] bool operator==(const BorderEntry& o) const noexcept {
      return at == o.at && refs == o.refs && slope.lo == o.slope.lo &&
             slope.hi == o.slope.hi && offset.lo == o.offset.lo &&
             offset.hi == o.offset.hi;
    }
  };

  /// One range [lo, hi) of the segmented checkpoint store: its slice of
  /// the sorted step/border arrays, their exact aggregate sums (for
  /// fast-forwarding), and the cached-slack bound — a certified lower
  /// bound on the minimum checkpoint slack *ratio* (slack/I) inside the
  /// range, or < 0 when dirty (the next scan must walk it).
  struct Segment {
    Time lo = 0;
    Time hi = kTimeInfinity;
    std::vector<StepEntry> steps;      ///< sorted by at, within [lo, hi)
    std::vector<BorderEntry> borders;  ///< sorted by at, within [lo, hi)
    std::int64_t step_sum = 0;         ///< Sigma steps[].step (live only)
    ScaledPair slope_sum;              ///< Sigma borders[].slope
    ScaledPair offset_sum;             ///< Sigma borders[].offset
    double min_ratio = -1.0;
    std::size_t dead = 0;              ///< tombstones inside steps
    std::size_t dead_borders = 0;      ///< tombstones inside borders
  };

  /// Add/withdraw the step corners of jobs [from_level, to_level) of t.
  void apply_corners(const Task& t, Time from_level, Time to_level,
                     int sign);
  /// Add/withdraw t's envelope border entry at level `level`.
  void apply_border(const Task& t, Time level, int sign);
  /// Everything for one task at `level` (corners, border, aggregates).
  /// Group ops pass adjust_slack = false and run one batched
  /// slack_adjust afterwards.
  void apply_entries(const Task& t, Time level, int sign,
                     bool adjust_slack = true);
  /// t's share of the GFB density aggregate (part of apply_entries).
  void apply_density(const Task& t, int sign);
  /// Recompute the whole density aggregate from the resident rows in one
  /// O(n) pass (the snapshot loader: the aggregate is not serialized).
  void rederive_density();
  /// add() body minus slack maintenance and the epoch step.
  TaskId add_one(const Task& t, bool adjust_slack);
  /// remove() body minus slack maintenance and the epoch step; the
  /// withdrawn task is appended to `withdrawn` (for the batched slack
  /// credit). \returns false for unknown ids.
  bool remove_one(TaskId id, bool adjust_slack,
                  std::vector<Task>* withdrawn);
  /// Raise one resident row's level. \pre to_level > current level.
  void refine(std::size_t row, Time to_level);
  [[nodiscard]] Rational exact_demand_at(Time interval) const;
  void ensure_util() const;

  /// Index into id_index_ of a *live* entry for `id`, or npos.
  [[nodiscard]] std::size_t id_pos(TaskId id) const noexcept;

  [[nodiscard]] std::size_t segment_of(Time at) const noexcept;
  /// Time of the idx-th *live* checkpoint across segments (tombstones
  /// excluded, so cut anchors do not depend on when tombstones are
  /// reclaimed). \pre idx < total_steps_
  [[nodiscard]] Time step_time_at(std::size_t idx) const noexcept;
  /// A genuinely new checkpoint time appeared in segment `seg`: bound
  /// its ratio through its existing neighbors (segment interiors have
  /// ratio at least the smaller endpoint ratio) or dirty the segment.
  void slack_note_new_time(std::size_t seg, Time pred, Time succ);
  /// Certificate-style maintenance of the per-segment ratio bounds:
  /// debit on arrival (region_charge at the segment's left edge),
  /// credit on departure (region_credit over the range). The group
  /// overload walks the segments once for the whole group.
  void slack_adjust(const Task& t, int sign);
  void slack_adjust(std::span<const Task> tasks, int sign);
  /// Re-partition the store so segments equidistribute checkpoints
  /// (single segment while the index is disengaged or the set is
  /// small). Tombstones are dropped wholesale; all bounds start dirty
  /// until a scan measures them.
  void resegment();
  /// Erase g's tombstones now (the deferred part of removal).
  void compact_segment(Segment& g);
  /// Flip index_engaged_ per the resident-count hysteresis; on
  /// disengage, dirty every cached bound (nothing maintains them while
  /// off).
  void update_index_engagement();
  /// Advance the header epoch by 2 (every mutating call's last step).
  void bump_epoch() noexcept { epoch_ += 2; }
  [[nodiscard]] DemandCheck do_check(std::uint64_t max_revisions);

  Time k_;
  /// Hysteresis state of the cached-slack index (see file header).
  bool index_engaged_ = false;
  std::size_t engage_at_;
  std::size_t disengage_below_;
  TaskId next_id_ = 1;
  /// Resident tasks: dense SoA rows behind stable slots.
  TaskView view_;
  /// Approximation level per dense row (mirrors view_'s swap-remove).
  std::vector<Time> levels_;
  /// Envelope border per dense row (deadline of job `level`;
  /// kTimeInfinity for one-shots) — the refinement loop's hot filter
  /// reads this single flat array instead of recomputing job deadlines.
  std::vector<Time> borders_of_row_;
  /// id -> slot, sorted by id (ids ascend, so inserts append). Binary
  /// search on lookup. Removal tombstones the entry (slot :=
  /// kInvalidSlot) instead of memmoving the tail; compaction is
  /// deferred until dead entries dominate.
  std::vector<std::pair<TaskId, TaskView::Slot>> id_index_;
  std::size_t dead_ids_ = 0;
  /// The segmented checkpoint store (always >= 1 segment covering
  /// [0, infinity); exactly 1 while the slack index is disengaged).
  std::vector<Segment> segs_;
  std::size_t total_steps_ = 0;       ///< live checkpoints across segments
  std::size_t dead_steps_ = 0;        ///< Sigma segs_[i].dead
  std::size_t seg_built_steps_ = 0;   ///< live total at last resegment
  std::vector<Time> corner_scratch_;  ///< reused per-update buffer
  /// Exact Sigma C/T, materialized lazily (rational gcds are far too
  /// expensive to pay on every add/remove; the scaled bounds below are
  /// maintained incrementally and decide all but exact-equality cases).
  mutable Rational util_;
  mutable bool util_valid_ = true;
  ScaledPair util_scaled_;      ///< certified S-scaled utilization bounds
  /// Certified bounds on K = Sigma C*(T - D_eff)/T, the intercept of
  /// the all-envelope line U*I + K (early-stop bound and, with U, the
  /// beyond-last-checkpoint slack).
  ScaledPair kay_;
  /// Max effective deadline of resident tasks (the envelope line only
  /// bounds dbf' from there on). Removing the max task marks it stale;
  /// the next scan recomputes it in O(n).
  mutable Time d_max_ = 0;
  mutable bool d_max_stale_ = false;
  /// GFB density aggregate (density_bounds()): the exact-inverse sum of
  /// the gfb-eligible residents' density pairs, their component-wise
  /// max, and the count of ineligible residents. Removing a max-density
  /// task marks the max stale; the next read rescans in O(n), as for
  /// d_max_. Eligible pairs are <= S each, so the sum cannot overflow.
  ScaledPair density_sum_;
  mutable ScaledPair density_max_;
  mutable bool density_max_stale_ = false;
  std::size_t gfb_ineligible_ = 0;
  /// Segmented slack certificate: cert_region_[j] is an S-scaled lower
  /// bound on the slack ratio over intervals in [cert_x_[j],
  /// cert_x_[j+1]) (the last region extends to infinity). -1 = none
  /// held. The empty set starts fully slack (theta = 1). cert_lo_
  /// mirrors the minimum over regions for diagnostics. Not part of
  /// matches_rebuild (path-dependent but always conservative).
  static constexpr std::size_t kCertCuts = 8;
  std::array<Time, kCertCuts> cert_x_{};
  std::array<Int128, kCertCuts> cert_region_;
  Int128 cert_lo_ = kFixedPointScale;
  bool cert_dead_ = false;  ///< every region -1: skip maintenance
  std::size_t constrained_ = 0;
  /// Deferred-compaction pass count (see compactions()).
  std::uint64_t compactions_ = 0;
  /// StoreHeader::epoch (see bump_epoch()).
  std::uint64_t epoch_ = 0;
};

}  // namespace edfkit
