/// \file replay.hpp
/// Arrival/departure trace driver: synthetic churn workloads for the
/// admission subsystem, drawn from the paper's §5 scenario families
/// (gen/scenario.hpp) so online experiments use the same task
/// populations as the offline figures.
///
/// A trace is a flat event list. Arrivals carry the task (or, for
/// group arrivals, the whole task group — admitted all-or-nothing via
/// admit_group) and a unique key; departures reference the key of an
/// earlier arrival and withdraw everything it admitted. Whether an
/// arrival was *admitted* is only known at replay time, so departures
/// of rejected (or already-departed) keys are counted and skipped —
/// traces stay valid for any controller configuration.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "admission/controller.hpp"
#include "persist/journal.hpp"
#include "util/random.hpp"

namespace edfkit {

namespace obs {
class Obs;
}

/// Crash marks a process-death point in the trace: the persistence-
/// enabled controller replay drops all in-memory state there and
/// recovers from its snapshot + journal before continuing — a
/// deterministic, fork-free way to exercise the resume path (the CI
/// harness additionally SIGKILLs a real child process). Replays without
/// persistence count and skip it.
enum class TraceOp : std::uint8_t { Arrive, ArriveGroup, Depart, Crash };

struct TraceEvent {
  TraceOp op = TraceOp::Arrive;
  /// Unique per arrival; a departure names the arrival it withdraws.
  std::uint64_t key = 0;
  /// Meaningful for Arrive only.
  Task task;
  /// Meaningful for ArriveGroup only: admitted atomically, departed
  /// together when `key` departs.
  std::vector<Task> group;
};

struct ChurnConfig {
  /// Total events after warmup.
  std::size_t events = 1000;
  /// Unconditional leading arrivals, to fill the system before churn.
  std::size_t warmup_arrivals = 0;
  /// Probability that a churn event departs a live key (when any).
  double depart_probability = 0.5;
  /// Scenario family supplying the task population.
  enum class Family : std::uint8_t {
    Small,  ///< draw_small_set — coarse periods, simulable
    Paper,  ///< draw_fig8_set — the §5 benchmark parameters
    Fixed,  ///< generate_task_set with exactly `fixed_tasks` per set —
            ///< per-task utilization ~ pool_utilization/fixed_tasks, for
            ///< sweeping resident size at a constant load factor
  };
  Family family = Family::Paper;
  /// Utilization of each drawn pool set (per draw_*_set's contract).
  double pool_utilization = 0.9;
  /// Tasks per drawn set for Family::Fixed.
  int fixed_tasks = 50;
  /// Probability that an arrival event is a *group* arrival of
  /// `group_size` tasks (admitted all-or-nothing). 0 = single-task
  /// traces (the historical shape).
  double group_probability = 0.0;
  std::size_t group_size = 4;
  /// Probability that a churn event is a TraceOp::Crash marker (the
  /// persistence replay recovers there; other replays skip it).
  double crash_probability = 0.0;

  void validate() const;
};

/// Deterministically generate a churn trace from `rng`. Tasks are drawn
/// by flattening scenario sets into an arrival pool; departures pick a
/// uniformly random not-yet-departed earlier arrival.
[[nodiscard]] std::vector<TraceEvent> generate_churn_trace(
    Rng& rng, const ChurnConfig& cfg);

/// Aggregated outcome of replaying one trace.
struct ReplayStats {
  std::uint64_t arrivals = 0;  ///< tasks offered (group members count)
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  /// Group arrival events (their tasks are folded into the task
  /// counters above; one decision per group in by_rung).
  std::uint64_t groups = 0;
  std::uint64_t departures = 0;
  /// Departures whose key was never admitted (or already left).
  std::uint64_t skipped_departures = 0;
  std::array<std::uint64_t, kAdmissionRungs> by_rung{};
  std::uint64_t total_effort = 0;
  std::size_t peak_resident = 0;
  double peak_utilization = 0.0;
  /// TraceOp::Crash events encountered (recovered through in the
  /// persistence replay, skipped otherwise).
  std::uint64_t crashes = 0;
  /// Snapshots written by the persistence replay.
  std::uint64_t snapshots = 0;

  [[nodiscard]] std::string to_string() const;
};

/// Drive a single controller through the trace, in order. With `obs`
/// attached (src/obs/), the driver folds its event counters into the
/// replay_* metrics when done — per-decision instrumentation is the
/// controller's own attach_obs concern, not the driver's.
ReplayStats replay_trace(const std::vector<TraceEvent>& trace,
                         AdmissionController& controller,
                         obs::Obs* obs = nullptr);

/// Durability wiring for the persistence-enabled controller replay.
struct ReplayPersistence {
  /// Snapshot file; empty = journal-only durability.
  std::string snapshot_path;
  /// Journal file (created, or resumed with its torn tail truncated);
  /// empty = snapshot-only durability.
  std::string journal_path;
  /// Trace events between snapshots; 0 = never snapshot mid-run.
  std::size_t snapshot_every = 0;
  persist::FsyncPolicy fsync = persist::FsyncPolicy::None;
};

/// As replay_trace(trace, controller), additionally journaling every
/// admission operation (controller.attach_journal for the duration),
/// writing a snapshot every `snapshot_every` events, and servicing
/// TraceOp::Crash events by recovering the controller in place from
/// snapshot + journal — the crash/resume driver behind the
/// crash-recovery CI harness.
/// With `obs`, every journal this replay opens (including re-opens
/// after a crash) additionally records append/fsync latency.
ReplayStats replay_trace(const std::vector<TraceEvent>& trace,
                         AdmissionController& controller,
                         const ReplayPersistence& persistence,
                         obs::Obs* obs = nullptr);

}  // namespace edfkit
