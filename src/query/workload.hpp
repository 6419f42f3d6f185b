/// \file workload.hpp
/// The workload abstraction of the unified query API: a variant over the
/// sporadic task-set model and Gresser event-stream sets, so RTC-style
/// bursty workloads are first-class inputs to every feasibility backend.
///
/// Backends analyze the *canonical sporadic form*: for periodic/sporadic
/// workloads that is the task set itself; for event streams it is the
/// demand-preserving expansion of model/event_stream.hpp (one sporadic
/// task (C, D + a, z) per tuple), under which every verdict carries over
/// verbatim. The expansion is computed once and cached (thread-safe:
/// concurrent tasks() calls synchronize on a std::once_flag).
///
/// `Workload` owns its tasks/streams. `WorkloadView` is the non-owning
/// companion for hot paths (one view per query, zero task copies) — see
/// below and the README migration guide.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "model/event_stream.hpp"
#include "model/task_set.hpp"

namespace edfkit {

/// Workload families a backend can declare support for.
enum class WorkloadKind : std::uint8_t {
  PeriodicTasks,  ///< sporadic/periodic task set (the paper's base model)
  EventStreams,   ///< Gresser event-stream tasks (paper §2/§3.6)
};

[[nodiscard]] const char* to_string(WorkloadKind k) noexcept;

class Workload {
 public:
  /// Empty periodic workload (rejected by Query::run — see query.hpp).
  Workload() : data_(TaskSet{}) {}

  /// Implicit from a task set: lets call sites pass a TaskSet straight
  /// to Query::run.
  Workload(TaskSet ts) : data_(std::move(ts)) {}  // NOLINT(runtime/explicit)

  // Copies get a fresh expansion cache (a std::once_flag cannot be
  // copied), so a copied stream workload re-expands on first use;
  // moves steal the cache, keeping an already computed expansion.
  Workload(const Workload& o);
  Workload& operator=(const Workload& o);
  Workload(Workload&& o) noexcept;
  Workload& operator=(Workload&& o) noexcept;

  [[nodiscard]] static Workload periodic(TaskSet ts) {
    return Workload(std::move(ts));
  }
  [[nodiscard]] static Workload event_streams(
      std::vector<EventStreamTask> streams);

  [[nodiscard]] WorkloadKind kind() const noexcept {
    return std::holds_alternative<TaskSet>(data_)
               ? WorkloadKind::PeriodicTasks
               : WorkloadKind::EventStreams;
  }

  /// True when no task/stream is present.
  [[nodiscard]] bool empty() const noexcept;

  /// Number of source entities: tasks, or streams (not expanded tuples).
  [[nodiscard]] std::size_t source_size() const noexcept;

  /// Canonical sporadic form every backend runs on. For event streams
  /// this is the exact dbf-preserving expansion, computed once under a
  /// std::once_flag (safe to call from concurrent query threads).
  [[nodiscard]] const TaskSet& tasks() const;

  /// The stream set. \pre kind() == WorkloadKind::EventStreams
  [[nodiscard]] const std::vector<EventStreamTask>& streams() const;

  /// Exact utilization of the canonical form, as double (reporting).
  [[nodiscard]] double utilization_double() const {
    return tasks().utilization_double();
  }

  /// "tasks(n=..)" or "streams(n=.., expanded=..)".
  [[nodiscard]] std::string to_string() const;

 private:
  /// Stream-expansion cache. Heap-allocated so the enclosing Workload
  /// stays copyable/movable; guarded by the once_flag (the old mutable
  /// bool + TaskSet pair was a data race under concurrent tasks()).
  /// Allocated only for stream-backed workloads — the invariant is
  /// expansion_ != nullptr iff data_ holds streams.
  struct Expansion {
    std::once_flag once;
    TaskSet tasks;
  };

  [[nodiscard]] std::unique_ptr<Expansion> fresh_expansion() const;

  std::variant<TaskSet, std::vector<EventStreamTask>> data_;
  mutable std::unique_ptr<Expansion> expansion_;
};

/// Non-owning view of an analyzable workload: a reference to the tasks
/// plus their lazily cached aggregates. `Query::run(const WorkloadView&)`
/// is the hot entry point — constructing a `Workload` copies the task
/// set; a view copies nothing. The viewed storage must outlive the view
/// (it is meant to be built at the call site: `q.run(WorkloadView(ts))`).
///
/// Four backings:
///   - a `TaskSet` — zero-copy, aggregates come from the set's caches;
///   - a `Workload` — zero-copy pass-through (streams expand in the
///     workload's own cache);
///   - a raw `std::span<const Task>` — the canonical TaskSet is
///     materialized once on first use (one copy, owned by the view);
///   - an overlay: a base `TaskSet` plus an extra task span (a
///     candidate group over the resident set) — the combined set
///     materializes once on first use, so a "would this group fit?"
///     query never mutates the base and copies at most once.
class WorkloadView {
 public:
  /// View over a task set (implicit: hot call sites read naturally).
  WorkloadView(const TaskSet& ts) noexcept  // NOLINT(runtime/explicit)
      : set_(&ts) {}
  /// View over a full workload (task sets and event streams alike).
  WorkloadView(const Workload& w) noexcept  // NOLINT(runtime/explicit)
      : workload_(&w) {}
  /// View over raw task storage (e.g. a TaskView's dense rows).
  explicit WorkloadView(std::span<const Task> tasks) noexcept
      : span_(tasks) {}
  /// Overlay view: `base` plus a candidate `extra` group, analyzed as
  /// one workload (the group-admission plumbing). Zero-copy when
  /// `extra` is empty.
  WorkloadView(const TaskSet& base, std::span<const Task> extra) noexcept {
    if (extra.empty()) {
      set_ = &base;
    } else {
      base_ = &base;
      span_ = extra;
    }
  }

  WorkloadView(const WorkloadView&) = delete;
  WorkloadView& operator=(const WorkloadView&) = delete;

  [[nodiscard]] WorkloadKind kind() const noexcept {
    return workload_ != nullptr ? workload_->kind()
                                : WorkloadKind::PeriodicTasks;
  }
  [[nodiscard]] bool empty() const noexcept;
  [[nodiscard]] std::size_t source_size() const noexcept;

  /// Canonical sporadic form (zero-copy for set/workload backings).
  [[nodiscard]] const TaskSet& tasks() const;

  [[nodiscard]] double utilization_double() const {
    return tasks().utilization_double();
  }
  [[nodiscard]] std::string to_string() const;

 private:
  const Workload* workload_ = nullptr;
  const TaskSet* set_ = nullptr;
  const TaskSet* base_ = nullptr;     ///< overlay backing: base set
  std::span<const Task> span_;        ///< raw backing, or overlay extra
  mutable std::once_flag once_;       ///< span/overlay: materialize once
  mutable TaskSet materialized_;      ///< span/overlay backing only
};

}  // namespace edfkit
