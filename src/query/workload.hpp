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
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
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

  /// Implicit from a task set: a TaskSet can be passed wherever a
  /// Workload is taken.
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
  /// std::once_flag (safe to call from concurrent callers).
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

}  // namespace edfkit
