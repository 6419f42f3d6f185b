/// \file engine.hpp
/// Sharded multi-processor admission engine.
///
/// Partitioned EDF: N shards, each a uniprocessor AdmissionController
/// behind its own mutex, so concurrent admission streams scale across
/// cores. An arrival is placed by a heuristic (first-fit / worst-fit /
/// best-fit over the shards' load estimates) and tried against shards in
/// that order until one admits it — the classic partitioned test-cascade
/// (cf. schedcat's partitioned heuristics).
///
/// Two entry points:
///   admit()/admit_group()/remove() — synchronous, thread-safe,
///     callable from any number of client threads concurrently;
///   submit() — enqueue onto the engine's worker-thread pool and get a
///     std::future, for callers that want pipelined decisions.
///
/// Reads do not convoy on the shard mutexes: every mutation publishes
/// the shard's counters into a double-buffered set of epoch-versioned
/// atomic headers, and stats() composes per-shard snapshots from them
/// wait-free — a monitoring loop polling stats() at high rate costs
/// the admit path nothing. stats_locked() remains for callers that
/// need fully up-to-the-instant counters.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "admission/controller.hpp"
#include "util/seqlock.hpp"

namespace edfkit {

namespace obs {
class Obs;
struct EngineInstruments;
}  // namespace obs

/// Shard-qualified task handle.
struct GlobalTaskId {
  std::uint32_t shard = UINT32_MAX;
  TaskId local = kInvalidTaskId;

  [[nodiscard]] bool valid() const noexcept {
    return local != kInvalidTaskId;
  }
  [[nodiscard]] bool operator==(const GlobalTaskId& o) const noexcept {
    return shard == o.shard && local == o.local;
  }
};

enum class PlacementPolicy : std::uint8_t {
  FirstFit,  ///< shards in index order (stable packing)
  WorstFit,  ///< least-loaded shard first (load balancing)
  BestFit,   ///< most-loaded shard that still fits first (tight packing)
};

[[nodiscard]] const char* to_string(PlacementPolicy p) noexcept;

struct EngineOptions {
  std::size_t shards = 4;  ///< partitions (processors); >= 1
  PlacementPolicy placement = PlacementPolicy::FirstFit;
  /// Per-shard controller options. When `admission.platform.m > 1`
  /// the engine runs in *global* mode: one controller admits the whole
  /// set against m processors (global EDF), so `shards` is coerced to
  /// 1 and `placement` is irrelevant — partitioned sharding and global
  /// admission are mutually exclusive views of the same m processors.
  AdmissionOptions admission;
  /// Worker threads behind submit(); 0 = hardware_concurrency.
  std::size_t workers = 0;
};

/// Outcome of one placement attempt.
struct PlacementDecision {
  bool admitted = false;
  GlobalTaskId id;  ///< valid iff admitted
  /// Rung that settled the decision on the admitting shard (or on the
  /// last shard tried when rejected everywhere).
  AdmissionRung rung = AdmissionRung::Structural;
  std::uint32_t shards_tried = 0;
  FeasibilityResult analysis;  ///< from the same shard as `rung`
};

/// Outcome of one all-or-nothing group placement: the whole group lands
/// on a single shard (co-scheduled partitioned EDF) or nowhere.
struct GroupPlacement {
  bool admitted = false;
  std::uint32_t shard = UINT32_MAX;     ///< valid iff admitted
  std::vector<GlobalTaskId> ids;        ///< group order; empty on reject
  AdmissionRung rung = AdmissionRung::Structural;
  std::uint32_t shards_tried = 0;
  FeasibilityResult analysis;
};

/// Aggregate snapshot across shards.
struct EngineStats {
  AdmissionStats admission;  ///< merged controller counters
  std::size_t resident = 0;
  double total_utilization = 0.0;  ///< sum over shards
  std::vector<double> shard_utilization;
  std::vector<std::size_t> shard_resident;
  /// Platform the counters were earned against: partitioned engines
  /// report one processor per shard; a global engine reports its
  /// controller's platform width.
  std::uint32_t processors = 1;
  bool global = false;  ///< global-EDF mode (one m-processor controller)
  /// Cumulative seqlock read retries ("lapped reader" count) the
  /// wait-free stats path has paid across the engine's lifetime, as of
  /// this snapshot: each retry is a publication that landed while a
  /// header copy was in flight. stats_locked() reports the running
  /// total without adding to it.
  std::uint64_t stats_read_retries = 0;

  [[nodiscard]] std::string to_string() const;
  /// Machine-readable rendering (nests AdmissionStats::to_json()).
  [[nodiscard]] std::string to_json() const;
};

class AdmissionEngine {
 public:
  /// \throws std::invalid_argument for shards == 0 or bad controller
  /// options. Worker threads are spawned lazily on the first submit();
  /// synchronous-only users never pay for a parked pool.
  explicit AdmissionEngine(EngineOptions opts = {});
  ~AdmissionEngine();

  AdmissionEngine(const AdmissionEngine&) = delete;
  AdmissionEngine& operator=(const AdmissionEngine&) = delete;

  /// Place one task; thread-safe. Tries shards in placement order until
  /// one admits.
  [[nodiscard]] PlacementDecision admit(const Task& t);

  /// Place a whole group atomically on one shard; thread-safe. Tries
  /// shards in placement order (by the group's summed utilization)
  /// until one admits the group all-or-nothing with a single scan —
  /// see AdmissionController::admit_group.
  [[nodiscard]] GroupPlacement admit_group(std::span<const Task> group);

  /// Withdraw a placed task; thread-safe.
  bool remove(GlobalTaskId id);

  /// Enqueue a placement onto the worker pool.
  [[nodiscard]] std::future<PlacementDecision> submit(Task t);

  [[nodiscard]] std::size_t shards() const noexcept { return shards_.size(); }
  /// Global-EDF mode: one controller, m processors (see EngineOptions).
  [[nodiscard]] bool global_mode() const noexcept {
    return !opts_.admission.platform.uniprocessor();
  }
  /// Processor count the engine admits against: shard count when
  /// partitioned, the platform width when global.
  [[nodiscard]] std::uint32_t processors() const noexcept {
    return global_mode() ? opts_.admission.platform.m
                         : static_cast<std::uint32_t>(shards_.size());
  }
  /// Worker threads currently running (0 until the first submit()).
  [[nodiscard]] std::size_t workers() const {
    const std::lock_guard<std::mutex> lock(queue_mu_);
    return workers_.size();
  }
  /// Lock-free sum of the shards' load estimates. May lag concurrent
  /// mutations slightly — use stats() for a consistent snapshot.
  [[nodiscard]] double utilization_estimate() const noexcept;
  /// Aggregate snapshot from the shards' epoch-versioned headers: no
  /// shard mutex is taken, so readers never convoy behind admits (and
  /// never slow them down). Each shard's numbers are internally
  /// consistent (one publication); cross-shard composition may span
  /// publications. A reader overlapping one whole publication returns
  /// without re-copying; it only spins across the writer's brief store
  /// window or when lapped mid-copy.
  [[nodiscard]] EngineStats stats() const;
  /// Fully synchronous snapshot (locks shards one at a time) — strictly
  /// current counters, at the cost of contending with admits.
  [[nodiscard]] EngineStats stats_locked() const;
  /// Allocation-free variants for monitoring loops: refill `out`
  /// in place (vector capacity is reused across calls). A poller
  /// calling stats_into at high rate neither allocates nor touches a
  /// shard mutex.
  void stats_into(EngineStats& out) const;
  void stats_locked_into(EngineStats& out) const;
  /// Resident snapshot of one shard. \pre i < shards()
  [[nodiscard]] TaskSet shard_snapshot(std::size_t i) const;
  /// From-scratch feasibility of one shard's resident set (verification).
  [[nodiscard]] FeasibilityResult analyze_shard(
      std::size_t i, TestKind kind = TestKind::ProcessorDemand) const;

  /// Per-shard write-ahead journaling (admission/snapshot.hpp): attaches
  /// `journals[i]` to the controller of shard i, which then appends a
  /// record ahead of every operation offered to it — placement probes
  /// the shard rejects included — while the engine holds the shard's
  /// mutex. Each journal's record order is therefore its shard's apply
  /// order, and recover() replays it bit-identically. A null entry
  /// detaches that shard. Each journal must outlive its attachment.
  /// \throws std::invalid_argument unless journals.size() == shards()
  /// and the non-null entries are distinct.
  void attach_journals(std::span<persist::Journal* const> journals);

  /// Observability (src/obs/): attaches every shard controller to the
  /// Obs's shared admission instruments + its shard's flight-recorder
  /// ring, and the engine itself to placement latency/fan-out
  /// histograms and the lapped-reader counter. Quiesce concurrent
  /// admits before re-attaching (each shard is swapped under its
  /// mutex, but the set of shards should change atomically from the
  /// caller's view). Pass nullptr (or a disabled Obs) to detach. The
  /// Obs must outlive the attachment.
  void attach_obs(obs::Obs* obs);

 private:
  /// Snapshot save/load composes per-shard sections (admission/snapshot.cpp).
  friend struct SnapshotCodec;

  struct Shard {
    mutable std::mutex mu;
    AdmissionController controller;
    /// Lock-free load estimate for placement ordering (refreshed after
    /// every mutation under mu; staleness only affects heuristic order,
    /// never correctness).
    std::atomic<double> load{0.0};

    /// One buffer of the double-buffered published counters. Plain
    /// atomics keep concurrent reads data-race-free; the epoch protocol
    /// makes them consistent.
    struct Header {
      std::atomic<std::uint64_t> arrivals{0};
      std::atomic<std::uint64_t> admitted{0};
      std::atomic<std::uint64_t> rejected{0};
      std::atomic<std::uint64_t> removals{0};
      std::atomic<std::uint64_t> groups{0};
      std::atomic<std::uint64_t> effort{0};
      std::array<std::atomic<std::uint64_t>, kAdmissionRungs> by_rung{};
      std::atomic<std::uint64_t> resident{0};
      std::atomic<double> utilization{0.0};
    };
    std::array<Header, 2> header;
    SeqlockEpoch epoch;  ///< protocol in util/seqlock.hpp

    explicit Shard(const AdmissionOptions& opts) : controller(opts) {}

    /// Publish the controller's counters into the inactive buffer and
    /// advance the epoch. \pre mu held (the write side is serialized).
    void publish() noexcept;
    /// Epoch-consistent read of the last publication (no mutex);
    /// `retries` accumulates the lapped-reader spins paid.
    void read_stats(AdmissionStats& stats, std::size_t& resident,
                    double& utilization,
                    std::uint64_t& retries) const noexcept;
  };

  [[nodiscard]] std::vector<std::uint32_t> placement_order(
      double candidate_utilization) const;
  void worker_loop();

  EngineOptions opts_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Observability wiring (not serialized). metrics_ is read without
  /// the shard mutexes; swap only while admits are quiesced.
  obs::EngineInstruments* metrics_ = nullptr;
  /// Lifetime total of seqlock read retries paid by stats_into.
  mutable std::atomic<std::uint64_t> stats_retries_{0};

  // Worker pool (spawned lazily under queue_mu_ by the first submit).
  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<std::packaged_task<PlacementDecision()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace edfkit
