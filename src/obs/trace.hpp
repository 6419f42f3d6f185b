/// \file trace.hpp
/// Decision flight recorder: per-shard lock-free ring buffers of
/// fixed-size DecisionTrace records, capturable on demand.
///
/// Each admission decision leaves one record answering "why was this
/// decision slow / why was this task rejected": the rung the ladder
/// settled on, per-rung nanoseconds, whether the O(1) certificate
/// cover short-circuited the scan, how many demand segments were
/// walked versus fast-forwarded, the refinement count, and whether a
/// group rejection rolled back tentative inserts.
///
/// Concurrency model: each ring has a single writer (the controller
/// attached to it, itself single-threaded) and any number of
/// concurrent capture() readers. A slot is a per-slot
/// seqlock: the writer bumps the slot version odd, stores the packed
/// payload as relaxed atomic words, then publishes version + 2.
/// Readers validate the version before and after copying and *skip*
/// slots that were torn or lapped mid-scan — the settled version is
/// also a generation stamp (2 * writes completed), so a reader knows
/// exactly which ring index a slot's payload belongs to and never
/// emits a newer record at an older position. Capture is best-effort
/// by design (it is a flight recorder, not a transaction log), but
/// what it does emit is bit-exact and oldest-first. All slot accesses
/// are atomic, so the race window is defined behavior (and
/// TSan-clean).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace edfkit::obs {

/// Mirror of admission/controller.hpp's kAdmissionRungs; controller.cpp
/// static_asserts they agree (obs stays a dependency leaf).
inline constexpr std::size_t kTraceRungs = 4;

/// Rung names, indexed by rung; shared by the JSON dump and README.
[[nodiscard]] const char* rung_name(std::size_t rung) noexcept;

/// One admission decision, as recorded by the controller.
struct DecisionTrace {
  std::uint64_t sequence = 0;
  /// First task id placed (or the arriving task's id); 0-equivalent
  /// invalid when the decision was a reject.
  std::uint64_t task_id = 0;
  /// Shard tag, attached by FlightRecorder::capture_all.
  std::uint32_t shard = 0;
  /// 0 for a single arrival; member count for a group decision.
  std::uint32_t group_size = 0;
  std::uint32_t refinements = 0;
  std::uint64_t segments_walked = 0;
  std::uint64_t segments_fast_forwarded = 0;
  bool admitted = false;
  /// The decision settled via the O(1) certificate cover.
  bool cert_cover = false;
  /// Group reject rolled back its tentative inserts.
  bool rollback = false;
  /// Rung the ladder settled on (index into rung_name()).
  std::uint8_t rung = 0;
  /// Bitmask of rungs the decision entered (bit r = rung r).
  std::uint8_t rungs_entered = 0;
  std::array<std::uint64_t, kTraceRungs> rung_ns{};
  std::uint64_t total_ns = 0;
};

inline constexpr std::size_t kTraceSlotWords = 12;

void pack_trace(const DecisionTrace& t,
                std::array<std::uint64_t, kTraceSlotWords>& w) noexcept;
[[nodiscard]] DecisionTrace unpack_trace(
    const std::array<std::uint64_t, kTraceSlotWords>& w) noexcept;

/// Render records as a JSON array (shared by FlightRecorder::to_json
/// and the --trace-out surfaces).
[[nodiscard]] std::string traces_to_json(
    const std::vector<DecisionTrace>& traces);

/// Single-writer / multi-reader ring of DecisionTrace slots.
class TraceRing {
 public:
  /// Capacity 0 disables the ring (push/capture become no-ops);
  /// otherwise rounded up to a power of two.
  explicit TraceRing(std::size_t capacity = 0);
  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  [[nodiscard]] std::size_t capacity() const noexcept { return cap_; }
  [[nodiscard]] bool enabled() const noexcept { return cap_ != 0; }
  /// Total records ever pushed (wraparound overwrites the oldest).
  [[nodiscard]] std::uint64_t pushed() const noexcept {
    return head_.load(std::memory_order_acquire);
  }

  /// Record one decision. \pre single writer (serialize externally).
  void push(const DecisionTrace& t) noexcept;

  /// Copy out the retained window, oldest first, skipping slots torn
  /// by a concurrent push. Returns the number captured.
  std::size_t capture(std::vector<DecisionTrace>& out) const;

 private:
  struct Slot {
    std::atomic<std::uint64_t> version{0};
    std::array<std::atomic<std::uint64_t>, kTraceSlotWords> words{};
  };

  std::unique_ptr<Slot[]> slots_;
  std::size_t cap_ = 0;
  std::size_t mask_ = 0;
  std::atomic<std::uint64_t> head_{0};
};

/// One TraceRing per shard (a controller pushes into the ring its
/// attach_obs call names), plus whole-recorder capture/dump.
class FlightRecorder {
 public:
  FlightRecorder() = default;
  /// `capacity` slots per shard; 0 shards or 0 capacity disables.
  FlightRecorder(std::size_t shards, std::size_t capacity);

  [[nodiscard]] bool enabled() const noexcept { return !rings_.empty(); }
  [[nodiscard]] std::size_t shards() const noexcept { return rings_.size(); }
  /// The shard's ring, or nullptr when disabled / out of range.
  [[nodiscard]] TraceRing* ring(std::size_t shard) noexcept;

  /// Capture every shard's window (shard tag attached), ordered by
  /// (shard, sequence). Returns the number captured.
  std::size_t capture_all(std::vector<DecisionTrace>& out) const;

  /// {"shards": N, "captured": M, "records": [...]}.
  [[nodiscard]] std::string to_json() const;

 private:
  std::vector<std::unique_ptr<TraceRing>> rings_;
};

}  // namespace edfkit::obs
