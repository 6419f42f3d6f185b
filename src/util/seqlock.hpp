/// \file seqlock.hpp
/// Double-buffered seqlock epoch: the publication protocol behind the
/// engine's lock-free shard-header reads (AdmissionEngine::stats()).
///
/// One writer (serialized externally — e.g. under a shard mutex)
/// alternates between two payload buffers; readers never block it.
/// Writer protocol: flip the epoch odd *before* any payload store
/// becomes visible (release fence pairs with the reader's acquire
/// fence), fill the inactive buffer, then publish epoch + 2. Reader
/// protocol: an even epoch 2p names the buffer publication p filled
/// (index p & 1); that buffer's next rewrite (publication p + 2) first
/// flips the epoch odd, so observing e2 <= e1 + 1 after the copy
/// certifies it untorn — e1 + 1 means publication p + 1 is in flight
/// in the *other* buffer, so a reader overlapping one whole
/// publication still returns without re-copying. Payload fields must
/// themselves be atomics (relaxed is enough): the epoch orders them,
/// and atomicity keeps the racing accesses defined for the brief
/// window a lapped copy is discarded.
#pragma once

#include <atomic>
#include <cstdint>

namespace edfkit {

class SeqlockEpoch {
 public:
  /// Run `fill(buffer_index)` as one publication. \pre single writer.
  template <typename Fill>
  void publish(Fill&& fill) noexcept {
    const std::uint64_t e = epoch_.load(std::memory_order_relaxed);
    epoch_.store(e + 1, std::memory_order_relaxed);  // odd: writing
    std::atomic_thread_fence(std::memory_order_release);
    fill(static_cast<std::size_t>(((e >> 1) + 1) & 1));
    epoch_.store(e + 2, std::memory_order_release);
  }

  /// Run `copy(buffer_index)` until a copy is certified untorn;
  /// returns the epoch it belongs to (monotone across calls).
  template <typename Copy>
  std::uint64_t read(Copy&& copy) const noexcept {
    std::uint64_t retries = 0;
    return read(std::forward<Copy>(copy), retries);
  }

  /// As read(), additionally counting the times the copy had to be
  /// re-taken because the writer lapped it (the "lapped reader"
  /// monitoring signal: each retry is a publication that landed while
  /// the copy was in flight).
  template <typename Copy>
  std::uint64_t read(Copy&& copy, std::uint64_t& retries) const noexcept {
    for (;;) {
      const std::uint64_t e1 = epoch_.load(std::memory_order_acquire);
      if ((e1 & 1) != 0) {  // publication between its stores
        ++retries;
        continue;
      }
      copy(static_cast<std::size_t>((e1 >> 1) & 1));
      std::atomic_thread_fence(std::memory_order_acquire);
      const std::uint64_t e2 = epoch_.load(std::memory_order_relaxed);
      if (e2 - e1 < 2) return e1;
      ++retries;
    }
  }

 private:
  std::atomic<std::uint64_t> epoch_{0};
};

}  // namespace edfkit
