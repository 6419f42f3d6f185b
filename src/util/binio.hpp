/// \file binio.hpp
/// Little-endian binary IO primitives + CRC-32 shared by the
/// persistence layer (src/persist/). Kept deliberately tiny: a byte
/// buffer writer, a bounds-checked reader, and the IEEE CRC-32 used to
/// frame snapshot sections and journal records. Encoding is explicit
/// little-endian byte-at-a-time, so snapshots and journals are
/// byte-identical across hosts regardless of native endianness.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/math.hpp"

namespace edfkit {

/// IEEE 802.3 CRC-32 (reflected, polynomial 0xEDB88320) of `data`,
/// continuing from `seed` (pass a previous return value to chain).
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t len,
                                  std::uint32_t seed = 0) noexcept;

[[nodiscard]] inline std::uint32_t crc32(
    std::span<const std::uint8_t> bytes, std::uint32_t seed = 0) noexcept {
  return crc32(bytes.data(), bytes.size(), seed);
}

/// Growable little-endian byte sink.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  /// IEEE-754 bits verbatim: round-trips every value including the
  /// negative sentinels the cached-slack bounds use.
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  /// Two's-complement halves, low then high.
  void i128(Int128 v) {
    u64(static_cast<std::uint64_t>(static_cast<unsigned __int128>(v)));
    u64(static_cast<std::uint64_t>(static_cast<unsigned __int128>(v) >> 64));
  }
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    bytes(s.data(), s.size());
  }
  void bytes(const void* data, std::size_t len) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + len);
  }
  /// u32 length prefix + raw bytes (the binary counterpart of str()).
  void blob(std::span<const std::uint8_t> b) {
    u32(static_cast<std::uint32_t>(b.size()));
    bytes(b.data(), b.size());
  }

  [[nodiscard]] const std::vector<std::uint8_t>& data() const noexcept {
    return buf_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() noexcept {
    return std::move(buf_);
  }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked little-endian reader over a borrowed byte span.
/// Underflow throws std::out_of_range (the persistence layer wraps it
/// into its typed error).
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) noexcept
      : bytes_(bytes) {}

  [[nodiscard]] std::uint8_t u8() { return take(1)[0]; }
  [[nodiscard]] std::uint32_t u32() {
    const std::span<const std::uint8_t> b = take(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(b[i]) << (8 * i);
    return v;
  }
  [[nodiscard]] std::uint64_t u64() {
    const std::span<const std::uint8_t> b = take(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
    return v;
  }
  [[nodiscard]] std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  [[nodiscard]] bool boolean() { return u8() != 0; }
  [[nodiscard]] double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  [[nodiscard]] Int128 i128() {
    const std::uint64_t lo = u64();
    const std::uint64_t hi = u64();
    return static_cast<Int128>((static_cast<unsigned __int128>(hi) << 64) |
                               lo);
  }
  [[nodiscard]] std::string str() {
    const std::uint32_t n = u32();
    const std::span<const std::uint8_t> b = take(n);
    return std::string(reinterpret_cast<const char*>(b.data()), b.size());
  }
  /// Inverse of ByteWriter::blob(). Bounds-checked before any
  /// allocation (a corrupt length cannot force a huge reserve).
  [[nodiscard]] std::vector<std::uint8_t> blob() {
    const std::uint32_t n = u32();
    const std::span<const std::uint8_t> b = take(n);
    return std::vector<std::uint8_t>(b.begin(), b.end());
  }

  /// `n`, an element count read from the buffer, once `n` elements of
  /// at least `min_bytes` each are known to fit in what is left. Check
  /// every count before sizing an allocation by it: a corrupt count
  /// then fails like a short buffer instead of reserving gigabytes.
  /// \throws std::out_of_range when they cannot fit.
  [[nodiscard]] std::size_t checked_count(std::uint64_t n,
                                          std::size_t min_bytes) const {
    if (n > remaining() / min_bytes) {
      throw std::out_of_range("binio: count exceeds the buffer");
    }
    return static_cast<std::size_t>(n);
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return bytes_.size() - pos_;
  }
  [[nodiscard]] bool exhausted() const noexcept { return remaining() == 0; }

 private:
  std::span<const std::uint8_t> take(std::size_t n) {
    if (remaining() < n) {
      throw std::out_of_range("binio: read past end of buffer");
    }
    const std::span<const std::uint8_t> out = bytes_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace edfkit
