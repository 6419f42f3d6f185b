/// \file format.hpp
/// Versioned, CRC-framed binary container shared by every durable
/// artifact the admission subsystem writes (snapshots today; any future
/// on-disk state should reuse it).
///
/// File layout (all integers little-endian):
///
///   [magic 8B "EDFKSNAP"] [version u32] [section_count u32]
///   section*: [id u32] [len u64] [crc32 u32 of payload] [payload]
///
/// Every section is independently CRC-checked on open, so a bit flip is
/// detected before any payload byte is decoded. Writers publish
/// atomically: the bytes go to `path.tmp`, are fsynced, and rename(2)
/// over `path` — a crash mid-write leaves either the old snapshot or
/// the new one, never a torn file. Readers pull the whole file into
/// memory first (snapshots are small relative to the store they
/// serialize) and hand out bounds-checked ByteReaders per section.
///
/// Error taxonomy: every failure throws PersistError carrying a
/// PersistErrc — callers distinguish "no file" (fine: cold start) from
/// "corrupt file" (must not be silently ignored).
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/binio.hpp"

namespace edfkit::persist {

inline constexpr char kSnapshotMagic[8] = {'E', 'D', 'F', 'K',
                                           'S', 'N', 'A', 'P'};
/// v3: AdmissionOptions dropped the legacy analyzer knobs, max_tasks
/// and rollback_refinements. v2 files (which added the execution
/// platform) still load: their snapshot decode accepts the dropped
/// fields only at their old defaults (admission/snapshot.cpp). v1
/// snapshots predate the platform field and are rejected (re-seed from
/// the journal, which is operation-level and version-independent).
inline constexpr std::uint32_t kFormatVersion = 3;
/// Oldest container version SectionReader accepts.
inline constexpr std::uint32_t kMinFormatVersion = 2;

enum class PersistErrc : std::uint8_t {
  IoError,     ///< open/read/write/rename/fsync failed
  BadMagic,    ///< not one of our files
  BadVersion,  ///< a future (or mangled) format version
  BadCrc,      ///< framing intact but payload bits changed
  Truncated,   ///< file ends inside a declared frame
  BadSection,  ///< a required section is missing
  BadValue,    ///< decoded payload violates an invariant
};

[[nodiscard]] const char* to_string(PersistErrc e) noexcept;

/// Whether a failure class is worth retrying. IoError is transient by
/// default (ENOSPC clears when space frees, EIO when the device
/// recovers — the atomic-write discipline means the on-disk artifacts
/// are still consistent, so a later recovery pass can succeed).
/// Everything else describes *content* — wrong magic, corrupt CRC,
/// invariant violations — which no retry repairs.
[[nodiscard]] constexpr bool default_retryable(PersistErrc e) noexcept {
  return e == PersistErrc::IoError;
}

/// The persistence layer's typed exception, carrying both the failure
/// class and its retryability. Callers that degrade on failure (the
/// server's tenant quarantine) re-probe retryable errors and leave
/// fatal ones dark; sites that know better than the default — e.g. a
/// failed truncate-back that leaves a journal poisoned — override it.
class PersistError : public std::runtime_error {
 public:
  PersistError(PersistErrc code, const std::string& what)
      : std::runtime_error(std::string(to_string(code)) + ": " + what),
        code_(code),
        retryable_(default_retryable(code)) {}

  PersistError(PersistErrc code, const std::string& what, bool retryable)
      : std::runtime_error(std::string(to_string(code)) + ": " + what),
        code_(code),
        retryable_(retryable) {}

  [[nodiscard]] PersistErrc code() const noexcept { return code_; }
  [[nodiscard]] bool retryable() const noexcept { return retryable_; }

 private:
  PersistErrc code_;
  bool retryable_;
};

/// Write `bytes` to `path` atomically (tmp + fsync + rename + directory
/// fsync). \throws PersistError{IoError}
void write_file_atomic(const std::string& path,
                       std::span<const std::uint8_t> bytes);

/// Read a whole file. \throws PersistError{IoError} (missing files
/// included — probe with file_exists() for optional artifacts).
[[nodiscard]] std::vector<std::uint8_t> read_file(const std::string& path);

[[nodiscard]] bool file_exists(const std::string& path) noexcept;

/// Accumulates CRC-framed sections and writes the container atomically.
class SectionWriter {
 public:
  /// Start a section; returns the writer to fill its payload with.
  /// Sections are emitted in begin() order.
  ByteWriter& begin(std::uint32_t id);

  /// Serialize header + all sections into one buffer.
  [[nodiscard]] std::vector<std::uint8_t> encode() const;

  /// encode() + write_file_atomic().
  void finish(const std::string& path) const;

 private:
  std::vector<std::pair<std::uint32_t, ByteWriter>> sections_;
};

/// Parses + CRC-verifies a container; hands out per-section readers.
class SectionReader {
 public:
  /// \throws PersistError on any framing/CRC problem, or BadVersion
  /// outside [kMinFormatVersion, kFormatVersion].
  explicit SectionReader(std::vector<std::uint8_t> bytes);

  /// The container's format version (payload decoders branch on it).
  [[nodiscard]] std::uint32_t version() const noexcept { return version_; }

  /// Reader over the payload of the first section with `id`.
  /// \throws PersistError{BadSection} when absent.
  [[nodiscard]] ByteReader section(std::uint32_t id) const;

 private:
  struct Section {
    std::uint32_t id;
    std::size_t off;  ///< payload offset in bytes_
    std::size_t len;
  };

  std::vector<std::uint8_t> bytes_;
  std::uint32_t version_ = kFormatVersion;
  std::vector<Section> sections_;  ///< file order
};

}  // namespace edfkit::persist
