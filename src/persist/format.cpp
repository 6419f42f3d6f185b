#include "persist/format.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "fault/fault.hpp"

namespace edfkit::persist {
namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw PersistError(PersistErrc::IoError,
                     what + ": " + std::strerror(errno));
}

/// Directory part of `path` ("." when none) for the post-rename fsync.
std::string dirname_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

}  // namespace

const char* to_string(PersistErrc e) noexcept {
  switch (e) {
    case PersistErrc::IoError: return "io error";
    case PersistErrc::BadMagic: return "bad magic";
    case PersistErrc::BadVersion: return "bad version";
    case PersistErrc::BadCrc: return "crc mismatch";
    case PersistErrc::Truncated: return "truncated";
    case PersistErrc::BadSection: return "missing section";
    case PersistErrc::BadValue: return "bad value";
  }
  return "?";
}

bool file_exists(const std::string& path) noexcept {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode);
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) throw_errno("open " + path);
  std::vector<std::uint8_t> out;
  std::uint8_t buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      throw_errno("read " + path);
    }
    if (n == 0) break;
    out.insert(out.end(), buf, buf + n);
  }
  ::close(fd);
  return out;
}

void write_file_atomic(const std::string& path,
                       std::span<const std::uint8_t> bytes) {
  // Injected failures at any of these four sites leave `path` exactly
  // as it was: everything up to the rename touches only the sibling
  // tmp file, and a failed rename leaves the old target in place —
  // the same guarantee a real crash gets (tests/fault asserts it).
  fault::FailPoint& fp_open = EDFKIT_FAULT_POINT("snapshot.tmp.open");
  fault::FailPoint& fp_write = EDFKIT_FAULT_POINT("snapshot.tmp.write");
  fault::FailPoint& fp_fsync = EDFKIT_FAULT_POINT("snapshot.tmp.fsync");
  fault::FailPoint& fp_rename = EDFKIT_FAULT_POINT("snapshot.rename");

  const std::string tmp = path + ".tmp";
  if (fp_open.armed() && fp_open.should_fail()) throw_errno("open " + tmp);
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) throw_errno("open " + tmp);
  std::size_t off = 0;
  if (fp_write.armed()) {
    const fault::FaultResult r = fp_write.consume();
    if (r.fire) {
      // A torn tmp write: put short_len real bytes down, then fail.
      // The torn file is the *sibling*, so the live snapshot is safe.
      const std::size_t torn = std::min(r.short_len, bytes.size());
      if (torn != 0 && torn != static_cast<std::size_t>(-1)) {
        (void)!::write(fd, bytes.data(), torn);
      }
      ::close(fd);
      errno = r.err;
      throw_errno("write " + tmp);
    }
  }
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      throw_errno("write " + tmp);
    }
    off += static_cast<std::size_t>(n);
  }
  if ((fp_fsync.armed() && fp_fsync.should_fail()) || ::fsync(fd) != 0) {
    ::close(fd);
    throw_errno("fsync " + tmp);
  }
  ::close(fd);
  if ((fp_rename.armed() && fp_rename.should_fail()) ||
      ::rename(tmp.c_str(), path.c_str()) != 0) {
    throw_errno("rename " + tmp);
  }
  // Make the rename itself durable: fsync the containing directory.
  const int dirfd =
      ::open(dirname_of(path).c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dirfd >= 0) {
    (void)::fsync(dirfd);
    ::close(dirfd);
  }
}

ByteWriter& SectionWriter::begin(std::uint32_t id) {
  sections_.emplace_back(id, ByteWriter{});
  return sections_.back().second;
}

std::vector<std::uint8_t> SectionWriter::encode() const {
  ByteWriter out;
  out.bytes(kSnapshotMagic, sizeof kSnapshotMagic);
  out.u32(kFormatVersion);
  out.u32(static_cast<std::uint32_t>(sections_.size()));
  for (const auto& [id, w] : sections_) {
    out.u32(id);
    out.u64(w.size());
    out.u32(crc32(w.data()));
    out.bytes(w.data().data(), w.size());
  }
  return std::move(out).take();
}

void SectionWriter::finish(const std::string& path) const {
  write_file_atomic(path, encode());
}

SectionReader::SectionReader(std::vector<std::uint8_t> bytes)
    : bytes_(std::move(bytes)) {
  try {
    ByteReader r{std::span<const std::uint8_t>(bytes_)};
    char magic[8];
    for (char& c : magic) c = static_cast<char>(r.u8());
    if (std::memcmp(magic, kSnapshotMagic, sizeof magic) != 0) {
      throw PersistError(PersistErrc::BadMagic, "not an edfkit snapshot");
    }
    version_ = r.u32();
    if (version_ < kMinFormatVersion || version_ > kFormatVersion) {
      throw PersistError(PersistErrc::BadVersion,
                         "format version " + std::to_string(version_) +
                             " (expected " +
                             std::to_string(kMinFormatVersion) + ".." +
                             std::to_string(kFormatVersion) + ")");
    }
    const std::uint32_t count = r.u32();
    std::size_t off = bytes_.size() - r.remaining();
    for (std::uint32_t i = 0; i < count; ++i) {
      ByteReader h{std::span<const std::uint8_t>(bytes_).subspan(off)};
      const std::uint32_t id = h.u32();
      const std::uint64_t len = h.u64();
      const std::uint32_t crc = h.u32();
      const std::size_t payload = off + 16;  // <= size: h read 16 bytes
      if (len > bytes_.size() - payload) {  // payload + len could wrap
        throw PersistError(PersistErrc::Truncated,
                           "section " + std::to_string(id) +
                               " extends past end of file");
      }
      if (crc32(bytes_.data() + payload, len) != crc) {
        throw PersistError(PersistErrc::BadCrc,
                           "section " + std::to_string(id));
      }
      sections_.push_back({id, payload, static_cast<std::size_t>(len)});
      off = payload + len;
    }
  } catch (const std::out_of_range&) {
    throw PersistError(PersistErrc::Truncated, "snapshot header");
  }
}

ByteReader SectionReader::section(std::uint32_t id) const {
  for (const Section& sec : sections_) {
    if (sec.id == id) {
      return ByteReader{
          std::span<const std::uint8_t>(bytes_).subspan(sec.off, sec.len)};
    }
  }
  throw PersistError(PersistErrc::BadSection,
                     "section " + std::to_string(id));
}

}  // namespace edfkit::persist
