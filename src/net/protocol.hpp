/// \file protocol.hpp
/// Binary wire protocol for admission-as-a-service: length-prefixed,
/// CRC-framed request/response messages over a byte stream (TCP).
///
/// Frame layout (little-endian, mirroring the journal's record frame):
///
///   [len u32] [crc32 u32 of payload] [payload len bytes]
///
/// The framing layer distinguishes exactly three failure shapes:
///   * short read      — the frame is not fully buffered yet; keep the
///     bytes and wait (FrameStatus::NeedMore). Torn frames reassemble
///     across any number of reads.
///   * oversized frame — len exceeds kMaxFrameBytes; the stream cannot
///     be resynchronized (FrameStatus::TooLarge; close the connection).
///   * CRC mismatch    — the payload is fully present but the bits are
///     wrong (FrameStatus::BadCrc; close the connection — once a frame
///     lies, every subsequent length prefix is suspect).
///
/// Payload layout: a fixed header
///
///   [version u8] [op u8] [status u8] [flags u8] [request_id u64]
///
/// followed by an op-specific body (codecs below). `request_id` is an
/// opaque client token echoed verbatim in the response, so a client may
/// pipeline requests and match replies. `status` is zero in requests.
///
/// Ops: HELLO names the tenant and negotiates its durability class
/// (persist/journal.hpp FsyncPolicy), whether decisions build
/// certificates, and (v2) the tenant's execution platform — platform_m
/// processors, selecting global admission mode when > 1; every other
/// op requires a prior HELLO on the same connection. ADMIT/ADMIT_GROUP/REMOVE/REMOVE_GROUP map 1:1 onto the
/// AdmissionController entry points (admission/controller.hpp), STATS
/// returns the tenant's StoreHeader (admission/incremental_dbf.hpp)
/// plus its running counters, PING is a framing no-op.
///
/// Responses carry typed status codes: Ok vs Rejected separates "the
/// admission test said no" (a normal, certified outcome) from protocol
/// errors; Shed means the server refused to run the test at all
/// (backpressure — see net/shed.hpp) and names a retry delay. With
/// kFlagWantCertificate, ADMIT/ADMIT_GROUP responses attach the
/// decision's machine-checkable certificate (query/certificate.hpp)
/// when the tenant was HELLOed with certificates on — the client can
/// re-verify the verdict against its own view of the resident set
/// without trusting the server.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "admission/incremental_dbf.hpp"
#include "model/task.hpp"
#include "query/certificate.hpp"
#include "util/binio.hpp"

namespace edfkit::net {

/// v2 grew HELLO by a trailing `platform_m` (global admission mode:
/// the tenant's controller admits against m processors instead of
/// one) and the certificate codec by the multiprocessor fields. All
/// v2 fields are trailing, so v1 peers interoperate: the server accepts
/// kMinProtocolVersion..kProtocolVersion and a v1 HELLO defaults to
/// platform_m = 1.
inline constexpr std::uint8_t kProtocolVersion = 2;
inline constexpr std::uint8_t kMinProtocolVersion = 1;
/// Frames larger than this are a protocol violation (a length prefix
/// this big is noise or abuse, not a real request).
inline constexpr std::size_t kMaxFrameBytes = 1u << 20;
inline constexpr std::size_t kFrameHeaderBytes = 4 + 4;  // len + crc
inline constexpr std::size_t kMessageHeaderBytes = 4 + 8;

enum class NetOp : std::uint8_t {
  Hello = 1,
  Admit = 2,
  AdmitGroup = 3,
  Remove = 4,
  RemoveGroup = 5,
  Stats = 6,
  Ping = 7,
  /// Replication (src/repl/): a primary's shipper speaks these to a
  /// standby server over the same framing. REPL_HELLO opens (or
  /// recovers) the follower tenant and reports its applied window;
  /// REPL_APPEND ships a batch of raw journal record payloads starting
  /// at a named LSN, optionally carrying a store digest to verify at a
  /// matching LSN; REPL_ACK is the response op for all three
  /// follower-side ops (applied window + condition flags);
  /// REPL_SNAPSHOT (re-)seeds the follower from a snapshot container +
  /// dedup sidecar; PROMOTE turns the standby into a serving primary.
  ReplHello = 8,
  ReplAppend = 9,
  ReplAck = 10,
  ReplSnapshot = 11,
  Promote = 12,
};
inline constexpr std::size_t kNetOpCount = 13;  ///< incl. slot 0 = unknown

[[nodiscard]] const char* to_string(NetOp op) noexcept;

enum class NetStatus : std::uint8_t {
  Ok = 0,
  Rejected = 1,       ///< admission test ran and said no (certified)
  Shed = 2,           ///< backpressure: not tested; retry_after_ms set
  BadRequest = 3,     ///< undecodable body or invalid task parameters
  BadVersion = 4,     ///< unsupported protocol version
  UnknownOp = 5,
  NeedHello = 6,      ///< tenant-scoped op before HELLO
  InternalError = 7,
  /// The tenant is quarantined (its durability artifacts failed and a
  /// background re-probe is trying to recover them): the op was NOT
  /// applied; retry after retry_after_ms. Distinct from Shed (healthy
  /// but overloaded — backpressure) and from the certified Rejected
  /// (the admission test ran and said no).
  Unavailable = 8,
};

[[nodiscard]] const char* to_string(NetStatus s) noexcept;

/// Request flags.
inline constexpr std::uint8_t kFlagWantCertificate = 1u << 0;
// HELLO bit 1 is retired: it was kFlagBatchFuse, which fused a tick's
// ADMITs into one admit_group. The server ignores it like any other
// undefined bit, so a client that still sets it gets sequential
// answers. Never reuse it.
/// HELLO only: build certificates for every decision of this tenant
/// (AdmissionOptions::return_certificate on the tenant's controller).
inline constexpr std::uint8_t kFlagCertifiedTenant = 1u << 2;
/// Response flags.
inline constexpr std::uint8_t kFlagHasCertificate = 1u << 0;

/// REPL_ACK condition flags (NetResponse::repl_flags).
/// The follower cannot apply from the shipped LSN (gap, unknown
/// tenant, a tenant that has loaded no snapshot yet, or a fresh
/// follower behind the primary's rotated journal) — the shipper must
/// REPL_SNAPSHOT before appending further.
inline constexpr std::uint8_t kReplNeedSnapshot = 1u << 0;
/// A digest check failed: the follower's store is NOT bit-identical.
/// It refuses further appends (and promotion) for this tenant until
/// re-seeded — divergence is a hard fault, never served.
inline constexpr std::uint8_t kReplDiverged = 1u << 1;

struct MessageHeader {
  std::uint8_t version = kProtocolVersion;
  std::uint8_t op = 0;
  std::uint8_t status = 0;  ///< NetStatus; zero in requests
  std::uint8_t flags = 0;
  std::uint64_t request_id = 0;
};

/// One request, union-style: only the op's fields are meaningful
/// (the Record idiom of admission/snapshot.cpp).
struct NetRequest {
  MessageHeader hdr;
  // Hello
  std::string tenant;
  std::uint8_t durability = 0;  ///< persist::FsyncPolicy as u8
  std::uint64_t fsync_interval = 64;
  /// Optional stable client identity (HELLO). Naming one opts the
  /// connection into exactly-once retry: the server keeps a per-tenant
  /// sliding window of applied (client, request_id) results, so a
  /// resent ADMIT/REMOVE after a lost reply is answered from the
  /// applied result instead of being applied twice. Empty (the
  /// default) = anonymous, no dedup.
  std::string client;
  /// HELLO (v2, trailing): processor count the tenant admits against.
  /// 1 (the v1 default) = the classic uniprocessor ladder; m > 1 puts
  /// the tenant's controller in global admission mode (global-EDF test
  /// cascade over m identical processors). Like durability, the value
  /// is fixed by the tenant's *first* HELLO; later HELLOs attach.
  std::uint32_t platform_m = 1;
  // Admit
  Task task;
  // AdmitGroup
  std::vector<Task> group;
  // Remove
  TaskId id = 0;
  // RemoveGroup
  std::vector<TaskId> ids;
  // ReplAppend: LSN of repl_records[0]; ReplSnapshot: the journal LSN
  // the snapshot reflects (the follower's journal restarts there).
  std::uint64_t repl_lsn = 0;
  /// ReplAppend: raw journal record payloads (exactly the bytes the
  /// primary journaled — the follower appends them verbatim, keeping
  /// its WAL byte-identical), consecutive from repl_lsn.
  std::vector<std::vector<std::uint8_t>> repl_records;
  /// ReplAppend: primary store digest taken at digest_lsn (0 = none
  /// attached). The follower recomputes when its applied LSN reaches
  /// digest_lsn — possibly mid-batch — and flags kReplDiverged on
  /// mismatch. A 0-record append with a digest is a pure check (idle
  /// primaries still verify within one interval).
  std::uint64_t digest_lsn = 0;
  std::uint32_t digest = 0;
  /// ReplSnapshot: snapshot container bytes (required; empty is a
  /// BadRequest) + dedup sidecar bytes (empty = no sessions), as
  /// written by the primary's checkpoint.
  std::vector<std::uint8_t> repl_snapshot;
  std::vector<std::uint8_t> repl_dedup;
};

/// One response, union-style.
struct NetResponse {
  MessageHeader hdr;
  // Admit / AdmitGroup
  TaskId id = 0;
  std::vector<TaskId> ids;
  std::uint8_t rung = 0;     ///< AdmissionRung of the settled decision
  std::uint8_t verdict = 0;  ///< Verdict of the analysis record
  Certificate certificate;   ///< present iff kFlagHasCertificate
  // Remove / RemoveGroup
  std::uint64_t removed = 0;
  // Stats
  StoreHeader stats;
  std::string stats_json;
  // Hello: the tenant journal's durable window (0/0 when not journaled)
  std::uint64_t base_lsn = 0;
  std::uint64_t lsn = 0;
  /// Hello: the tenant's session epoch — a random nonce minted when the
  /// tenant is (re)opened. A retrying client compares it across
  /// reconnects: a changed epoch means the server restarted and
  /// recovered, so the dedup window was rebuilt from the journal.
  std::uint64_t epoch = 0;
  /// Hello: highest request_id already applied for this client (0 when
  /// anonymous or never seen). The client resumes ids above this.
  std::uint64_t highest_applied = 0;
  /// Hello + Stats (v2, trailing): the processor count the tenant's
  /// controller actually admits against. A HELLO that *attached* to an
  /// existing tenant echoes the tenant's platform, which may differ
  /// from the request's platform_m — clients should check.
  std::uint32_t platform_m = 1;
  // Shed / Unavailable
  std::uint32_t retry_after_ms = 0;
  /// ReplAck (reusing base_lsn/lsn for the follower's on-disk window
  /// and applied LSN): condition flags, kRepl* above.
  std::uint8_t repl_flags = 0;
  /// Promote: tenants switched to serving.
  std::uint64_t promoted = 0;
};

// ----------------------------------------------------------- framing

/// Append one complete frame (header + payload) to `out`.
void append_frame(std::vector<std::uint8_t>& out,
                  std::span<const std::uint8_t> payload);

enum class FrameStatus : std::uint8_t {
  Ok,        ///< one complete, CRC-verified frame parsed
  NeedMore,  ///< buffer ends mid-frame; read more and retry
  TooLarge,  ///< length prefix exceeds kMaxFrameBytes — unrecoverable
  BadCrc,    ///< payload present but corrupt — unrecoverable
};

struct FrameView {
  /// The verified payload, aliasing the input buffer.
  std::span<const std::uint8_t> payload;
  /// Bytes of the input buffer this frame consumed (header included).
  std::size_t consumed = 0;
};

/// Try to parse one frame from the front of `buf`. On Ok, `out` is
/// filled; on NeedMore nothing is consumed; TooLarge/BadCrc mean the
/// stream is unsynchronizable and the connection must be dropped.
[[nodiscard]] FrameStatus try_parse_frame(
    std::span<const std::uint8_t> buf, FrameView& out);

// ------------------------------------------------------------ codecs

/// Encode a request/response payload (header + op body). Frame it with
/// append_frame for the wire.
[[nodiscard]] std::vector<std::uint8_t> encode_request(const NetRequest& r);
[[nodiscard]] std::vector<std::uint8_t> encode_response(const NetResponse& r);

/// Decode a verified frame payload. \throws std::out_of_range when the
/// body is shorter than its op demands (the caller answers BadRequest).
/// An unknown op decodes to just the header — the caller inspects
/// hdr.op and answers UnknownOp; the body is not touched.
[[nodiscard]] NetRequest decode_request(std::span<const std::uint8_t> payload);
[[nodiscard]] NetResponse decode_response(
    std::span<const std::uint8_t> payload);

}  // namespace edfkit::net
