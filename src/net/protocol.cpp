#include "net/protocol.hpp"

#include <stdexcept>

namespace edfkit::net {
namespace {

void encode_header(ByteWriter& w, const MessageHeader& h) {
  w.u8(h.version);
  w.u8(h.op);
  w.u8(h.status);
  w.u8(h.flags);
  w.u64(h.request_id);
}

MessageHeader decode_header(ByteReader& r) {
  MessageHeader h;
  h.version = r.u8();
  h.op = r.u8();
  h.status = r.u8();
  h.flags = r.u8();
  h.request_id = r.u64();
  return h;
}

void encode_task(ByteWriter& w, const Task& t) {
  w.i64(t.wcet);
  w.i64(t.deadline);
  w.i64(t.period);
  w.i64(t.jitter);
  w.str(t.name);
}

/// Smallest task encoding (four i64 + a length-prefixed name): the
/// per-element floor for checking group counts.
constexpr std::size_t kMinTaskBytes = 4 * 8 + 4;

Task decode_task(ByteReader& r) {
  Task t;
  t.wcet = r.i64();
  t.deadline = r.i64();
  t.period = r.i64();
  t.jitter = r.i64();
  t.name = r.str();
  return t;
}

void encode_certificate(ByteWriter& w, const Certificate& c) {
  w.u8(static_cast<std::uint8_t>(c.kind));
  w.i64(c.witness);
  w.i64(c.bound);
  w.u32(static_cast<std::uint32_t>(c.borders.size()));
  for (const Time b : c.borders) w.i64(b);
  // v2 trailing multiprocessor fields. The certificate is always the
  // last element of its message, so a v1 decoder simply leaves these
  // bytes unread (it never sees multiprocessor kinds anyway: a v1
  // client cannot HELLO with platform_m > 1).
  w.u32(c.processors);
  w.u8(static_cast<std::uint8_t>(c.multi_test));
}

Certificate decode_certificate(ByteReader& r) {
  Certificate c;
  c.kind = static_cast<CertificateKind>(r.u8());
  c.witness = r.i64();
  c.bound = r.i64();
  const std::size_t n = r.checked_count(r.u32(), 8);
  c.borders.reserve(n);
  for (std::size_t i = 0; i < n; ++i) c.borders.push_back(r.i64());
  if (r.remaining() >= 5) {  // v2: processors u32 + multi_test u8
    c.processors = r.u32();
    c.multi_test = static_cast<MultiTest>(r.u8());
  }
  return c;
}

}  // namespace

const char* to_string(NetOp op) noexcept {
  switch (op) {
    case NetOp::Hello: return "hello";
    case NetOp::Admit: return "admit";
    case NetOp::AdmitGroup: return "admit_group";
    case NetOp::Remove: return "remove";
    case NetOp::RemoveGroup: return "remove_group";
    case NetOp::Stats: return "stats";
    case NetOp::Ping: return "ping";
    case NetOp::ReplHello: return "repl_hello";
    case NetOp::ReplAppend: return "repl_append";
    case NetOp::ReplAck: return "repl_ack";
    case NetOp::ReplSnapshot: return "repl_snapshot";
    case NetOp::Promote: return "promote";
  }
  return "unknown";
}

const char* to_string(NetStatus s) noexcept {
  switch (s) {
    case NetStatus::Ok: return "ok";
    case NetStatus::Rejected: return "rejected";
    case NetStatus::Shed: return "shed";
    case NetStatus::BadRequest: return "bad_request";
    case NetStatus::BadVersion: return "bad_version";
    case NetStatus::UnknownOp: return "unknown_op";
    case NetStatus::NeedHello: return "need_hello";
    case NetStatus::InternalError: return "internal_error";
    case NetStatus::Unavailable: return "unavailable";
  }
  return "?";
}

void append_frame(std::vector<std::uint8_t>& out,
                  std::span<const std::uint8_t> payload) {
  ByteWriter frame;
  frame.u32(static_cast<std::uint32_t>(payload.size()));
  frame.u32(crc32(payload));
  frame.bytes(payload.data(), payload.size());
  const std::vector<std::uint8_t>& bytes = frame.data();
  out.insert(out.end(), bytes.begin(), bytes.end());
}

FrameStatus try_parse_frame(std::span<const std::uint8_t> buf,
                            FrameView& out) {
  if (buf.size() < kFrameHeaderBytes) return FrameStatus::NeedMore;
  ByteReader r{buf};
  const std::uint32_t len = r.u32();
  const std::uint32_t crc = r.u32();
  if (len > kMaxFrameBytes) return FrameStatus::TooLarge;
  if (buf.size() - kFrameHeaderBytes < len) return FrameStatus::NeedMore;
  const std::span<const std::uint8_t> payload =
      buf.subspan(kFrameHeaderBytes, len);
  if (crc32(payload) != crc) return FrameStatus::BadCrc;
  out.payload = payload;
  out.consumed = kFrameHeaderBytes + len;
  return FrameStatus::Ok;
}

std::vector<std::uint8_t> encode_request(const NetRequest& r) {
  ByteWriter w;
  encode_header(w, r.hdr);
  switch (static_cast<NetOp>(r.hdr.op)) {
    case NetOp::Hello:
      w.str(r.tenant);
      w.u8(r.durability);
      w.u64(r.fsync_interval);
      // Trailing, so a pre-dedup peer's HELLO still decodes (the
      // decoder probes remaining()).
      w.str(r.client);
      w.u32(r.platform_m);  // v2 trailing: execution platform
      break;
    case NetOp::Admit:
      encode_task(w, r.task);
      break;
    case NetOp::AdmitGroup:
      w.u32(static_cast<std::uint32_t>(r.group.size()));
      for (const Task& t : r.group) encode_task(w, t);
      break;
    case NetOp::Remove:
      w.u64(r.id);
      break;
    case NetOp::RemoveGroup:
      w.u32(static_cast<std::uint32_t>(r.ids.size()));
      for (const TaskId id : r.ids) w.u64(id);
      break;
    case NetOp::ReplHello:
      w.str(r.tenant);
      w.u8(r.durability);
      w.u64(r.fsync_interval);
      break;
    case NetOp::ReplAppend:
      w.str(r.tenant);
      w.u64(r.repl_lsn);
      w.u32(static_cast<std::uint32_t>(r.repl_records.size()));
      for (const std::vector<std::uint8_t>& rec : r.repl_records) {
        w.blob(rec);
      }
      w.u64(r.digest_lsn);
      w.u32(r.digest);
      break;
    case NetOp::ReplSnapshot:
      w.str(r.tenant);
      w.u64(r.repl_lsn);
      w.blob(r.repl_snapshot);
      w.blob(r.repl_dedup);
      break;
    case NetOp::Stats:
    case NetOp::Ping:
    case NetOp::ReplAck:   // never a request body
    case NetOp::Promote:
      break;  // header-only
  }
  return w.take();
}

NetRequest decode_request(std::span<const std::uint8_t> payload) {
  ByteReader r{payload};
  NetRequest out;
  out.hdr = decode_header(r);
  switch (static_cast<NetOp>(out.hdr.op)) {
    case NetOp::Hello:
      out.tenant = r.str();
      out.durability = r.u8();
      out.fsync_interval = r.u64();
      if (r.remaining() > 0) out.client = r.str();
      if (r.remaining() >= 4) out.platform_m = r.u32();  // v2
      break;
    case NetOp::Admit:
      out.task = decode_task(r);
      break;
    case NetOp::AdmitGroup: {
      // A length prefix past the payload is a short body, not an OOM.
      const std::size_t n = r.checked_count(r.u32(), kMinTaskBytes);
      out.group.reserve(n);
      for (std::size_t i = 0; i < n; ++i) out.group.push_back(decode_task(r));
      break;
    }
    case NetOp::Remove:
      out.id = r.u64();
      break;
    case NetOp::RemoveGroup: {
      const std::size_t n = r.checked_count(r.u32(), 8);
      out.ids.reserve(n);
      for (std::size_t i = 0; i < n; ++i) out.ids.push_back(r.u64());
      break;
    }
    case NetOp::ReplHello:
      out.tenant = r.str();
      out.durability = r.u8();
      out.fsync_interval = r.u64();
      break;
    case NetOp::ReplAppend: {
      out.tenant = r.str();
      out.repl_lsn = r.u64();
      // Each record frame is at least 4 bytes (its length prefix).
      const std::size_t n = r.checked_count(r.u32(), 4);
      out.repl_records.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        out.repl_records.push_back(r.blob());
      }
      out.digest_lsn = r.u64();
      out.digest = r.u32();
      break;
    }
    case NetOp::ReplSnapshot:
      out.tenant = r.str();
      out.repl_lsn = r.u64();
      out.repl_snapshot = r.blob();
      out.repl_dedup = r.blob();
      break;
    case NetOp::Stats:
    case NetOp::Ping:
    case NetOp::ReplAck:
    case NetOp::Promote:
      break;
    default:
      break;  // unknown op: header only, caller answers UnknownOp
  }
  return out;
}

std::vector<std::uint8_t> encode_response(const NetResponse& r) {
  ByteWriter w;
  encode_header(w, r.hdr);
  const NetStatus st = static_cast<NetStatus>(r.hdr.status);
  if (st == NetStatus::Shed || st == NetStatus::Unavailable) {
    w.u32(r.retry_after_ms);
    return w.take();
  }
  switch (static_cast<NetOp>(r.hdr.op)) {
    case NetOp::Hello:
      w.u64(r.base_lsn);
      w.u64(r.lsn);
      w.u64(r.epoch);
      w.u64(r.highest_applied);
      w.u32(r.platform_m);  // v2 trailing: the tenant's real platform
      break;
    case NetOp::Admit:
      w.u64(r.id);
      w.u8(r.rung);
      w.u8(r.verdict);
      if ((r.hdr.flags & kFlagHasCertificate) != 0) {
        encode_certificate(w, r.certificate);
      }
      break;
    case NetOp::AdmitGroup:
      w.u32(static_cast<std::uint32_t>(r.ids.size()));
      for (const TaskId id : r.ids) w.u64(id);
      w.u8(r.rung);
      w.u8(r.verdict);
      if ((r.hdr.flags & kFlagHasCertificate) != 0) {
        encode_certificate(w, r.certificate);
      }
      break;
    case NetOp::Remove:
    case NetOp::RemoveGroup:
      w.u64(r.removed);
      break;
    case NetOp::Stats:
      w.u64(r.stats.epoch);
      w.u64(r.stats.residents);
      w.u64(r.stats.constrained);
      w.u64(r.stats.live_checkpoints);
      w.u64(r.stats.dead_checkpoints);
      w.u64(r.stats.segments);
      w.f64(r.stats.utilization);
      w.f64(r.stats.cert_ratio);
      w.str(r.stats_json);
      w.u32(r.platform_m);  // v2 trailing: admission platform
      break;
    case NetOp::ReplHello:
    case NetOp::ReplAppend:
    case NetOp::ReplAck:
    case NetOp::ReplSnapshot:
      // All follower-side repl ops answer with the ack body (the
      // server sets hdr.op = ReplAck; the shared case keeps echoed-op
      // responses decodable too).
      w.u64(r.base_lsn);
      w.u64(r.lsn);
      w.u8(r.repl_flags);
      break;
    case NetOp::Promote:
      w.u64(r.promoted);
      break;
    case NetOp::Ping:
      break;
  }
  return w.take();
}

NetResponse decode_response(std::span<const std::uint8_t> payload) {
  ByteReader r{payload};
  NetResponse out;
  out.hdr = decode_header(r);
  const NetStatus st = static_cast<NetStatus>(out.hdr.status);
  if (st == NetStatus::Shed || st == NetStatus::Unavailable) {
    out.retry_after_ms = r.u32();
    return out;
  }
  // Error statuses past Rejected carry no body.
  if (out.hdr.status > static_cast<std::uint8_t>(NetStatus::Rejected)) {
    return out;
  }
  switch (static_cast<NetOp>(out.hdr.op)) {
    case NetOp::Hello:
      out.base_lsn = r.u64();
      out.lsn = r.u64();
      if (r.remaining() >= 16) {
        out.epoch = r.u64();
        out.highest_applied = r.u64();
      }
      if (r.remaining() >= 4) out.platform_m = r.u32();  // v2
      break;
    case NetOp::Admit:
      out.id = r.u64();
      out.rung = r.u8();
      out.verdict = r.u8();
      if ((out.hdr.flags & kFlagHasCertificate) != 0) {
        out.certificate = decode_certificate(r);
      }
      break;
    case NetOp::AdmitGroup: {
      const std::size_t n = r.checked_count(r.u32(), 8);
      out.ids.reserve(n);
      for (std::size_t i = 0; i < n; ++i) out.ids.push_back(r.u64());
      out.rung = r.u8();
      out.verdict = r.u8();
      if ((out.hdr.flags & kFlagHasCertificate) != 0) {
        out.certificate = decode_certificate(r);
      }
      break;
    }
    case NetOp::Remove:
    case NetOp::RemoveGroup:
      out.removed = r.u64();
      break;
    case NetOp::Stats:
      out.stats.epoch = r.u64();
      out.stats.residents = r.u64();
      out.stats.constrained = r.u64();
      out.stats.live_checkpoints = r.u64();
      out.stats.dead_checkpoints = r.u64();
      out.stats.segments = r.u64();
      out.stats.utilization = r.f64();
      out.stats.cert_ratio = r.f64();
      out.stats_json = r.str();
      if (r.remaining() >= 4) out.platform_m = r.u32();  // v2
      break;
    case NetOp::ReplHello:
    case NetOp::ReplAppend:
    case NetOp::ReplAck:
    case NetOp::ReplSnapshot:
      out.base_lsn = r.u64();
      out.lsn = r.u64();
      out.repl_flags = r.u8();
      break;
    case NetOp::Promote:
      out.promoted = r.u64();
      break;
    case NetOp::Ping:
      break;
    default:
      break;
  }
  return out;
}

}  // namespace edfkit::net
