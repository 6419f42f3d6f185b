#include "net/protocol.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "helpers.hpp"
#include "query/certificate.hpp"
#include "util/random.hpp"

namespace edfkit::net {
namespace {

using edfkit::testing::tk;

std::vector<std::uint8_t> framed(const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> wire;
  append_frame(wire, payload);
  return wire;
}

// ------------------------------------------------------------ framing

TEST(Framing, RoundTripAndExactConsumption) {
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  std::vector<std::uint8_t> wire = framed(payload);
  EXPECT_EQ(wire.size(), kFrameHeaderBytes + payload.size());

  FrameView view;
  ASSERT_EQ(try_parse_frame(wire, view), FrameStatus::Ok);
  EXPECT_EQ(view.consumed, wire.size());
  ASSERT_EQ(view.payload.size(), payload.size());
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(),
                         view.payload.begin()));
}

TEST(Framing, EveryTruncationNeedsMore) {
  // A torn frame must never parse, never consume, and never error —
  // at *every* possible cut point.
  const std::vector<std::uint8_t> wire = framed({9, 8, 7, 6});
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    FrameView view;
    const std::span<const std::uint8_t> prefix(wire.data(), cut);
    EXPECT_EQ(try_parse_frame(prefix, view), FrameStatus::NeedMore)
        << "cut at " << cut;
  }
}

TEST(Framing, BackToBackFramesParseOneAtATime) {
  std::vector<std::uint8_t> wire = framed({1});
  append_frame(wire, std::vector<std::uint8_t>{2, 2});
  FrameView first;
  ASSERT_EQ(try_parse_frame(wire, first), FrameStatus::Ok);
  EXPECT_EQ(first.payload.size(), 1u);
  const std::span<const std::uint8_t> rest(wire.data() + first.consumed,
                                           wire.size() - first.consumed);
  FrameView second;
  ASSERT_EQ(try_parse_frame(rest, second), FrameStatus::Ok);
  EXPECT_EQ(second.payload.size(), 2u);
  EXPECT_EQ(first.consumed + second.consumed, wire.size());
}

TEST(Framing, OversizedLengthPrefixIsUnrecoverable) {
  std::vector<std::uint8_t> wire = framed({1, 2, 3});
  const std::uint32_t huge = kMaxFrameBytes + 1;
  std::memcpy(wire.data(), &huge, sizeof(huge));
  FrameView view;
  EXPECT_EQ(try_parse_frame(wire, view), FrameStatus::TooLarge);
}

TEST(Framing, AnySingleBitFlipInPayloadFailsCrc) {
  const std::vector<std::uint8_t> wire = framed({0xAA, 0x55, 0x00, 0xFF});
  for (std::size_t byte = kFrameHeaderBytes; byte < wire.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> bad = wire;
      bad[byte] ^= static_cast<std::uint8_t>(1u << bit);
      FrameView view;
      EXPECT_EQ(try_parse_frame(bad, view), FrameStatus::BadCrc)
          << "byte " << byte << " bit " << bit;
    }
  }
}

// ------------------------------------------------------------- codecs

TEST(Codec, HelloRoundTrip) {
  NetRequest req;
  req.hdr.op = static_cast<std::uint8_t>(NetOp::Hello);
  req.hdr.flags = (1u << 1) | kFlagCertifiedTenant;  // bit 1: retired
  req.hdr.request_id = 0xDEADBEEFCAFE;
  req.tenant = "tenant-A_1";
  req.durability = 2;
  req.fsync_interval = 128;
  req.platform_m = 4;  // v2: global admission over 4 processors

  const NetRequest out = decode_request(encode_request(req));
  EXPECT_EQ(out.hdr.op, req.hdr.op);
  EXPECT_EQ(out.hdr.flags, req.hdr.flags);
  EXPECT_EQ(out.hdr.request_id, req.hdr.request_id);
  EXPECT_EQ(out.tenant, req.tenant);
  EXPECT_EQ(out.durability, req.durability);
  EXPECT_EQ(out.fsync_interval, req.fsync_interval);
  EXPECT_EQ(out.platform_m, 4u);
}

TEST(Codec, V1HelloDefaultsToUniprocessor) {
  // A v1 peer's HELLO ends after fsync_interval (or after the client
  // id); both shapes must decode with platform_m = 1 — the v2 fields
  // are strictly trailing.
  ByteWriter w;
  w.u8(1);  // version 1
  w.u8(static_cast<std::uint8_t>(NetOp::Hello));
  w.u8(0);
  w.u8(0);
  w.u64(9);
  w.str("legacy");
  w.u8(0);
  w.u64(64);
  const NetRequest bare = decode_request(w.data());
  EXPECT_EQ(bare.tenant, "legacy");
  EXPECT_EQ(bare.platform_m, 1u);

  w.str("client-7");  // dedup-era HELLO, still pre-platform
  const NetRequest with_client = decode_request(w.data());
  EXPECT_EQ(with_client.client, "client-7");
  EXPECT_EQ(with_client.platform_m, 1u);

  // And a v1-shaped HELLO *response* (ends at highest_applied).
  ByteWriter r;
  r.u8(1);
  r.u8(static_cast<std::uint8_t>(NetOp::Hello));
  r.u8(0);
  r.u8(0);
  r.u64(9);
  r.u64(10);  // base_lsn
  r.u64(20);  // lsn
  r.u64(30);  // epoch
  r.u64(0);   // highest_applied
  const NetResponse resp = decode_response(r.data());
  EXPECT_EQ(resp.lsn, 20u);
  EXPECT_EQ(resp.platform_m, 1u);
}

TEST(Codec, AdmitAndGroupRoundTrip) {
  NetRequest req;
  req.hdr.op = static_cast<std::uint8_t>(NetOp::Admit);
  req.hdr.flags = kFlagWantCertificate;
  req.task = tk(3, 17, 40);
  req.task.name = "camera";
  NetRequest out = decode_request(encode_request(req));
  EXPECT_EQ(out.task.wcet, 3);
  EXPECT_EQ(out.task.deadline, 17);
  EXPECT_EQ(out.task.period, 40);
  EXPECT_EQ(out.task.name, "camera");

  NetRequest grp;
  grp.hdr.op = static_cast<std::uint8_t>(NetOp::AdmitGroup);
  grp.group = {tk(1, 10, 20), tk(2, 30, 60), tk(5, 50, 100)};
  out = decode_request(encode_request(grp));
  ASSERT_EQ(out.group.size(), 3u);
  EXPECT_EQ(out.group[1].wcet, 2);
  EXPECT_EQ(out.group[2].period, 100);
}

TEST(Codec, RemoveOpsRoundTrip) {
  NetRequest req;
  req.hdr.op = static_cast<std::uint8_t>(NetOp::Remove);
  req.id = 42;
  EXPECT_EQ(decode_request(encode_request(req)).id, 42u);

  NetRequest grp;
  grp.hdr.op = static_cast<std::uint8_t>(NetOp::RemoveGroup);
  grp.ids = {7, 9, 11, 13};
  const NetRequest out = decode_request(encode_request(grp));
  EXPECT_EQ(out.ids, grp.ids);
}

TEST(Codec, ResponseRoundTripPerStatus) {
  NetResponse ok;
  ok.hdr.op = static_cast<std::uint8_t>(NetOp::AdmitGroup);
  ok.hdr.status = static_cast<std::uint8_t>(NetStatus::Ok);
  ok.hdr.request_id = 77;
  ok.ids = {100, 101, 102};
  ok.rung = 2;
  ok.verdict = 1;
  NetResponse out = decode_response(encode_response(ok));
  EXPECT_EQ(out.hdr.request_id, 77u);
  EXPECT_EQ(out.ids, ok.ids);
  EXPECT_EQ(out.rung, 2);

  NetResponse shed;
  shed.hdr.op = static_cast<std::uint8_t>(NetOp::Admit);
  shed.hdr.status = static_cast<std::uint8_t>(NetStatus::Shed);
  shed.retry_after_ms = 250;
  out = decode_response(encode_response(shed));
  EXPECT_EQ(out.retry_after_ms, 250u);

  NetResponse stats;
  stats.hdr.op = static_cast<std::uint8_t>(NetOp::Stats);
  stats.stats.residents = 12;
  stats.stats.utilization = 0.625;
  stats.stats_json = "{\"arrivals\":3}";
  stats.platform_m = 8;
  out = decode_response(encode_response(stats));
  EXPECT_EQ(out.stats.residents, 12u);
  EXPECT_DOUBLE_EQ(out.stats.utilization, 0.625);
  EXPECT_EQ(out.stats_json, stats.stats_json);
  EXPECT_EQ(out.platform_m, 8u);

  NetResponse hello;
  hello.hdr.op = static_cast<std::uint8_t>(NetOp::Hello);
  hello.base_lsn = 640;
  hello.lsn = 700;
  hello.platform_m = 2;
  out = decode_response(encode_response(hello));
  EXPECT_EQ(out.base_lsn, 640u);
  EXPECT_EQ(out.lsn, 700u);
  EXPECT_EQ(out.platform_m, 2u);
}

TEST(Codec, CertificateRidesTheResponse) {
  // Build a real certificate and check it survives the wire bit-exact
  // (the client re-verifies it, so every field matters).
  const TaskSet ts = testing::set_of({tk(1, 10, 20), tk(2, 20, 40)});
  const auto cert = build_feasibility_certificate(ts);
  ASSERT_TRUE(cert.has_value());

  NetResponse resp;
  resp.hdr.op = static_cast<std::uint8_t>(NetOp::Admit);
  resp.hdr.flags = kFlagHasCertificate;
  resp.id = 5;
  resp.certificate = *cert;
  const NetResponse out = decode_response(encode_response(resp));
  ASSERT_TRUE((out.hdr.flags & kFlagHasCertificate) != 0);
  EXPECT_EQ(out.certificate.kind, cert->kind);
  EXPECT_EQ(out.certificate.borders, cert->borders);
  EXPECT_TRUE(verify(ts, out.certificate).valid);
}

TEST(Codec, MultiprocessorCertificateRidesTheResponse) {
  // The v2 trailing fields (processors, multi_test) must survive the
  // wire: a global-mode client re-verifies the certificate locally,
  // and verification recomputes the named test on the named platform.
  Certificate cert;
  cert.kind = CertificateKind::MultiFeasibleWindow;
  cert.multi_test = MultiTest::Rta;
  cert.processors = 4;
  cert.borders = {7, 12, 31};

  NetResponse resp;
  resp.hdr.op = static_cast<std::uint8_t>(NetOp::Admit);
  resp.hdr.flags = kFlagHasCertificate;
  resp.certificate = cert;
  const NetResponse out = decode_response(encode_response(resp));
  EXPECT_EQ(out.certificate.kind, cert.kind);
  EXPECT_EQ(out.certificate.multi_test, MultiTest::Rta);
  EXPECT_EQ(out.certificate.processors, 4u);
  EXPECT_EQ(out.certificate.borders, cert.borders);
}

TEST(Codec, ShortBodyThrowsOutOfRange) {
  // A frame whose CRC is fine but whose body is shorter than the op
  // demands must throw (the server answers BadRequest), not read junk.
  for (const NetOp op : {NetOp::Hello, NetOp::Admit, NetOp::AdmitGroup,
                         NetOp::Remove, NetOp::RemoveGroup}) {
    NetRequest req;
    req.hdr.op = static_cast<std::uint8_t>(op);
    req.tenant = "t";
    req.group = {tk(1, 5, 10)};
    req.ids = {1};
    std::vector<std::uint8_t> payload = encode_request(req);
    payload.resize(kMessageHeaderBytes);  // keep the header, drop the body
    if (op == NetOp::Hello || op == NetOp::Admit) {
      EXPECT_THROW((void)decode_request(payload), std::out_of_range)
          << to_string(op);
    } else {
      // Count-prefixed bodies: also try lying about the count.
      EXPECT_THROW((void)decode_request(payload), std::out_of_range)
          << to_string(op);
    }
  }
}

TEST(Codec, CountPrefixCannotOverrunTheBody) {
  // An AdmitGroup whose count claims more tasks than the body could
  // possibly hold must throw, not allocate or scan past the end.
  NetRequest req;
  req.hdr.op = static_cast<std::uint8_t>(NetOp::AdmitGroup);
  req.group = {tk(1, 5, 10)};
  std::vector<std::uint8_t> payload = encode_request(req);
  const std::uint32_t lie = 0x00FFFFFF;
  std::memcpy(payload.data() + kMessageHeaderBytes, &lie, sizeof(lie));
  EXPECT_THROW((void)decode_request(payload), std::out_of_range);
}

TEST(Codec, UnknownOpDecodesHeaderOnly) {
  NetRequest req;
  req.hdr.op = 99;
  req.hdr.request_id = 1234;
  const NetRequest out = decode_request(encode_request(req));
  EXPECT_EQ(out.hdr.op, 99);
  EXPECT_EQ(out.hdr.request_id, 1234u);
}

TEST(Codec, RandomRequestRoundTripFuzz) {
  // Property fuzz: arbitrary-but-valid requests of every wire op survive
  // encode -> frame -> parse -> decode unchanged. Header-only ops carry
  // their randomness in the header; the switch stays exhaustive so a
  // new op cannot be added without a payload here.
  Rng rng(2005);
  const auto random_bytes = [&](int max_len) {
    std::vector<std::uint8_t> b(
        static_cast<std::size_t>(rng.uniform_int(0, max_len)));
    for (std::uint8_t& x : b) {
      x = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    return b;
  };
  const auto random_tenant = [&] {
    return "f" + std::to_string(rng.uniform_int(0, 1 << 30));
  };
  const std::uint64_t iters = 200 * testing::fuzz_multiplier();
  for (std::uint64_t i = 0; i < iters; ++i) {
    NetRequest req;
    const auto op = static_cast<NetOp>(
        1 + rng.uniform_int(0, static_cast<int>(kNetOpCount) - 2));
    req.hdr.op = static_cast<std::uint8_t>(op);
    req.hdr.flags = static_cast<std::uint8_t>(rng.uniform_int(0, 7));
    req.hdr.request_id = rng.engine()();
    switch (op) {
      case NetOp::Hello:
        req.tenant = random_tenant();
        req.durability = static_cast<std::uint8_t>(rng.uniform_int(0, 2));
        req.fsync_interval = static_cast<std::uint64_t>(
            rng.uniform_int(1, 1 << 20));
        if (rng.uniform_int(0, 1) == 1) {
          req.client = "c" + std::to_string(rng.uniform_int(0, 1 << 20));
        }
        req.platform_m =
            static_cast<std::uint32_t>(rng.uniform_int(1, 64));
        break;
      case NetOp::Admit:
        req.task = tk(1 + rng.uniform_int(0, 99),
                      100 + rng.uniform_int(0, 899),
                      1000 + rng.uniform_int(0, 9000));
        break;
      case NetOp::AdmitGroup:
        for (int k = rng.uniform_int(0, 8); k > 0; --k) {
          req.group.push_back(tk(1 + rng.uniform_int(0, 9),
                                 10 + rng.uniform_int(0, 89),
                                 100 + rng.uniform_int(0, 900)));
        }
        break;
      case NetOp::Remove:
        req.id = rng.engine()();
        break;
      case NetOp::RemoveGroup:
        for (int k = rng.uniform_int(0, 16); k > 0; --k) {
          req.ids.push_back(rng.engine()());
        }
        break;
      case NetOp::ReplHello:
        req.tenant = random_tenant();
        req.durability = static_cast<std::uint8_t>(rng.uniform_int(0, 2));
        req.fsync_interval = static_cast<std::uint64_t>(
            rng.uniform_int(1, 1 << 20));
        break;
      case NetOp::ReplAppend:
        req.tenant = random_tenant();
        req.repl_lsn = rng.engine()();
        for (int k = rng.uniform_int(0, 6); k > 0; --k) {
          req.repl_records.push_back(random_bytes(48));
        }
        req.digest_lsn = rng.engine()();
        req.digest = static_cast<std::uint32_t>(rng.engine()());
        break;
      case NetOp::ReplSnapshot:
        req.tenant = random_tenant();
        req.repl_lsn = rng.engine()();
        req.repl_snapshot = random_bytes(256);
        req.repl_dedup = random_bytes(64);
        break;
      case NetOp::Stats:
      case NetOp::Ping:
      case NetOp::ReplAck:
      case NetOp::Promote:
        break;  // header-only
    }

    std::vector<std::uint8_t> wire;
    append_frame(wire, encode_request(req));
    FrameView view;
    ASSERT_EQ(try_parse_frame(wire, view), FrameStatus::Ok);
    const NetRequest out = decode_request(view.payload);
    EXPECT_EQ(out.hdr.op, req.hdr.op);
    EXPECT_EQ(out.hdr.flags, req.hdr.flags);
    EXPECT_EQ(out.hdr.request_id, req.hdr.request_id);
    EXPECT_EQ(out.tenant, req.tenant);
    EXPECT_EQ(out.durability, req.durability);
    EXPECT_EQ(out.fsync_interval, req.fsync_interval);
    EXPECT_EQ(out.client, req.client);
    EXPECT_EQ(out.platform_m, req.platform_m);
    EXPECT_TRUE(out.task == req.task);
    EXPECT_EQ(out.id, req.id);
    EXPECT_EQ(out.ids, req.ids);
    ASSERT_EQ(out.group.size(), req.group.size());
    for (std::size_t g = 0; g < req.group.size(); ++g) {
      EXPECT_TRUE(out.group[g] == req.group[g]) << g;
    }
    EXPECT_EQ(out.repl_lsn, req.repl_lsn);
    EXPECT_EQ(out.repl_records, req.repl_records);
    EXPECT_EQ(out.digest_lsn, req.digest_lsn);
    EXPECT_EQ(out.digest, req.digest);
    EXPECT_EQ(out.repl_snapshot, req.repl_snapshot);
    EXPECT_EQ(out.repl_dedup, req.repl_dedup);
  }
}

// ----------------------------------------------------- repl op codecs

TEST(Codec, ReplHelloRoundTrip) {
  NetRequest req;
  req.hdr.op = static_cast<std::uint8_t>(NetOp::ReplHello);
  req.hdr.request_id = 9;
  req.tenant = "pc";
  req.durability = 2;  // FsyncPolicy::EveryN
  req.fsync_interval = 32;
  const NetRequest out = decode_request(encode_request(req));
  EXPECT_EQ(out.hdr.op, req.hdr.op);
  EXPECT_EQ(out.tenant, "pc");
  EXPECT_EQ(out.durability, req.durability);
  EXPECT_EQ(out.fsync_interval, 32u);
}

TEST(Codec, ReplAppendRoundTrip) {
  NetRequest req;
  req.hdr.op = static_cast<std::uint8_t>(NetOp::ReplAppend);
  req.tenant = "pc";
  req.repl_lsn = 1234;
  req.repl_records = {{0x01, 0x02, 0x03}, {}, {0xff}};
  req.digest_lsn = 1237;
  req.digest = 0xdeadbeef;
  const NetRequest out = decode_request(encode_request(req));
  EXPECT_EQ(out.repl_lsn, 1234u);
  EXPECT_EQ(out.repl_records, req.repl_records);
  EXPECT_EQ(out.digest_lsn, 1237u);
  EXPECT_EQ(out.digest, 0xdeadbeefu);

  // A 0-record append with a digest is the idle pure-check shape.
  req.repl_records.clear();
  const NetRequest pure = decode_request(encode_request(req));
  EXPECT_TRUE(pure.repl_records.empty());
  EXPECT_EQ(pure.digest_lsn, 1237u);
}

TEST(Codec, ReplSnapshotRoundTrip) {
  NetRequest req;
  req.hdr.op = static_cast<std::uint8_t>(NetOp::ReplSnapshot);
  req.tenant = "pc";
  req.repl_lsn = 77;
  req.repl_snapshot = {0xaa, 0xbb, 0xcc, 0xdd};
  req.repl_dedup = {0x11};
  const NetRequest out = decode_request(encode_request(req));
  EXPECT_EQ(out.repl_lsn, 77u);
  EXPECT_EQ(out.repl_snapshot, req.repl_snapshot);
  EXPECT_EQ(out.repl_dedup, req.repl_dedup);
}

TEST(Codec, ReplAckAndPromoteResponsesRoundTrip) {
  NetResponse ack;
  ack.hdr.op = static_cast<std::uint8_t>(NetOp::ReplAppend);
  ack.hdr.status = static_cast<std::uint8_t>(NetStatus::Ok);
  ack.base_lsn = 64;
  ack.lsn = 96;
  ack.repl_flags = kReplNeedSnapshot | kReplDiverged;
  NetResponse out = decode_response(encode_response(ack));
  EXPECT_EQ(out.base_lsn, 64u);
  EXPECT_EQ(out.lsn, 96u);
  EXPECT_EQ(out.repl_flags, kReplNeedSnapshot | kReplDiverged);

  NetResponse prom;
  prom.hdr.op = static_cast<std::uint8_t>(NetOp::Promote);
  prom.hdr.status = static_cast<std::uint8_t>(NetStatus::Ok);
  prom.promoted = 3;
  out = decode_response(encode_response(prom));
  EXPECT_EQ(out.promoted, 3u);
}

}  // namespace
}  // namespace edfkit::net
