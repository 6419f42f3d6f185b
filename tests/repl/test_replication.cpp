/// \file test_replication.cpp
/// Hot-standby replication, end to end over loopback: the shipper
/// tails a live primary's journal and the follower replays it to a
/// bit-identical store (digest-compared); a record corrupted in flight
/// *after* the wire CRC is caught by the periodic digest exchange
/// within one interval and healed by a full re-seed; and the whole
/// failover story — primary dies with acked-but-unshipped operations,
/// the standby is promoted, the client walks its endpoint list,
/// re-drives the lost gap under original ids, and lands on a store
/// identical to an uninterrupted twin's, with a duplicate resend
/// answered from the dedup cache instead of applied twice.
#include "repl/shipper.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "admission/controller.hpp"
#include "admission/snapshot.hpp"
#include "fault/fault.hpp"
#include "helpers.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "obs/obs.hpp"

namespace edfkit::repl {
namespace {

using edfkit::testing::tk;
using namespace std::chrono_literals;

std::string temp_dir(const char* tag) {
  static int counter = 0;
  const auto dir = std::filesystem::temp_directory_path() /
                   ("edfkit_repl_test_" + std::to_string(::getpid()) + "_" +
                    tag + "_" + std::to_string(counter++));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

net::NetStatus status_of(const net::NetResponse& r) {
  return static_cast<net::NetStatus>(r.hdr.status);
}

/// Wait until `pred` holds, polling; fails the test on timeout.
template <typename Pred>
::testing::AssertionResult wait_for(Pred pred, std::chrono::milliseconds
                                                   timeout = 5000ms) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) {
      return ::testing::AssertionFailure() << "timed out waiting";
    }
    std::this_thread::sleep_for(2ms);
  }
  return ::testing::AssertionSuccess();
}

/// Wait until the shipper's follower-acked LSN for `tenant` stops
/// moving (no change across `quiet`); returns the settled LSN.
std::uint64_t settle_acked(const Shipper& ship, const std::string& tenant,
                          std::chrono::milliseconds quiet = 150ms) {
  std::uint64_t last = ship.acked_lsn(tenant);
  auto last_change = std::chrono::steady_clock::now();
  const auto deadline = last_change + 5000ms;
  for (;;) {
    std::this_thread::sleep_for(5ms);
    const std::uint64_t now_lsn = ship.acked_lsn(tenant);
    const auto now = std::chrono::steady_clock::now();
    if (now_lsn != last) {
      last = now_lsn;
      last_change = now;
    } else if (now - last_change > quiet || now > deadline) {
      return last;
    }
  }
}

class ReplTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::disarm_all(); }
  void TearDown() override { fault::disarm_all(); }
};

// ----------------------------------------------- deterministic follow

TEST_F(ReplTest, ShipsDeterministicFollower) {
  const std::string pdir = temp_dir("ship_p");
  const std::string sdir = temp_dir("ship_s");

  net::ServerOptions sopts;
  sopts.tenants.data_dir = sdir;
  sopts.tenants.standby = true;
  net::Server standby(sopts);
  std::thread standby_loop([&] { standby.run(); });

  net::ServerOptions popts;
  popts.tenants.data_dir = pdir;
  net::Server primary(popts);
  std::thread primary_loop([&] { primary.run(); });

  ShipperOptions shop;
  shop.port = standby.port();
  shop.data_dir = pdir;
  shop.poll_interval_ms = 1;
  Shipper ship(shop);
  ship.start();

  // Drive a mixed trace through the exactly-once client: admits at
  // several spans (some reject at full utilization) plus removes, so
  // the follower must reproduce TaskId assignment, ladder placement,
  // dedup marks and eviction — not just a happy path.
  net::RetryingClient rc("127.0.0.1", primary.port(), "t", "cli");
  std::vector<TaskId> ids;
  for (int i = 0; i < 48; ++i) {
    const std::uint32_t span = 8u << (i % 4);
    const net::NetResponse r = rc.admit(tk(1, span, span));
    if (status_of(r) == net::NetStatus::Ok) ids.push_back(r.id);
    if (i % 7 == 3 && !ids.empty()) {
      (void)rc.remove(ids.back());
      ids.pop_back();
    }
  }

  // The follower catches up to the primary's full journal (op records
  // and ClientMark dedup records alike).
  const std::uint64_t shipped = settle_acked(ship, "t");
  EXPECT_GT(shipped, 0u);

  ship.stop();
  primary.stop();
  standby.stop();
  primary_loop.join();
  standby_loop.join();

  net::Tenant* p = primary.tenants().find("t");
  net::Tenant* s = standby.tenants().find("t");
  ASSERT_NE(p, nullptr);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(shipped, p->journal_lsn());
  EXPECT_EQ(s->replica_lsn(), p->journal_lsn());
  EXPECT_FALSE(s->diverged());

  // Bit-identical stores, and the dedup watermark replicated with them.
  EXPECT_EQ(store_digest(s->controller()), store_digest(p->controller()));
  EXPECT_EQ(s->highest_applied("cli"), p->highest_applied("cli"));
  EXPECT_TRUE(s->controller().verify_consistency());
}

// ------------------------------------ new follower: seed, then apply

// The standby's half, driven by hand: a tenant that has loaded no
// snapshot asks for one at REPL_HELLO and applies no shipped record
// before it arrives, and an empty REPL_SNAPSHOT (which would leave the
// tenant on the standby's own defaults) is a BadRequest.
TEST_F(ReplTest, UnseededFollowerAppliesNothingBeforeTheSeed) {
  net::ServerOptions sopts;
  sopts.tenants.standby = true;
  net::Server standby(sopts);
  std::thread standby_loop([&] { standby.run(); });
  net::Client c = net::Client::connect("127.0.0.1", standby.port());
  const auto request = [](net::NetOp op) {
    net::NetRequest req;
    req.hdr.op = static_cast<std::uint8_t>(op);
    req.tenant = "t";
    return req;
  };

  const net::NetResponse hello = c.call(request(net::NetOp::ReplHello));
  EXPECT_EQ(status_of(hello), net::NetStatus::Ok);
  EXPECT_NE(hello.repl_flags & net::kReplNeedSnapshot, 0);

  net::NetRequest append = request(net::NetOp::ReplAppend);
  append.repl_records.push_back(journal_codec::admit(tk(1, 8, 8)));
  const net::NetResponse ack = c.call(std::move(append));
  EXPECT_NE(ack.repl_flags & net::kReplNeedSnapshot, 0);

  EXPECT_EQ(status_of(c.call(request(net::NetOp::ReplSnapshot))),
            net::NetStatus::BadRequest);

  // A primary's checkpoint seeds it, options included.
  AdmissionOptions global;
  global.platform.m = 4;
  global.return_certificate = true;
  AdmissionController primary(global);
  (void)primary.try_admit(tk(3, 8, 8));
  net::NetRequest seed = request(net::NetOp::ReplSnapshot);
  seed.repl_snapshot = encode_snapshot(primary, 0);
  EXPECT_EQ(status_of(c.call(std::move(seed))), net::NetStatus::Ok);
  const net::NetResponse again = c.call(request(net::NetOp::ReplHello));
  EXPECT_EQ(again.repl_flags & net::kReplNeedSnapshot, 0);

  standby.stop();
  standby_loop.join();
  const net::Tenant* s = standby.tenants().find("t");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->replica_lsn(), 0u);
  EXPECT_EQ(s->controller().options().platform.m, 4u);
  EXPECT_TRUE(s->controller().options().return_certificate);
  EXPECT_EQ(store_digest(s->controller()), store_digest(primary));
}

// A new follower tenant takes its options from the primary's snapshot
// before it applies a single record: the journal does not carry them,
// and the standby's own defaults (one processor, no certificates)
// decide this trace differently — the digest exchange would catch the
// divergence and re-seed, but only after the follower served a wrong
// store.
TEST_F(ReplTest, NewFollowerTakesThePrimarysOptionsBeforeApplying) {
  const std::string pdir = temp_dir("seed_p");
  const std::string sdir = temp_dir("seed_s");

  obs::Obs obs{obs::ObsConfig{}};
  net::ServerOptions sopts;
  sopts.tenants.data_dir = sdir;
  sopts.tenants.standby = true;
  net::Server standby(sopts, &obs);
  std::thread standby_loop([&] { standby.run(); });

  ShipperOptions shop;
  shop.port = standby.port();
  shop.data_dir = pdir;
  shop.poll_interval_ms = 1;
  Shipper ship(shop, &obs);

  net::ServerOptions popts;
  popts.tenants.data_dir = pdir;
  popts.shipper = &ship;
  popts.digest_interval_ms = 5;
  net::Server primary(popts, &obs);
  std::thread primary_loop([&] { primary.run(); });
  ship.start();

  // A certified global tenant on 4 processors. Each task has U = 3/8,
  // so the resident set climbs past U = 1 (which one processor
  // refuses) and departures keep it churning.
  net::RetryingClient rc("127.0.0.1", primary.port(), "g", "cli", {},
                         persist::FsyncPolicy::None, 64,
                         net::kFlagCertifiedTenant, /*platform_m=*/4);
  std::deque<TaskId> ids;
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t span = 8u << (i % 3);
    const net::NetResponse r = rc.admit(tk(3 * span / 8, span, span));
    if (status_of(r) == net::NetStatus::Ok) ids.push_back(r.id);
    if (i % 5 == 4 && !ids.empty()) {
      (void)rc.remove(ids.front());
      ids.pop_front();
    }
    std::this_thread::sleep_for(1ms);
  }
  const std::uint64_t shipped = settle_acked(ship, "g");
  EXPECT_GT(shipped, 0u);

  ship.stop();
  primary.stop();
  standby.stop();
  primary_loop.join();
  standby_loop.join();

  net::Tenant* p = primary.tenants().find("g");
  net::Tenant* s = standby.tenants().find("g");
  ASSERT_NE(p, nullptr);
  ASSERT_NE(s, nullptr);
  const AdmissionOptions& po = p->controller().options();
  const AdmissionOptions& so = s->controller().options();
  EXPECT_EQ(po.platform.m, 4u);
  EXPECT_TRUE(po.return_certificate);
  EXPECT_EQ(so.epsilon, po.epsilon);
  EXPECT_EQ(so.skip_exact, po.skip_exact);
  EXPECT_EQ(so.return_certificate, po.return_certificate);
  EXPECT_EQ(so.platform.m, po.platform.m);
  EXPECT_GT(p->controller().utilization(), 1.0);  // beyond one processor
  EXPECT_EQ(s->replica_lsn(), p->journal_lsn());
  EXPECT_EQ(store_digest(s->controller()), store_digest(p->controller()));
  EXPECT_EQ(obs.registry().counter_value("repl_digest_mismatches_total"),
            0u);
  EXPECT_FALSE(s->diverged());
}

// ------------------------------------- corruption -> digest -> reseed

// Satellite: a failpoint corrupts one shipped record *after* the
// journal read (the wire frame re-CRCs the corrupted bytes, so framing
// passes and the follower applies a wrong record). The periodic digest
// exchange must catch the divergence within one interval and the
// shipper must heal it with a full re-seed; the run ends converged.
TEST_F(ReplTest, CorruptShippedRecordDetectedAndReseeded) {
  const std::string pdir = temp_dir("corrupt_p");
  const std::string sdir = temp_dir("corrupt_s");

  obs::Obs obs{obs::ObsConfig{}};

  // One Obs shared by all three parties: primary pushes digests, the
  // shipper counts mismatches/seeds sent, the standby counts seeds
  // applied — the assertions below read each side's counters.
  net::ServerOptions sopts;
  sopts.tenants.data_dir = sdir;
  sopts.tenants.standby = true;
  net::Server standby(sopts, &obs);
  std::thread standby_loop([&] { standby.run(); });

  ShipperOptions shop;
  shop.port = standby.port();
  shop.data_dir = pdir;
  shop.poll_interval_ms = 1;
  shop.max_batch_records = 4;  // the corrupted record ships alone-ish
  Shipper ship(shop, &obs);

  net::ServerOptions popts;
  popts.tenants.data_dir = pdir;
  popts.shipper = &ship;
  popts.digest_interval_ms = 10;
  net::Server primary(popts, &obs);
  std::thread primary_loop([&] { primary.run(); });
  ship.start();

  fault::point(fault::kReplCorruptSite).arm(fault::Mode::Once);

  net::RetryingClient rc("127.0.0.1", primary.port(), "t", "cli");
  for (int i = 0; i < 24; ++i) {
    (void)rc.admit(tk(1, 8u << (i % 3), 8u << (i % 3)));
    std::this_thread::sleep_for(2ms);
  }

  // Detection within one digest interval of catch-up, then the heal.
  auto& reg = obs.registry();
  EXPECT_TRUE(wait_for(
      [&] { return reg.counter_value("repl_digest_mismatches_total") >= 1; }));
  EXPECT_TRUE(wait_for(
      [&] { return reg.counter_value("repl_seeds_sent_total") >= 1; }));
  EXPECT_TRUE(wait_for(
      [&] { return reg.counter_value("repl_seeds_applied_total") >= 1; }));

  // More traffic after the heal; the follower converges again.
  for (int i = 0; i < 8; ++i) (void)rc.admit(tk(1, 8, 8));
  const std::uint64_t shipped = settle_acked(ship, "t");
  EXPECT_GT(shipped, 0u);

  ship.stop();
  primary.stop();
  standby.stop();
  primary_loop.join();
  standby_loop.join();

  net::Tenant* p = primary.tenants().find("t");
  net::Tenant* s = standby.tenants().find("t");
  ASSERT_NE(p, nullptr);
  ASSERT_NE(s, nullptr);
  // The re-seed cleared the divergence and the stores re-converged.
  EXPECT_FALSE(s->diverged());
  EXPECT_EQ(s->replica_lsn(), p->journal_lsn());
  EXPECT_EQ(store_digest(s->controller()), store_digest(p->controller()));
}

// -------------------------------------------- promote + failover gap

// The full failover story against an in-process uninterrupted twin:
// every client operation is mirrored to a twin server that never
// fails; the primary dies with acked-but-unshipped operations; the
// promoted standby plus the client's re-drive must land on a store
// bit-identical to the twin's, and a duplicate resend of an applied id
// must be answered from the dedup cache, not applied again.
TEST_F(ReplTest, PromoteAndFailoverDifferential) {
  const std::string pdir = temp_dir("fail_p");
  const std::string sdir = temp_dir("fail_s");
  const std::string tdir = temp_dir("fail_twin");

  net::ServerOptions sopts;
  sopts.tenants.data_dir = sdir;
  sopts.tenants.standby = true;
  net::Server standby(sopts);
  std::thread standby_loop([&] { standby.run(); });

  net::ServerOptions popts;
  popts.tenants.data_dir = pdir;
  std::optional<net::Server> primary;
  primary.emplace(popts);
  std::thread primary_loop([&] { primary->run(); });

  net::ServerOptions topts;
  topts.tenants.data_dir = tdir;
  net::Server twin(topts);
  std::thread twin_loop([&] { twin.run(); });

  ShipperOptions shop;
  shop.port = standby.port();
  shop.data_dir = pdir;
  shop.poll_interval_ms = 1;
  Shipper ship(shop);
  ship.start();

  net::RetryPolicy policy;
  policy.failover_after_unavailable = 2;
  net::RetryingClient rc(
      {{"127.0.0.1", primary->port()}, {"127.0.0.1", standby.port()}}, "t",
      "cli", policy);
  net::RetryingClient twin_rc("127.0.0.1", twin.port(), "t", "cli");

  struct SentOp {
    std::uint64_t id = 0;
    Task task;
    net::NetResponse resp;
  };
  std::deque<SentOp> window;
  std::uint64_t redriven = 0;
  std::uint64_t redrive_mismatches = 0;
  rc.set_on_reconnect([&] {
    // Acked ids above the new server's watermark died with the
    // primary: re-apply them in original order under original ids —
    // determinism makes each answer bit-equal to the lost primary's.
    const std::uint64_t watermark = rc.highest_applied();
    for (const SentOp& op : window) {
      if (op.id <= watermark) continue;
      net::NetRequest req;
      req.hdr.op = static_cast<std::uint8_t>(net::NetOp::Admit);
      req.hdr.request_id = op.id;
      req.task = op.task;
      const net::NetResponse got = rc.call(std::move(req));
      ++redriven;
      if (got.hdr.status != op.resp.hdr.status || got.id != op.resp.id ||
          got.rung != op.resp.rung) {
        ++redrive_mismatches;
      }
    }
  });

  // Mirror every operation to the twin exactly once (re-drives and
  // deliberate resends are recovery traffic, not new operations).
  const auto drive = [&](const Task& t) {
    const net::NetResponse r = rc.admit(t);
    window.push_back({rc.last_request_id(), t, r});
    const net::NetResponse tw = twin_rc.admit(t);
    EXPECT_EQ(status_of(r), status_of(tw));
    EXPECT_EQ(r.id, tw.id);
  };

  // Phase 1: replicated prefix.
  for (int i = 0; i < 20; ++i) drive(tk(1, 8u << (i % 3), 8u << (i % 3)));
  const std::uint64_t prefix = settle_acked(ship, "t");
  EXPECT_GT(prefix, 0u);

  // Phase 2: the shipper dies first, then the primary acks a gap the
  // standby never sees — the async-ack durability hole.
  ship.stop();
  for (int i = 0; i < 5; ++i) drive(tk(1, 16, 16));

  // Phase 3: primary dies hard; standby is promoted over the wire.
  primary->stop();
  primary_loop.join();
  primary.reset();  // close the listen socket so failover must rotate
  {
    net::Client admin = net::Client::connect("127.0.0.1", standby.port());
    (void)admin.call([] {
      net::NetRequest h;
      h.hdr.op = static_cast<std::uint8_t>(net::NetOp::Hello);
      h.tenant = "t";
      return h;
    }());
    net::NetRequest prom;
    prom.hdr.op = static_cast<std::uint8_t>(net::NetOp::Promote);
    const net::NetResponse r = admin.call(std::move(prom));
    ASSERT_EQ(status_of(r), net::NetStatus::Ok);
    EXPECT_GE(r.promoted, 1u);
  }

  // Phase 4: the next call walks the endpoint list, re-drives the gap
  // through the hook, then completes — and the trace continues.
  for (int i = 0; i < 10; ++i) drive(tk(1, 8u << (i % 3), 8u << (i % 3)));
  EXPECT_GE(rc.failovers(), 1u);
  EXPECT_EQ(redriven, 5u);
  EXPECT_EQ(redrive_mismatches, 0u);

  // A duplicate resend of an applied id is answered from the dedup
  // cache, bit-equal, without a second apply.
  {
    const SentOp& last = window.back();
    net::NetRequest req;
    req.hdr.op = static_cast<std::uint8_t>(net::NetOp::Admit);
    req.hdr.request_id = last.id;
    req.task = last.task;
    const net::NetResponse again = rc.call(std::move(req));
    EXPECT_EQ(again.hdr.status, last.resp.hdr.status);
    EXPECT_EQ(again.id, last.resp.id);
    EXPECT_EQ(again.rung, last.resp.rung);
  }

  twin.stop();
  standby.stop();
  twin_loop.join();
  standby_loop.join();

  // Differential: the promoted standby's store is bit-identical to the
  // uninterrupted twin's — nothing lost, nothing applied twice.
  net::Tenant* s = standby.tenants().find("t");
  net::Tenant* t = twin.tenants().find("t");
  ASSERT_NE(s, nullptr);
  ASSERT_NE(t, nullptr);
  EXPECT_FALSE(s->standby());  // promoted
  EXPECT_EQ(store_digest(s->controller()), store_digest(t->controller()));
  EXPECT_EQ(s->highest_applied("cli"), t->highest_applied("cli"));
  EXPECT_TRUE(s->controller().verify_consistency());
}

}  // namespace
}  // namespace edfkit::repl
