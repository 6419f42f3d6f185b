/// \file test_retry.cpp
/// Exactly-once retry, end to end: client deadlines (NetTimeout), the
/// per-tenant dedup window (hit / evicted / HELLO guards), resends
/// across a server restart answered bit-equal from the journal-rebuilt
/// window, and a RetryingClient chaos differential — responses dropped
/// at random after commit must leave the server's state identical to
/// an in-process twin that saw every request exactly once.
#include "net/client.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "admission/controller.hpp"
#include "fault/fault.hpp"
#include "helpers.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "obs/obs.hpp"

namespace edfkit::net {
namespace {

using edfkit::testing::tk;

std::string temp_dir() {
  static int counter = 0;
  const auto dir = std::filesystem::temp_directory_path() /
                   ("edfkit_retry_test_" + std::to_string(::getpid()) + "_" +
                    std::to_string(counter++));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

void pump(Server& server, int ticks = 4) {
  for (int i = 0; i < ticks; ++i) (void)server.poll_once(10);
}

NetResponse round_trip(Server& server, Client& client, NetRequest req) {
  client.send(std::move(req));
  pump(server);
  return client.receive();
}

NetStatus status_of(const NetResponse& r) {
  return static_cast<NetStatus>(r.hdr.status);
}

NetRequest hello_request(const std::string& tenant,
                         const std::string& client = "",
                         std::uint8_t flags = 0) {
  NetRequest req;
  req.hdr.op = static_cast<std::uint8_t>(NetOp::Hello);
  req.hdr.flags = flags;
  req.tenant = tenant;
  req.durability =
      static_cast<std::uint8_t>(persist::FsyncPolicy::EveryRecord);
  req.fsync_interval = 1;
  req.client = client;
  return req;
}

NetRequest admit_request(const Task& t, std::uint64_t request_id = 0) {
  NetRequest req;
  req.hdr.op = static_cast<std::uint8_t>(NetOp::Admit);
  req.hdr.request_id = request_id;
  req.task = t;
  return req;
}

NetRequest stats_request() {
  NetRequest req;
  req.hdr.op = static_cast<std::uint8_t>(NetOp::Stats);
  return req;
}

class RetryTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::disarm_all(); }
  void TearDown() override { fault::disarm_all(); }
};

// --------------------------------------------------------- deadlines

TEST_F(RetryTest, ReceiveDeadlineThrowsNetTimeout) {
  Server server({});
  // Nonzero connect timeout exercises the bounded-handshake path.
  Client client = Client::connect("127.0.0.1", server.port(), 500);
  ASSERT_EQ(status_of(round_trip(server, client, hello_request("t"))),
            NetStatus::Ok);

  client.set_timeouts(0, 50);
  client.send(admit_request(tk(1, 8, 8)));
  // The server is never ticked, so no response can arrive in time.
  EXPECT_THROW((void)client.receive(), NetTimeout);

  // Expiry leaves the connection open: once the server does answer,
  // the response is still deliverable (callers that resend must
  // close() precisely because of this).
  pump(server);
  EXPECT_EQ(status_of(client.receive()), NetStatus::Ok);
}

TEST_F(RetryTest, ConnectToDeadPortFailsFast) {
  std::uint16_t dead_port = 0;
  {
    Server probe({});
    dead_port = probe.port();
  }  // destroyed: nothing listens there now
  EXPECT_THROW((void)Client::connect("127.0.0.1", dead_port, 500),
               std::system_error);
}

// ------------------------------------------------------- HELLO guards

TEST_F(RetryTest, HelloRejectsBadClientIds) {
  Server server({});
  Client c1 = Client::connect("127.0.0.1", server.port());
  EXPECT_EQ(status_of(round_trip(server, c1, hello_request("t", "bad/name"))),
            NetStatus::BadRequest);

  // HELLO bit 1 is retired and ignored, also beside a client id.
  Client c2 = Client::connect("127.0.0.1", server.port());
  EXPECT_EQ(status_of(round_trip(server, c2,
                                 hello_request("t", "c1", 1u << 1))),
            NetStatus::Ok);

  // A valid client id on its own is fine, and the HELLO response
  // carries a nonzero epoch.
  Client c3 = Client::connect("127.0.0.1", server.port());
  const NetResponse h = round_trip(server, c3, hello_request("t", "c1"));
  EXPECT_EQ(status_of(h), NetStatus::Ok);
  EXPECT_NE(h.epoch, 0u);
  EXPECT_EQ(h.highest_applied, 0u);
}

// ------------------------------------------------------- dedup window

TEST_F(RetryTest, ResendIsAnsweredFromTheWindowNotReapplied) {
  const std::string dir = temp_dir();
  obs::Obs obs;
  ServerOptions so;
  so.tenants.data_dir = dir;
  Server server(so, &obs);
  Client client = Client::connect("127.0.0.1", server.port());
  ASSERT_EQ(status_of(round_trip(server, client, hello_request("t", "c1"))),
            NetStatus::Ok);

  const Task t1 = tk(1, 8, 8);
  const NetResponse first =
      round_trip(server, client, admit_request(t1, /*request_id=*/1));
  ASSERT_EQ(status_of(first), NetStatus::Ok);

  // Same id again: a dedup hit, byte-equal to the original answer, and
  // the task is NOT admitted a second time.
  const NetResponse again =
      round_trip(server, client, admit_request(t1, /*request_id=*/1));
  EXPECT_EQ(status_of(again), NetStatus::Ok);
  EXPECT_EQ(again.id, first.id);
  EXPECT_EQ(obs.registry().counter_value("net_dedup_hits_total"), 1u);

  const NetResponse s = round_trip(server, client, stats_request());
  EXPECT_EQ(s.stats.residents, 1u);

  std::filesystem::remove_all(dir);
}

TEST_F(RetryTest, EvictedIdAnswersInternalError) {
  const std::string dir = temp_dir();
  ServerOptions so;
  so.tenants.data_dir = dir;
  so.tenants.dedup_window = 2;
  Server server(so);
  Client client = Client::connect("127.0.0.1", server.port());
  ASSERT_EQ(status_of(round_trip(server, client, hello_request("t", "c1"))),
            NetStatus::Ok);

  NetResponse last;
  for (std::uint64_t rid = 1; rid <= 4; ++rid) {
    const Time span = static_cast<Time>(8 * rid);
    last = round_trip(server, client,
                      admit_request(tk(1, span, span), rid));
    ASSERT_EQ(status_of(last), NetStatus::Ok);
  }

  // rid 1 fell off the 2-deep window: applied, but the answer is gone.
  // Anything but an error would risk a double apply.
  EXPECT_EQ(status_of(round_trip(server, client,
                                 admit_request(tk(1, 8, 8), 1))),
            NetStatus::InternalError);
  // rid 4 is still inside: answered from the cache.
  const NetResponse hit = round_trip(
      server, client, admit_request(tk(1, 32, 32), 4));
  EXPECT_EQ(status_of(hit), NetStatus::Ok);
  EXPECT_EQ(hit.id, last.id);

  std::filesystem::remove_all(dir);
}

// ------------------------------------- restart: journal-rebuilt dedup

TEST_F(RetryTest, ResendAcrossServerRestartDedupsFromJournal) {
  const std::string dir = temp_dir();
  ServerOptions so;
  so.tenants.data_dir = dir;

  const Task t1 = tk(1, 8, 8);
  const Task t2 = tk(1, 16, 16);
  const Task t3 = tk(1, 32, 32);

  std::uint64_t epoch1 = 0;
  {
    Server server1(so);
    Client client = Client::connect("127.0.0.1", server1.port());
    const NetResponse h =
        round_trip(server1, client, hello_request("t", "c1"));
    ASSERT_EQ(status_of(h), NetStatus::Ok);
    epoch1 = h.epoch;

    ASSERT_EQ(status_of(round_trip(server1, client, admit_request(t1, 1))),
              NetStatus::Ok);

    // The second admit commits (journal + dedup mark) but its response
    // is dropped — the kill-between-commit-and-reply shape.
    fault::point(fault::kDropResponseSite).arm(fault::Mode::Once);
    client.send(admit_request(t2, 2));
    pump(server1);
  }  // server1 gone; the reply was never delivered
  fault::disarm_all();

  // An in-process twin that saw each request exactly once.
  AdmissionController twin{so.tenants.admission};
  const AdmissionDecision d1 = twin.try_admit(t1);
  const AdmissionDecision d2 = twin.try_admit(t2);
  const AdmissionDecision d3 = twin.try_admit(t3);
  ASSERT_TRUE(d1.admitted && d2.admitted && d3.admitted);

  obs::Obs obs2;
  Server server2(so, &obs2);
  Client client = Client::connect("127.0.0.1", server2.port());
  const NetResponse h2 = round_trip(server2, client, hello_request("t", "c1"));
  ASSERT_EQ(status_of(h2), NetStatus::Ok);
  EXPECT_NE(h2.epoch, epoch1);        // the restart is observable
  EXPECT_EQ(h2.highest_applied, 2u);  // both admits were applied

  // Resending the lost request is answered from the window the journal
  // replay rebuilt — applied once, and the id matches the twin's.
  const NetResponse r2 = round_trip(server2, client, admit_request(t2, 2));
  EXPECT_EQ(status_of(r2), NetStatus::Ok);
  EXPECT_EQ(r2.id, d2.id);
  EXPECT_EQ(obs2.registry().counter_value("net_dedup_hits_total"), 1u);

  // New work continues above the applied window.
  const NetResponse r3 = round_trip(server2, client, admit_request(t3, 3));
  ASSERT_EQ(status_of(r3), NetStatus::Ok);
  EXPECT_EQ(r3.id, d3.id);

  const NetResponse s = round_trip(server2, client, stats_request());
  EXPECT_EQ(s.stats.residents, 3u);  // no double applies anywhere

  std::filesystem::remove_all(dir);
}

// ------------------------------------ RetryingClient chaos differential

TEST_F(RetryTest, RetryingClientCleanPathNeverRetries) {
  Server server({});
  std::thread loop([&] { server.run(); });

  RetryPolicy pol;
  pol.seed = 3;
  RetryingClient rc("127.0.0.1", server.port(), "t", "c1", pol);
  for (int i = 0; i < 8; ++i) {
    const Time span = static_cast<Time>(8 * (i + 1));
    const NetResponse r = rc.admit(tk(1, span, span));
    EXPECT_EQ(status_of(r), NetStatus::Ok);
  }
  EXPECT_EQ(rc.retries(), 0u);
  EXPECT_EQ(rc.reconnects(), 1u);
  EXPECT_NE(rc.epoch(), 0u);

  server.stop();
  loop.join();
}

TEST_F(RetryTest, DropResponseChaosMatchesInProcessTwin) {
  const std::string dir = temp_dir();
  obs::Obs obs;
  ServerOptions so;
  so.tenants.data_dir = dir;
  Server server(so, &obs);
  std::thread loop([&] { server.run(); });

  // Drop ~20% of all responses after commit. The retrying client must
  // converge every call to the applied answer regardless.
  fault::point(fault::kDropResponseSite)
      .arm(fault::Mode::Random, 1, /*probability=*/0.2, /*seed=*/5);

  RetryPolicy pol;
  pol.receive_timeout_ms = 100;
  pol.connect_timeout_ms = 1000;
  pol.backoff_base_ms = 1;
  pol.backoff_cap_ms = 10;
  pol.max_attempts = 50;
  pol.seed = 7;
  RetryingClient rc("127.0.0.1", server.port(), "t", "c1", pol,
                    persist::FsyncPolicy::EveryN, 8);

  AdmissionController twin{so.tenants.admission};
  std::vector<TaskId> admitted;
  for (int i = 0; i < 40; ++i) {
    // Climbing utilization: the tail of the workload gets rejected, so
    // the differential covers both verdicts.
    const Time span = static_cast<Time>(3 + (i % 10));
    const Task t = tk(1, span, span);
    const NetResponse r = rc.admit(t);
    const AdmissionDecision d = twin.try_admit(t);
    ASSERT_EQ(status_of(r) == NetStatus::Ok, d.admitted) << "op " << i;
    if (d.admitted) {
      EXPECT_EQ(r.id, d.id) << "op " << i;
      admitted.push_back(d.id);
    }
    // Interleave removals so the resident set churns.
    if (i % 3 == 2 && !admitted.empty()) {
      const TaskId victim = admitted.front();
      admitted.erase(admitted.begin());
      const NetResponse rr = rc.remove(victim);
      const bool removed = twin.remove(victim);
      ASSERT_EQ(status_of(rr), NetStatus::Ok);
      EXPECT_EQ(rr.removed, removed ? 1u : 0u) << "op " << i;
    }
  }

  fault::disarm_all();
  NetRequest sreq = stats_request();
  const NetResponse s = rc.call(std::move(sreq));
  ASSERT_EQ(status_of(s), NetStatus::Ok);
  EXPECT_EQ(s.stats.residents, twin.demand_header().residents);

  // The chaos actually happened, and retries dedup-hit instead of
  // double-applying.
  EXPECT_GT(rc.retries(), 0u);
  EXPECT_GT(obs.registry().counter_value("net_dedup_hits_total"), 0u);

  server.stop();
  loop.join();
  std::filesystem::remove_all(dir);
}

TEST_F(RetryTest, RetryingClientRidesOutAQuarantine) {
  const std::string dir = temp_dir();
  ServerOptions so;
  so.tenants.data_dir = dir;
  so.reprobe_interval_ms = 20;
  Server server(so);
  std::thread loop([&] { server.run(); });

  RetryPolicy pol;
  pol.receive_timeout_ms = 200;
  pol.backoff_base_ms = 5;
  pol.backoff_cap_ms = 50;
  pol.seed = 11;
  RetryingClient rc("127.0.0.1", server.port(), "t", "c1", pol,
                    persist::FsyncPolicy::EveryRecord, 1);

  ASSERT_EQ(status_of(rc.admit(tk(1, 8, 8))), NetStatus::Ok);

  // The next journal append fails its fsync: the tenant quarantines,
  // the client sees Unavailable, backs off past the re-probe, and the
  // resend lands after recovery.
  fault::point("journal.append.fsync").arm(fault::Mode::Once);
  const NetResponse r = rc.admit(tk(1, 16, 16));
  EXPECT_EQ(status_of(r), NetStatus::Ok);
  EXPECT_GT(rc.retries(), 0u);

  server.stop();
  loop.join();
  std::filesystem::remove_all(dir);
}

// ------------------------------------------- backoff floor + failover

// A server retry_after_ms hint is a hard floor on the backoff sleep,
// even when the policy's jitter cap sits below it (the cap used to
// undercut the hint, burning every attempt inside the server's stated
// not-before window). A standby answers mutating ops Unavailable with
// retry_after_ms = reprobe_interval_ms; with a 10ms cap and two
// attempts, honoring the 150ms hint is visible in wall-clock time.
TEST_F(RetryTest, RetryAfterHintFloorsBackoffAboveCap) {
  ServerOptions so;
  so.tenants.standby = true;
  so.reprobe_interval_ms = 150;
  Server server(so);
  std::thread loop([&] { server.run(); });

  RetryPolicy pol;
  pol.max_attempts = 2;
  pol.backoff_base_ms = 1;
  pol.backoff_cap_ms = 10;
  RetryingClient rc("127.0.0.1", server.port(), "t", "c1", pol);

  const auto t0 = std::chrono::steady_clock::now();
  const NetResponse r = rc.admit(tk(1, 8, 8));
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_EQ(status_of(r), NetStatus::Unavailable);
  EXPECT_EQ(r.retry_after_ms, 150u);
  EXPECT_GE(elapsed.count(), 150);

  server.stop();
  loop.join();
}

// A connect failure rotates to the next endpoint immediately: the
// first endpoint in the list refuses (nothing listens there), and the
// very first call lands on the second.
TEST_F(RetryTest, FailoverOnConnectFailure) {
  std::uint16_t dead_port = 0;
  {
    Server ephemeral({});  // bind, learn a free port, release it
    dead_port = ephemeral.port();
  }
  Server server({});
  std::thread loop([&] { server.run(); });

  RetryingClient rc({{"127.0.0.1", dead_port},
                     {"127.0.0.1", server.port()}},
                    "t", "c1");
  EXPECT_EQ(status_of(rc.admit(tk(1, 8, 8))), NetStatus::Ok);
  EXPECT_EQ(rc.failovers(), 1u);
  EXPECT_EQ(rc.endpoint().port, server.port());

  server.stop();
  loop.join();
}

// A persistent-Unavailable streak rotates too: the first endpoint is
// an unpromoted standby that answers every mutating op Unavailable;
// after failover_after_unavailable consecutive answers the client
// walks to the healthy primary instead of burning all its attempts.
TEST_F(RetryTest, FailoverOnUnavailableStreak) {
  ServerOptions so;
  so.tenants.standby = true;
  Server standby(so);
  std::thread standby_loop([&] { standby.run(); });
  Server primary({});
  std::thread primary_loop([&] { primary.run(); });

  RetryPolicy pol;
  pol.failover_after_unavailable = 2;
  pol.backoff_base_ms = 1;
  pol.backoff_cap_ms = 5;
  RetryingClient rc({{"127.0.0.1", standby.port()},
                     {"127.0.0.1", primary.port()}},
                    "t", "c1", pol);

  EXPECT_EQ(status_of(rc.admit(tk(1, 8, 8))), NetStatus::Ok);
  EXPECT_EQ(rc.failovers(), 1u);
  EXPECT_EQ(rc.endpoint().port, primary.port());
  // Settled on the new endpoint: no further rotation.
  EXPECT_EQ(status_of(rc.admit(tk(1, 16, 16))), NetStatus::Ok);
  EXPECT_EQ(rc.failovers(), 1u);

  standby.stop();
  primary.stop();
  standby_loop.join();
  primary_loop.join();
}

// An empty endpoint list is a construction error, not a first-call
// surprise.
TEST_F(RetryTest, EmptyEndpointListThrows) {
  EXPECT_THROW(RetryingClient(std::vector<Endpoint>{}, "t", "c1"),
               std::invalid_argument);
}

}  // namespace
}  // namespace edfkit::net
