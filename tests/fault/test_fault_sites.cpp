/// \file test_fault_sites.cpp
/// Parameterized recover-or-clean-tear sweep over every persist-layer
/// failpoint (fault::kPersistSites): arm each site fail-once — with a
/// clean error and, on write sites, with a genuine short write — drive
/// a full durable-tenant lifecycle into it, and assert the on-disk
/// artifacts recover completely once the fault clears. Then the
/// server-level failure domain: a PersistError quarantines exactly one
/// tenant (Unavailable + retry hint, STATS still served), the
/// background re-probe clears a retryable quarantine, and a fatal
/// (poisoned-journal) quarantine stays dark.
#include "fault/fault.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "admission/controller.hpp"
#include "helpers.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "net/tenant.hpp"
#include "obs/obs.hpp"
#include "persist/format.hpp"
#include "persist/tailer.hpp"

namespace edfkit::net {
namespace {

using edfkit::testing::tk;

std::string temp_dir() {
  static int counter = 0;
  const auto dir = std::filesystem::temp_directory_path() /
                   ("edfkit_fault_test_" + std::to_string(::getpid()) + "_" +
                    std::to_string(counter++));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

TenantOptions durable_opts(const std::string& dir) {
  TenantOptions opts;
  opts.data_dir = dir;
  opts.checkpoint_every = 4;  // 10-op lifecycle checkpoints twice
  return opts;
}

/// What one lifecycle attempt observed.
struct Outcome {
  std::size_t applied = 0;   ///< ops that completed in memory
  std::size_t admitted = 0;  ///< of those, admits that said yes
  bool faulted = false;
  std::string what;
};

/// One full durable-tenant lifecycle against `dir`: open (create or
/// recover), ten journaled admits with periodic checkpoints, a final
/// flush, then a tail-back of the journal (the replication shipper's
/// read path — its journal.tail.* sites are part of the sweep). A
/// PersistError anywhere stops the run (the server-level analogue is
/// quarantine); the outcome records how far it got.
Outcome run_lifecycle(const std::string& dir) {
  Outcome out;
  const TenantOptions opts = durable_opts(dir);
  try {
    Tenant t("t", opts, persist::FsyncPolicy::EveryRecord, 1,
             /*certified=*/false, /*obs=*/nullptr);
    for (int i = 0; i < 10; ++i) {
      const Time span = static_cast<Time>(8 * (i + 1));
      const AdmissionDecision d = t.controller().try_admit(tk(1, span, span));
      ++out.applied;
      if (d.admitted) ++out.admitted;
      t.on_operation();
    }
    t.flush();
    persist::JournalTailer tail(dir + "/t.wal", t.journal_base_lsn());
    persist::TailedRecord rec;
    while (tail.poll(rec) == persist::TailStatus::Record) {
    }
  } catch (const persist::PersistError& e) {
    out.faulted = true;
    out.what = e.what();
  }
  return out;
}

/// Append a few garbage bytes to the journal — the crash-mid-append
/// shape: shorter than a record frame header, so the scan reports a
/// torn tail (never corruption) and open_append truncates it.
void tear_journal_tail(const std::string& dir) {
  std::ofstream f(dir + "/t.wal",
                  std::ios::binary | std::ios::app);
  ASSERT_TRUE(f.good());
  const char junk[] = {0x7f, 0x11, 0x22, 0x33, 0x44, 0x55};
  f.write(junk, sizeof junk);
}

/// Arm `site` fail-once and drive the lifecycle into it; after the
/// fault clears, the artifacts must recover and serve a full clean
/// lifecycle. `err` is the injected errno; `short_len` tears writes
/// mid-frame on sites that honor it.
void check_site_recovers(const std::string& site, int err,
                         std::size_t short_len) {
  fault::disarm_all();
  const std::string dir = temp_dir();

  // The open-path sites only run against existing artifacts; seed them
  // with one clean lifecycle. journal.open.truncate additionally needs
  // a torn tail to truncate.
  const bool reopen_site = site.rfind("journal.open.", 0) == 0;
  if (reopen_site) {
    const Outcome seed = run_lifecycle(dir);
    ASSERT_FALSE(seed.faulted) << seed.what;
    tear_journal_tail(dir);
  }
  // truncate_back only runs while rolling back a failed append — arm
  // the write to fail mid-frame so the rollback path executes.
  if (site == "journal.append.truncate_back") {
    fault::point("journal.append.write")
        .arm(fault::Mode::Once, 1, 0.0, 1, err, /*short_len=*/3);
  }
  fault::FailPoint& fp = fault::point(site);
  fp.reset_counters();
  fp.arm(fault::Mode::Once, 1, 0.0, 1, err, short_len);

  const Outcome faulted = run_lifecycle(dir);
  EXPECT_GE(fp.fires(), 1u) << site << ": the lifecycle never reached it";
  // Fail-once means at most the faulted op is lost; everything the run
  // applied before the fault stayed applied.
  EXPECT_LE(faulted.applied, 10u);

  // The invariant under test: once the fault clears, the artifacts are
  // recoverable — reopening never throws and a full lifecycle serves.
  fault::disarm_all();
  const Outcome recovered = run_lifecycle(dir);
  EXPECT_FALSE(recovered.faulted)
      << site << " left unrecoverable artifacts: " << recovered.what;
  EXPECT_EQ(recovered.applied, 10u) << site;

  std::filesystem::remove_all(dir);
}

class PersistSiteTest : public ::testing::TestWithParam<const char*> {
 protected:
  void TearDown() override { fault::disarm_all(); }
};

TEST_P(PersistSiteTest, FailOnceEnospcRecovers) {
  check_site_recovers(GetParam(), ENOSPC,
                      /*short_len=*/static_cast<std::size_t>(-1));
}

TEST_P(PersistSiteTest, FailOnceEioShortWriteRecovers) {
  // short=3 tears write sites mid-frame (a genuine torn tail on disk);
  // non-write sites ignore it.
  check_site_recovers(GetParam(), EIO, /*short_len=*/3);
}

INSTANTIATE_TEST_SUITE_P(AllPersistSites, PersistSiteTest,
                         ::testing::ValuesIn(fault::kPersistSites),
                         [](const ::testing::TestParamInfo<const char*>& i) {
                           std::string n = i.param;
                           for (char& c : n) {
                             if (c == '.') c = '_';
                           }
                           return n;
                         });

// ---------------------------------------------- server failure domain

NetStatus status_of(const NetResponse& r) {
  return static_cast<NetStatus>(r.hdr.status);
}

void pump(Server& server, int ticks = 4) {
  for (int i = 0; i < ticks; ++i) (void)server.poll_once(10);
}

NetResponse round_trip(Server& server, Client& client, NetRequest req) {
  client.send(std::move(req));
  pump(server);
  return client.receive();
}

NetRequest hello_durable(const std::string& tenant) {
  NetRequest req;
  req.hdr.op = static_cast<std::uint8_t>(NetOp::Hello);
  req.tenant = tenant;
  req.durability =
      static_cast<std::uint8_t>(persist::FsyncPolicy::EveryRecord);
  req.fsync_interval = 1;
  return req;
}

NetRequest admit_request(const Task& t) {
  NetRequest req;
  req.hdr.op = static_cast<std::uint8_t>(NetOp::Admit);
  req.task = t;
  return req;
}

class QuarantineTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::disarm_all(); }
  void TearDown() override { fault::disarm_all(); }
};

TEST_F(QuarantineTest, RetryableFaultRoundTrip) {
  const std::string dir = temp_dir();
  obs::Obs obs;
  ServerOptions so;
  so.tenants.data_dir = dir;
  so.reprobe_interval_ms = 30;
  Server server(so, &obs);
  Client client = Client::connect("127.0.0.1", server.port());

  ASSERT_EQ(status_of(round_trip(server, client, hello_durable("t"))),
            NetStatus::Ok);
  ASSERT_EQ(status_of(round_trip(server, client, admit_request(tk(1, 8, 8)))),
            NetStatus::Ok);

  // An injected fsync failure on the next journaled admit: retryable
  // (the record is in the page cache; recovery replays it if it
  // reached disk), so the tenant quarantines and re-probes back.
  fault::point("journal.append.fsync").arm(fault::Mode::Once);
  const NetResponse u =
      round_trip(server, client, admit_request(tk(1, 16, 16)));
  EXPECT_EQ(status_of(u), NetStatus::Unavailable);
  EXPECT_EQ(u.retry_after_ms, 30u);

  Tenant* t = server.tenants().find("t");
  ASSERT_NE(t, nullptr);
  auto& reg = obs.registry();
  EXPECT_EQ(reg.counter_value("net_tenant_quarantines_total"), 1u);
  EXPECT_EQ(reg.counter_value("net_unavailable_total"), 1u);

  // Read-only ops keep serving regardless of quarantine state.
  NetRequest stats;
  stats.hdr.op = static_cast<std::uint8_t>(NetOp::Stats);
  EXPECT_EQ(status_of(round_trip(server, client, std::move(stats))),
            NetStatus::Ok);

  // The re-probe timer is free-running, so the recovery may already
  // have happened inside a pump above; just drive ticks until it does.
  for (int i = 0; i < 100 && t->quarantined(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    pump(server, 1);
  }
  EXPECT_FALSE(t->quarantined());
  EXPECT_EQ(reg.counter_value("net_tenant_unquarantines_total"), 1u);

  // The faulted admit was journaled before its fsync failed, so the
  // full recovery replay applied it: two residents, and the next admit
  // makes three.
  const NetResponse a3 =
      round_trip(server, client, admit_request(tk(1, 32, 32)));
  ASSERT_EQ(status_of(a3), NetStatus::Ok);
  NetRequest stats2;
  stats2.hdr.op = static_cast<std::uint8_t>(NetOp::Stats);
  const NetResponse s = round_trip(server, client, std::move(stats2));
  EXPECT_EQ(s.stats.residents, 3u);

  std::filesystem::remove_all(dir);
}

TEST_F(QuarantineTest, FailedFirstCheckpointQuarantinesAtHello) {
  const std::string dir = temp_dir();
  obs::Obs obs;
  ServerOptions so;
  so.tenants.data_dir = dir;
  so.reprobe_interval_ms = 30;
  Server server(so, &obs);
  Client client = Client::connect("127.0.0.1", server.port());

  // A new durable tenant snapshots before its first record. When that
  // snapshot fails, HELLO still succeeds and the tenant opens
  // quarantined, exactly as after a failed periodic checkpoint. Every
  // rename fails while armed, so a re-probe that fires inside HELLO's
  // round trip cannot recover the tenant before the checks below.
  fault::FailPoint& fp = fault::point("snapshot.rename");
  fp.arm(fault::Mode::EveryN, 1, 0.0, 1, EACCES);
  ASSERT_EQ(status_of(round_trip(server, client, hello_durable("t"))),
            NetStatus::Ok);
  Tenant* t = server.tenants().find("t");
  ASSERT_NE(t, nullptr);
  EXPECT_TRUE(t->quarantined());
  EXPECT_TRUE(t->quarantine_retryable());
  auto& reg = obs.registry();
  EXPECT_EQ(reg.counter_value("net_tenant_quarantines_total"), 1u);
  EXPECT_FALSE(std::filesystem::exists(dir + "/t.snap"));

  // Once the fault clears, the re-probe retries the checkpoint; then
  // the tenant serves.
  fp.disarm();
  for (int i = 0; i < 100 && t->quarantined(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    pump(server, 1);
  }
  EXPECT_FALSE(t->quarantined());
  EXPECT_EQ(reg.counter_value("net_tenant_unquarantines_total"), 1u);
  EXPECT_TRUE(std::filesystem::exists(dir + "/t.snap"));
  EXPECT_EQ(status_of(round_trip(server, client, admit_request(tk(1, 8, 8)))),
            NetStatus::Ok);

  std::filesystem::remove_all(dir);
}

TEST_F(QuarantineTest, FaultIsIsolatedToOneTenant) {
  const std::string dir = temp_dir();
  obs::Obs obs;
  ServerOptions so;
  so.tenants.data_dir = dir;
  so.reprobe_interval_ms = 0;  // no auto-recovery: pin the quarantine
  Server server(so, &obs);
  Client ca = Client::connect("127.0.0.1", server.port());
  Client cb = Client::connect("127.0.0.1", server.port());

  ASSERT_EQ(status_of(round_trip(server, ca, hello_durable("a"))),
            NetStatus::Ok);
  ASSERT_EQ(status_of(round_trip(server, cb, hello_durable("b"))),
            NetStatus::Ok);

  // Fail-once fires on tenant a's next append; b's traffic never sees
  // the armed point.
  fault::point("journal.append.fsync").arm(fault::Mode::Once);
  EXPECT_EQ(status_of(round_trip(server, ca, admit_request(tk(1, 8, 8)))),
            NetStatus::Unavailable);
  EXPECT_EQ(status_of(round_trip(server, cb, admit_request(tk(1, 8, 8)))),
            NetStatus::Ok);

  EXPECT_TRUE(server.tenants().find("a")->quarantined());
  EXPECT_TRUE(server.tenants().find("a")->quarantine_retryable());
  EXPECT_FALSE(server.tenants().find("b")->quarantined());

  // a stays Unavailable (no re-probe), b keeps serving.
  EXPECT_EQ(status_of(round_trip(server, ca, admit_request(tk(1, 16, 16)))),
            NetStatus::Unavailable);
  EXPECT_EQ(status_of(round_trip(server, cb, admit_request(tk(1, 16, 16)))),
            NetStatus::Ok);

  std::filesystem::remove_all(dir);
}

TEST_F(QuarantineTest, PoisonedJournalQuarantineIsNotRetried) {
  const std::string dir = temp_dir();
  obs::Obs obs;
  ServerOptions so;
  so.tenants.data_dir = dir;
  so.reprobe_interval_ms = 10;
  Server server(so, &obs);
  Client client = Client::connect("127.0.0.1", server.port());

  ASSERT_EQ(status_of(round_trip(server, client, hello_durable("t"))),
            NetStatus::Ok);

  // A torn append whose rollback also fails poisons the journal handle
  // — classified fatal, so the re-probe loop must leave it alone.
  fault::point("journal.append.write")
      .arm(fault::Mode::Once, 1, 0.0, 1, EIO, /*short_len=*/3);
  fault::point("journal.append.truncate_back").arm(fault::Mode::Once);
  EXPECT_EQ(status_of(round_trip(server, client, admit_request(tk(1, 8, 8)))),
            NetStatus::Unavailable);

  Tenant* t = server.tenants().find("t");
  ASSERT_NE(t, nullptr);
  EXPECT_TRUE(t->quarantined());
  EXPECT_FALSE(t->quarantine_retryable());
  EXPECT_FALSE(t->quarantine_reason().empty());

  std::this_thread::sleep_for(std::chrono::milliseconds(25));
  pump(server);
  EXPECT_TRUE(t->quarantined());  // still dark: fatal quarantines hold
  auto& reg = obs.registry();
  EXPECT_EQ(reg.counter_value("net_tenant_unquarantines_total"), 0u);
  EXPECT_EQ(reg.counter_value("net_tenant_reprobe_failures_total"), 0u);

  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace edfkit::net
