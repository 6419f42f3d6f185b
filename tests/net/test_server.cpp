/// End-to-end tests for the admission network server: protocol guards,
/// backpressure, the frame fuzzer (torn/oversized/corrupt/interleaved
/// frames must never crash the loop, leak a connection, or mis-frame a
/// later valid request), the socket-vs-in-process differential —
/// including a server kill+recover mid-trace — and the first snapshot
/// every new durable tenant writes, which carries its options to disk.
///
/// Most tests drive the event loop deterministically from the test
/// thread via Server::poll_once (the client's blocking socket calls are
/// interleaved with explicit ticks); the restart differential runs
/// run() in a background thread like production does.
#include "net/server.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "admission/controller.hpp"
#include "admission/replay.hpp"
#include "admission/snapshot.hpp"
#include "helpers.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "query/certificate.hpp"
#include "util/random.hpp"

namespace edfkit::net {
namespace {

using edfkit::testing::tk;

std::string temp_dir() {
  static int counter = 0;
  const auto dir = std::filesystem::temp_directory_path() /
                   ("edfkit_net_test_" + std::to_string(::getpid()) + "_" +
                    std::to_string(counter++));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

/// Tick the loop enough times for a connect + request + response cycle
/// (accept on one tick, read/serve on the next; extra ticks are no-ops).
void pump(Server& server, int ticks = 4) {
  for (int i = 0; i < ticks; ++i) (void)server.poll_once(10);
}

NetRequest hello_request(const std::string& tenant, std::uint8_t flags = 0,
                         std::uint8_t durability = 0) {
  NetRequest req;
  req.hdr.op = static_cast<std::uint8_t>(NetOp::Hello);
  req.hdr.flags = flags;
  req.tenant = tenant;
  req.durability = durability;
  return req;
}

NetRequest admit_request(const Task& t, std::uint8_t flags = 0) {
  NetRequest req;
  req.hdr.op = static_cast<std::uint8_t>(NetOp::Admit);
  req.hdr.flags = flags;
  req.task = t;
  return req;
}

/// Synchronous round trip against a poll_once-driven server.
NetResponse round_trip(Server& server, Client& client, NetRequest req) {
  client.send(std::move(req));
  pump(server);
  return client.receive();
}

NetStatus status_of(const NetResponse& r) {
  return static_cast<NetStatus>(r.hdr.status);
}

/// Raw TCP connection for malformed-bytes tests.
int raw_connect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr),
            0);
  return fd;
}

void write_all(int fd, const std::vector<std::uint8_t>& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    ASSERT_GT(n, 0);
    off += static_cast<std::size_t>(n);
  }
}

/// True once the peer closed the connection (poll via nonblocking-ish
/// read with the loop being ticked between probes).
bool peer_closed(Server& server, int fd) {
  for (int i = 0; i < 50; ++i) {
    pump(server, 2);
    std::uint8_t b;
    const ssize_t n = ::recv(fd, &b, 1, MSG_DONTWAIT);
    if (n == 0) return true;
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) return true;
  }
  return false;
}

// -------------------------------------------------------- happy path

TEST(ServerEndToEnd, HelloAdmitRemoveStatsPing) {
  Server server({});
  Client client = Client::connect("127.0.0.1", server.port());

  NetResponse h = round_trip(server, client, hello_request("alpha"));
  EXPECT_EQ(status_of(h), NetStatus::Ok);
  EXPECT_EQ(h.lsn, 0u);  // in-memory tenant: no journal window

  const NetResponse a =
      round_trip(server, client, admit_request(tk(2, 8, 10)));
  ASSERT_EQ(status_of(a), NetStatus::Ok);
  EXPECT_NE(a.id, kInvalidTaskId);

  NetRequest grp;
  grp.hdr.op = static_cast<std::uint8_t>(NetOp::AdmitGroup);
  grp.group = {tk(1, 10, 20), tk(2, 20, 40)};
  const NetResponse g = round_trip(server, client, std::move(grp));
  ASSERT_EQ(status_of(g), NetStatus::Ok);
  EXPECT_EQ(g.ids.size(), 2u);

  NetRequest stats;
  stats.hdr.op = static_cast<std::uint8_t>(NetOp::Stats);
  NetResponse s = round_trip(server, client, std::move(stats));
  EXPECT_EQ(status_of(s), NetStatus::Ok);
  EXPECT_EQ(s.stats.residents, 3u);
  EXPECT_FALSE(s.stats_json.empty());

  NetRequest rm;
  rm.hdr.op = static_cast<std::uint8_t>(NetOp::RemoveGroup);
  rm.ids = {a.id, g.ids[0], g.ids[1]};
  const NetResponse r = round_trip(server, client, std::move(rm));
  EXPECT_EQ(status_of(r), NetStatus::Ok);
  EXPECT_EQ(r.removed, 3u);

  NetRequest ping;
  ping.hdr.op = static_cast<std::uint8_t>(NetOp::Ping);
  EXPECT_EQ(status_of(round_trip(server, client, std::move(ping))),
            NetStatus::Ok);
}

TEST(ServerEndToEnd, CertificateRoundTripVerifiesClientSide) {
  Server server({});
  Client client = Client::connect("127.0.0.1", server.port());
  EXPECT_EQ(status_of(round_trip(
                server, client,
                hello_request("certified", kFlagCertifiedTenant))),
            NetStatus::Ok);

  // Mirror the server's resident set client-side and verify the
  // returned proof against *our* copy, not the server's word.
  TaskSet mine;
  const Task t1 = tk(2, 8, 10);
  const NetResponse a = round_trip(
      server, client, admit_request(t1, kFlagWantCertificate));
  ASSERT_EQ(status_of(a), NetStatus::Ok);
  ASSERT_NE(a.hdr.flags & kFlagHasCertificate, 0);
  mine.add(t1);
  EXPECT_TRUE(verify(mine, a.certificate).valid);

  // An infeasible arrival: the infeasibility certificate must verify
  // against the widened set (residents + the rejected task).
  const Task hog = tk(9, 5, 100);
  const NetResponse rej = round_trip(
      server, client, admit_request(hog, kFlagWantCertificate));
  ASSERT_EQ(status_of(rej), NetStatus::Rejected);
  ASSERT_NE(rej.hdr.flags & kFlagHasCertificate, 0);
  TaskSet widened = mine;
  widened.add(hog);
  EXPECT_TRUE(verify(widened, rej.certificate).valid);
  EXPECT_FALSE(verify(mine, rej.certificate).valid);
}

TEST(ServerEndToEnd, GlobalModeTenantAdmitsBeyondOneProcessor) {
  Server server({});
  Client client = Client::connect("127.0.0.1", server.port());

  // HELLO with platform_m = 4: the tenant's controller runs the
  // global-EDF ladder over 4 processors.
  NetRequest hello = hello_request("gedf", kFlagCertifiedTenant);
  hello.platform_m = 4;
  const NetResponse h = round_trip(server, client, std::move(hello));
  ASSERT_EQ(status_of(h), NetStatus::Ok);
  EXPECT_EQ(h.platform_m, 4u);

  // Three tasks of utilization 0.6 each: total density 1.8 > 1, so a
  // uniprocessor tenant rejects the second arrival — but on m = 4,
  // GFB (1.8 <= 4 - 3 * 0.6) admits all three.
  TaskSet mine;
  for (int i = 0; i < 3; ++i) {
    const Task t = tk(6, 10, 10);
    const NetResponse a = round_trip(
        server, client, admit_request(t, kFlagWantCertificate));
    ASSERT_EQ(status_of(a), NetStatus::Ok) << "arrival " << i;
    ASSERT_NE(a.hdr.flags & kFlagHasCertificate, 0) << "arrival " << i;
    mine.add(t);
    // The certificate names the platform and must verify against the
    // client's own copy of the resident set.
    EXPECT_EQ(a.certificate.processors, 4u);
    EXPECT_TRUE(a.certificate.multiprocessor());
    EXPECT_TRUE(verify(mine, a.certificate).valid);
  }

  // STATS reports the admission platform.
  NetRequest stats;
  stats.hdr.op = static_cast<std::uint8_t>(NetOp::Stats);
  const NetResponse s = round_trip(server, client, std::move(stats));
  ASSERT_EQ(status_of(s), NetStatus::Ok);
  EXPECT_EQ(s.platform_m, 4u);
  EXPECT_EQ(s.stats.residents, 3u);

  // A later HELLO attaches: the tenant keeps its platform (like its
  // durability class) and the response says so.
  Client second = Client::connect("127.0.0.1", server.port());
  NetRequest attach = hello_request("gedf");
  attach.platform_m = 1;
  const NetResponse h2 = round_trip(server, second, std::move(attach));
  ASSERT_EQ(status_of(h2), NetStatus::Ok);
  EXPECT_EQ(h2.platform_m, 4u);

  // The same workload on a fresh uniprocessor tenant rejects once the
  // ladder sees utilization above 1.
  Client uni = Client::connect("127.0.0.1", server.port());
  ASSERT_EQ(status_of(round_trip(server, uni, hello_request("uni"))),
            NetStatus::Ok);
  ASSERT_EQ(status_of(round_trip(server, uni, admit_request(tk(6, 10, 10)))),
            NetStatus::Ok);
  EXPECT_EQ(status_of(round_trip(server, uni, admit_request(tk(6, 10, 10)))),
            NetStatus::Rejected);
}

TEST(ServerGuards, BadPlatformHelloIsRejected) {
  Server server({});
  Client client = Client::connect("127.0.0.1", server.port());
  NetRequest hello = hello_request("badm");
  hello.platform_m = 0;  // invalid: a platform has >= 1 processor
  EXPECT_EQ(status_of(round_trip(server, client, std::move(hello))),
            NetStatus::BadRequest);
}

// ------------------------------------------------------------- guards

TEST(ServerGuards, ProtocolErrorsGetTypedStatuses) {
  Server server({});
  Client client = Client::connect("127.0.0.1", server.port());

  // Tenant-scoped op before HELLO.
  EXPECT_EQ(status_of(round_trip(server, client,
                                 admit_request(tk(1, 5, 10)))),
            NetStatus::NeedHello);

  // Unsupported protocol version.
  NetRequest vreq = hello_request("v");
  vreq.hdr.version = 42;
  EXPECT_EQ(status_of(round_trip(server, client, std::move(vreq))),
            NetStatus::BadVersion);

  // Unknown op code.
  NetRequest unknown;
  unknown.hdr.op = 99;
  EXPECT_EQ(status_of(round_trip(server, client, std::move(unknown))),
            NetStatus::UnknownOp);

  // Tenant names become file names; reject anything unsafe.
  EXPECT_EQ(status_of(round_trip(server, client,
                                 hello_request("../escape"))),
            NetStatus::BadRequest);
  EXPECT_EQ(status_of(round_trip(server, client, hello_request(""))),
            NetStatus::BadRequest);

  // Invalid durability class.
  EXPECT_EQ(status_of(round_trip(server, client,
                                 hello_request("t", 0, /*durability=*/9))),
            NetStatus::BadRequest);

  // Invalid task parameters after a good HELLO.
  EXPECT_EQ(status_of(round_trip(server, client, hello_request("t"))),
            NetStatus::Ok);
  EXPECT_EQ(status_of(round_trip(server, client,
                                 admit_request(tk(-1, 5, 10)))),
            NetStatus::BadRequest);

  // The connection survived all of it.
  EXPECT_EQ(status_of(round_trip(server, client,
                                 admit_request(tk(1, 5, 10)))),
            NetStatus::Ok);
  EXPECT_EQ(server.connections(), 1u);
}

// ------------------------------------------------------ backpressure

TEST(ServerShed, ResidentCapShedsAdmitsButNeverRemovals) {
  ServerOptions opts;
  opts.shed.max_residents = 2;
  opts.shed.retry_after_ms = 77;
  Server server(opts);
  Client client = Client::connect("127.0.0.1", server.port());
  EXPECT_EQ(status_of(round_trip(server, client, hello_request("t"))),
            NetStatus::Ok);

  const NetResponse a1 =
      round_trip(server, client, admit_request(tk(1, 50, 100)));
  const NetResponse a2 =
      round_trip(server, client, admit_request(tk(1, 60, 100)));
  ASSERT_EQ(status_of(a1), NetStatus::Ok);
  ASSERT_EQ(status_of(a2), NetStatus::Ok);

  // At the cap: the admission test must not even run — Shed, not
  // Rejected, with the retry hint.
  const NetResponse shed =
      round_trip(server, client, admit_request(tk(1, 70, 100)));
  EXPECT_EQ(status_of(shed), NetStatus::Shed);
  EXPECT_EQ(shed.retry_after_ms, 77u);

  // Removals drain load; they are never shed.
  NetRequest rm;
  rm.hdr.op = static_cast<std::uint8_t>(NetOp::Remove);
  rm.id = a1.id;
  const NetResponse r = round_trip(server, client, std::move(rm));
  EXPECT_EQ(status_of(r), NetStatus::Ok);
  EXPECT_EQ(r.removed, 1u);

  // Below the cap again: admits flow.
  EXPECT_EQ(status_of(round_trip(server, client,
                                 admit_request(tk(1, 70, 100)))),
            NetStatus::Ok);
}

TEST(ServerShed, UtilizationHeadroomScalesWithPlatform) {
  // Headroom is a fraction of the tenant's capacity: 0.5 of 4
  // processors sheds from U = 2, not from U = 0.5.
  ServerOptions opts;
  opts.shed.utilization_headroom = 0.5;
  Server server(opts);
  Client client = Client::connect("127.0.0.1", server.port());
  NetRequest hello = hello_request("gedf");
  hello.platform_m = 4;
  ASSERT_EQ(status_of(round_trip(server, client, std::move(hello))),
            NetStatus::Ok);

  // Six arrivals of U = 0.25 (GFB: 1.5 + 3 * 0.25 <= 4) take the tenant
  // to U = 1.5, all served.
  const Task quarter = tk(1, 4, 4);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(status_of(round_trip(server, client, admit_request(quarter))),
              NetStatus::Ok)
        << "arrival " << i;
  }
  // A group to U = 2.0 is still served; past it, admits are shed.
  NetRequest grp;
  grp.hdr.op = static_cast<std::uint8_t>(NetOp::AdmitGroup);
  grp.group = {quarter, quarter};
  EXPECT_EQ(status_of(round_trip(server, client, std::move(grp))),
            NetStatus::Ok);
  EXPECT_EQ(status_of(round_trip(server, client, admit_request(quarter))),
            NetStatus::Shed);

  // A uniprocessor tenant on the same server is still shed at 0.5.
  Client uni = Client::connect("127.0.0.1", server.port());
  ASSERT_EQ(status_of(round_trip(server, uni, hello_request("uni"))),
            NetStatus::Ok);
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(status_of(round_trip(server, uni, admit_request(quarter))),
              NetStatus::Ok)
        << "arrival " << i;
  }
  EXPECT_EQ(status_of(round_trip(server, uni, admit_request(quarter))),
            NetStatus::Shed);
}

// ------------------------------------------------------------ fuzzer

TEST(ServerFuzz, OversizedAndCorruptFramesCloseOnlyTheirConnection) {
  Server server({});

  // A healthy connection that must keep working throughout.
  Client good = Client::connect("127.0.0.1", server.port());
  EXPECT_EQ(status_of(round_trip(server, good, hello_request("good"))),
            NetStatus::Ok);

  // Oversized length prefix.
  {
    const int fd = raw_connect(server.port());
    std::vector<std::uint8_t> junk(16, 0xFF);  // len prefix ~4 GiB
    write_all(fd, junk);
    EXPECT_TRUE(peer_closed(server, fd));
    ::close(fd);
  }

  // Valid frame with a corrupted payload byte (CRC mismatch).
  {
    const int fd = raw_connect(server.port());
    std::vector<std::uint8_t> wire;
    append_frame(wire, encode_request(hello_request("x")));
    wire[kFrameHeaderBytes + 2] ^= 0x40;
    write_all(fd, wire);
    EXPECT_TRUE(peer_closed(server, fd));
    ::close(fd);
  }

  // The good connection neither died nor mis-framed.
  EXPECT_EQ(status_of(round_trip(server, good,
                                 admit_request(tk(1, 5, 10)))),
            NetStatus::Ok);
  EXPECT_EQ(server.connections(), 1u);  // both bad conns fully reaped
}

TEST(ServerFuzz, ShortBodyGetsBadRequestAndTheConnectionLives) {
  Server server({});
  Client client = Client::connect("127.0.0.1", server.port());

  // CRC-valid frame whose body is shorter than ADMIT demands.
  NetRequest req = admit_request(tk(1, 5, 10));
  req.hdr.request_id = 424242;
  std::vector<std::uint8_t> payload = encode_request(req);
  payload.resize(kMessageHeaderBytes);
  std::vector<std::uint8_t> wire;
  append_frame(wire, payload);
  write_all(client.fd(), wire);
  pump(server);
  const NetResponse resp = client.receive();
  EXPECT_EQ(status_of(resp), NetStatus::BadRequest);
  EXPECT_EQ(resp.hdr.request_id, 424242u);  // echoed from the header

  // The frame boundary was still trusted: the next valid request works.
  EXPECT_EQ(status_of(round_trip(server, client, hello_request("t"))),
            NetStatus::Ok);
}

TEST(ServerFuzz, InterleavedPartialFramesReassemblePerConnection) {
  Server server({});

  // Three connections, each sending its HELLO in byte-dribbles,
  // interleaved — per-connection reassembly must never cross streams.
  constexpr int kConns = 3;
  std::vector<Client> clients;
  std::vector<std::vector<std::uint8_t>> wires;
  for (int i = 0; i < kConns; ++i) {
    clients.push_back(Client::connect("127.0.0.1", server.port()));
    std::vector<std::uint8_t> wire;
    NetRequest req = hello_request("tenant-" + std::to_string(i));
    req.hdr.request_id = 1;  // Client::send is bypassed; stamp our own
    append_frame(wire, encode_request(req));
    wires.push_back(std::move(wire));
  }
  pump(server);  // accept all three

  // Round-robin one byte at a time.
  std::size_t longest = 0;
  for (const auto& w : wires) longest = std::max(longest, w.size());
  for (std::size_t off = 0; off < longest; ++off) {
    for (int i = 0; i < kConns; ++i) {
      if (off < wires[i].size()) {
        write_all(clients[i].fd(), {wires[i][off]});
      }
    }
    if (off % 5 == 0) pump(server, 1);  // tick mid-dribble
  }
  pump(server);

  for (int i = 0; i < kConns; ++i) {
    const NetResponse h = clients[i].receive();
    EXPECT_EQ(status_of(h), NetStatus::Ok) << "conn " << i;
  }
  // And each connection is bound to the right tenant: admit on conn 0,
  // stats on the others show 1/0/0 residents.
  EXPECT_EQ(status_of(round_trip(server, clients[0],
                                 admit_request(tk(1, 5, 10)))),
            NetStatus::Ok);
  for (int i = 0; i < kConns; ++i) {
    NetRequest stats;
    stats.hdr.op = static_cast<std::uint8_t>(NetOp::Stats);
    const NetResponse s = round_trip(server, clients[i], std::move(stats));
    EXPECT_EQ(s.stats.residents, i == 0 ? 1u : 0u) << "conn " << i;
  }
  EXPECT_EQ(server.connections(), static_cast<std::size_t>(kConns));
}

TEST(ServerFuzz, RandomGarbageStormNeverCrashesOrLeaks) {
  Server server({});
  Client good = Client::connect("127.0.0.1", server.port());
  EXPECT_EQ(status_of(round_trip(server, good, hello_request("good"))),
            NetStatus::Ok);

  Rng rng(77);
  const std::uint64_t rounds = 20 * testing::fuzz_multiplier();
  for (std::uint64_t round = 0; round < rounds; ++round) {
    const int fd = raw_connect(server.port());
    std::vector<std::uint8_t> bytes;
    const int len = rng.uniform_int(1, 200);
    bytes.reserve(static_cast<std::size_t>(len));
    for (int i = 0; i < len; ++i) {
      bytes.push_back(static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
    }
    write_all(fd, bytes);
    pump(server, 2);
    ::close(fd);  // client gives up whether or not the server did
    pump(server, 2);
  }
  pump(server, 4);

  // Only the good connection remains, and it still serves.
  EXPECT_EQ(server.connections(), 1u);
  EXPECT_EQ(status_of(round_trip(server, good,
                                 admit_request(tk(1, 5, 10)))),
            NetStatus::Ok);
}

TEST(ServerFuzz, IdleConnectionsAreSwept) {
  ServerOptions opts;
  opts.idle_timeout_ms = 40;
  Server server(opts);
  const int fd = raw_connect(server.port());
  pump(server);
  EXPECT_EQ(server.connections(), 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  pump(server, 2);
  EXPECT_EQ(server.connections(), 0u);
  ::close(fd);
}

// ------------------------------------------------- retired HELLO bit 1

TEST(ServerHello, RetiredBit1StillServesEveryAdmitAlone) {
  // HELLO bit 1 once fused a tick's ADMITs into one admit_group. The
  // server now ignores it: pipelined ADMITs that decode in one tick are
  // each one try_admit, answered exactly as an in-process twin answers.
  Server server({});
  Client client = Client::connect("127.0.0.1", server.port());
  EXPECT_EQ(status_of(round_trip(server, client,
                                 hello_request("bit1", 1u << 1))),
            NetStatus::Ok);

  AdmissionController twin;
  const auto pipeline = [&](const std::vector<Task>& tasks) {
    for (const Task& t : tasks) client.send(admit_request(t));
    pump(server);
    for (const Task& t : tasks) {
      const NetResponse resp = client.receive();
      const AdmissionDecision d = twin.try_admit(t);
      EXPECT_EQ(status_of(resp),
                d.admitted ? NetStatus::Ok : NetStatus::Rejected);
      EXPECT_EQ(resp.id, d.id);
      EXPECT_EQ(resp.rung, static_cast<std::uint8_t>(d.rung));
    }
  };
  // Four that fit, then a pair that overloads together (U = 0.6 + 0.9)
  // although the first of them fits on its own.
  pipeline({tk(1, 10, 20), tk(2, 30, 60), tk(1, 40, 80), tk(3, 50, 100)});
  pipeline({tk(6, 10, 10), tk(9, 10, 10)});

  Tenant* tenant = server.tenants().find("bit1");
  ASSERT_NE(tenant, nullptr);
  EXPECT_EQ(tenant->controller().stats().groups, 0u);
  EXPECT_EQ(tenant->controller().size(), 5u);  // only the hog rejected
}

// ------------------------------------------------------- differential

/// The tentpole acceptance test: a churn trace served over the socket
/// must produce bit-identical decisions — admitted flags, TaskIds,
/// settling rungs, removal counts — and an identical final store
/// header (epoch excluded) to the same trace replayed through an
/// in-process controller, *including across a server kill+recover
/// mid-trace* (per-tenant snapshot + journal, ids stable).
TEST(ServerDifferential, SocketMatchesInProcessAcrossRestart) {
  const std::string dir = temp_dir();
  ServerOptions opts;
  opts.tenants.data_dir = dir;
  opts.tenants.checkpoint_every = 64;  // exercise rotate() mid-trace

  ChurnConfig churn;
  churn.events = 600;
  churn.group_probability = 0.2;
  churn.pool_utilization = 0.9;
  Rng rng(20050308);
  const std::vector<TraceEvent> trace = generate_churn_trace(rng, churn);

  AdmissionController twin;  // same defaults as TenantOptions.admission
  std::unordered_map<std::uint64_t, std::vector<TaskId>> live;

  auto server = std::make_unique<Server>(opts);
  const std::uint16_t port = server->port();
  std::thread loop([&server] { server->run(); });
  auto client =
      std::make_unique<Client>(Client::connect("127.0.0.1", port));
  ASSERT_EQ(status_of(client->hello("diff")), NetStatus::Ok);

  std::uint64_t served = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    // Kill the server a third of the way in; recover on a fresh one.
    if (i == trace.size() / 3) {
      client->close();
      server->stop();
      loop.join();
      server.reset();

      server = std::make_unique<Server>(opts);
      loop = std::thread([&server] { server->run(); });
      client = std::make_unique<Client>(
          Client::connect("127.0.0.1", server->port()));
      const NetResponse h = client->hello("diff");
      ASSERT_EQ(status_of(h), NetStatus::Ok);
      EXPECT_GT(h.lsn, 0u);  // the journal window survived the restart
    }

    const TraceEvent& ev = trace[i];
    switch (ev.op) {
      case TraceOp::Arrive: {
        const NetResponse resp =
            client->call(admit_request(ev.task));
        const AdmissionDecision d = twin.try_admit(ev.task);
        ASSERT_EQ(status_of(resp) == NetStatus::Ok, d.admitted)
            << "event " << i;
        ASSERT_EQ(resp.rung, static_cast<std::uint8_t>(d.rung))
            << "event " << i;
        if (d.admitted) {
          ASSERT_EQ(resp.id, d.id) << "event " << i;
          live.emplace(ev.key, std::vector<TaskId>{d.id});
        }
        ++served;
        break;
      }
      case TraceOp::ArriveGroup: {
        NetRequest req;
        req.hdr.op = static_cast<std::uint8_t>(NetOp::AdmitGroup);
        req.group = ev.group;
        const NetResponse resp = client->call(std::move(req));
        const GroupDecision d = twin.admit_group(ev.group);
        ASSERT_EQ(status_of(resp) == NetStatus::Ok, d.admitted)
            << "event " << i;
        if (d.admitted) {
          ASSERT_EQ(resp.ids, d.ids) << "event " << i;
          live.emplace(ev.key, d.ids);
        }
        ++served;
        break;
      }
      case TraceOp::Depart: {
        const auto it = live.find(ev.key);
        if (it == live.end()) break;
        NetRequest req;
        req.hdr.op = static_cast<std::uint8_t>(NetOp::RemoveGroup);
        req.ids = it->second;
        const NetResponse resp = client->call(std::move(req));
        const std::size_t removed = twin.remove_group(it->second);
        ASSERT_EQ(resp.removed, removed) << "event " << i;
        live.erase(it);
        ++served;
        break;
      }
      case TraceOp::Crash:
        break;
    }
  }
  ASSERT_GT(served, 0u);

  // Final store header and running stats, epoch excluded (recovery and
  // checkpoint cycles restart epochs without changing state).
  NetRequest sreq;
  sreq.hdr.op = static_cast<std::uint8_t>(NetOp::Stats);
  const NetResponse s = client->call(std::move(sreq));
  const StoreHeader a = s.stats;
  const StoreHeader b = twin.demand_header();
  EXPECT_EQ(a.residents, b.residents);
  EXPECT_EQ(a.constrained, b.constrained);
  EXPECT_EQ(a.live_checkpoints, b.live_checkpoints);
  EXPECT_EQ(a.dead_checkpoints, b.dead_checkpoints);
  EXPECT_EQ(a.segments, b.segments);
  EXPECT_DOUBLE_EQ(a.utilization, b.utilization);
  EXPECT_DOUBLE_EQ(a.cert_ratio, b.cert_ratio);
  EXPECT_EQ(s.stats_json, twin.stats().to_json());

  client->close();
  server->stop();
  loop.join();
  server.reset();
  std::filesystem::remove_all(dir);
}

/// The journal records operations, not the options they ran under. A
/// new durable tenant snapshots before its first record, so recovery
/// and edfkit_fsck read its platform from disk even when no periodic
/// checkpoint ever ran.
TEST(ServerDurability, NewTenantSnapshotsItsOptionsBeforeItsFirstRecord) {
  const std::string dir = temp_dir();
  ServerOptions opts;
  opts.tenants.data_dir = dir;  // checkpoint_every = 0: none periodic
  Server server(opts);
  Client client = Client::connect("127.0.0.1", server.port());
  NetRequest hello = hello_request("g4");
  hello.platform_m = 4;
  ASSERT_EQ(status_of(round_trip(server, client, std::move(hello))),
            NetStatus::Ok);
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(status_of(round_trip(server, client,
                                   admit_request(tk(3, 10, 10)))),
              NetStatus::Ok)
        << "arrival " << i;
  }
  // U = 1.5: one processor could not hold them.
  const AdmissionController& live = server.tenants().find("g4")->controller();
  ASSERT_EQ(live.size(), 5u);

  const std::string snap = dir + "/g4.snap";
  ASSERT_TRUE(std::filesystem::exists(snap));
  AdmissionController loaded;
  EXPECT_EQ(load_snapshot(loaded, snap).journal_lsn, 0u);
  EXPECT_EQ(loaded.options().platform.m, 4u);
  EXPECT_TRUE(loaded.empty());

  AdmissionController recovered(loaded.options());
  const RecoveryResult rec = recover(recovered, snap, dir + "/g4.wal");
  EXPECT_EQ(rec.replayed, 5u);
  EXPECT_EQ(store_digest(recovered), store_digest(live));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace edfkit::net
