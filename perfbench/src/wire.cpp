#include "wire.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <system_error>

#include "runs.hpp"
#include "spans.hpp"

namespace perfbench {

namespace net = edfkit::net;

namespace {

StreamShape fixed_pools(int tasks, double utilization, std::size_t live) {
  StreamShape s;
  s.pool_tasks = tasks;
  s.pool_utilization = utilization;
  s.live_target = live;
  return s;
}

std::vector<WireSpec> make_specs() {
  std::vector<WireSpec> v;

  // Decisions cost ~5 us in-process against ~8-14 us of server CPU per
  // op over the wire: the serving path (codec, epoll, ticks) dominates.
  WireSpec light;
  light.name = "wire-light";
  light.connections = 2;
  light.stream = fixed_pools(100, 0.7, 120);
  light.warmup_ops = 2000;
  v.push_back(light);

  // Admission and demand scans dominate; persist does all its work here.
  // A tenant's scan cost depends on the tasks it holds and on what its
  // store learned from them, and stays high or low for a whole run: with
  // two tenants of ~1000 live tasks, seeds differed by ±13% in CPU per
  // op. Four tenants of ~400 average more independent streams per run.
  WireSpec dense;
  dense.name = "wire-dense-durable";
  dense.connections = 4;
  dense.window = 2;
  dense.durable = true;
  dense.stream = fixed_pools(400, 0.99, 400);
  dense.stream.group_probability = 0.15;
  dense.stream.group_size = 8;
  dense.warmup_ops = 2000;
  v.push_back(dense);

  // The global ladder (analysis/multi) through global admission. At
  // ~600 live tasks (U ~5.9 of 8) GFB settles ~95% of arrivals in
  // ~0.2 ms and the exact rung rejects the rest in ~8 ms each: ~4% of
  // ops, ~75% of the CPU. One request in flight keeps a reject from
  // inflating the latency of requests queued behind it, so p90 stays
  // among the GFB decisions; at higher load the reject share nears 10%
  // and p90 swings between the two costs from seed to seed.
  WireSpec global;
  global.name = "wire-global-m8";
  global.connections = 1;
  global.window = 1;
  global.skip_exact = false;
  global.platform_m = 8;
  global.stream = fixed_pools(100, 0.99, 600);
  global.warmup_ops = 700;
  v.push_back(global);
  return v;
}

const std::vector<WireSpec>& specs() {
  static const std::vector<WireSpec> all = make_specs();
  return all;
}

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

void write_all(int fd, const std::vector<std::uint8_t>& buf) {
  std::size_t off = 0;
  while (off < buf.size()) {
    const ssize_t n =
        ::send(fd, buf.data() + off, buf.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("send");
    }
    off += static_cast<std::size_t>(n);
  }
}

/// Server arguments for a spec (data_dir used only when durable).
std::vector<std::string> server_args(const WireSpec& spec,
                                     const std::string& data_dir) {
  std::vector<std::string> a = {"--port=0", "--bind=127.0.0.1"};
  std::ostringstream eps;
  eps << "--epsilon=" << spec.epsilon;
  a.push_back(eps.str());
  if (spec.skip_exact) a.emplace_back("--skip-exact=1");
  if (spec.durable) {
    a.push_back("--data-dir=" + data_dir);
    a.push_back("--checkpoint-every=" + std::to_string(spec.checkpoint_every));
  }
  return a;
}

/// The admission_server binary, started on --port 0.
class ServerProcess {
 public:
  ServerProcess(const std::string& path, const std::vector<std::string>& args);
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  /// Kills the server (if still running) and waits for it.
  ~ServerProcess();

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  /// CPU time the server process has used, nanoseconds.
  [[nodiscard]] std::uint64_t cpu_ns() const;
  /// Peak resident set (VmHWM), megabytes.
  [[nodiscard]] double peak_rss_mb() const;
  /// SIGKILL and reap. The SIGTERM drain would re-check every resident
  /// set with an exact test, which the benchmark does not measure.
  void kill_and_wait() noexcept;

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::uint16_t port_ = 0;
};

}  // namespace

const WireSpec* find_wire_spec(const std::string& name) {
  for (const WireSpec& s : specs()) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> out;
  for (const WireSpec& s : specs()) out.emplace_back(s.name);
  out.emplace_back("offline-exact");
  return out;
}

edfkit::AdmissionOptions twin_options(const WireSpec& spec) {
  edfkit::AdmissionOptions a;
  a.epsilon = spec.epsilon;
  a.skip_exact = spec.skip_exact;
  a.platform.m = spec.platform_m;
  return a;
}

// ------------------------------------------------------------ server

ServerProcess::ServerProcess(const std::string& path,
                             const std::vector<std::string>& args) {
  int pipefd[2];
  if (::pipe2(pipefd, O_CLOEXEC) != 0) throw_errno("pipe2");
  std::vector<std::string> argv_s;
  argv_s.push_back(path);
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& s : argv_s) argv.push_back(s.data());
  argv.push_back(nullptr);

  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) {
    ::close(pipefd[0]);
    ::close(pipefd[1]);
    throw_errno("fork");
  }
  if (pid_ == 0) {
    // Never outlive the benchmark, even if it dies without cleaning up.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(pipefd[1], STDOUT_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(pipefd[1]);
  out_fd_ = pipefd[0];

  // The server prints its resolved port on one line before serving.
  std::string line;
  const std::uint64_t deadline = now_ns() + 20'000'000'000ull;
  for (;;) {
    const std::size_t nl = line.find('\n');
    if (nl != std::string::npos) {
      const std::string first = line.substr(0, nl);
      const std::size_t at = first.find("listening on ");
      const std::size_t colon = first.find(':', at == std::string::npos ? 0 : at);
      if (at == std::string::npos || colon == std::string::npos) {
        line.erase(0, nl + 1);
        continue;
      }
      port_ = static_cast<std::uint16_t>(std::stoul(first.substr(colon + 1)));
      break;
    }
    const std::uint64_t now = now_ns();
    if (now >= deadline) {
      kill_and_wait();
      throw std::runtime_error("admission_server did not start listening");
    }
    pollfd p{out_fd_, POLLIN, 0};
    const int rc = ::poll(&p, 1, static_cast<int>((deadline - now) / 1'000'000 + 1));
    if (rc < 0 && errno != EINTR) {
      const int err = errno;
      kill_and_wait();
      throw std::system_error(err, std::generic_category(), "poll");
    }
    if (rc <= 0) continue;
    char buf[512];
    const ssize_t n = ::read(out_fd_, buf, sizeof buf);
    if (n <= 0) {
      kill_and_wait();
      throw std::runtime_error("admission_server exited before listening");
    }
    line.append(buf, static_cast<std::size_t>(n));
  }
}

ServerProcess::~ServerProcess() { kill_and_wait(); }

std::uint64_t ServerProcess::cpu_ns() const {
  clockid_t cid;
  timespec ts{};
  if (::clock_getcpuclockid(pid_, &cid) != 0 || ::clock_gettime(cid, &ts) != 0) {
    throw std::runtime_error("cannot read the server's CPU clock");
  }
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000u +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

double ServerProcess::peak_rss_mb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      in >> kb;
      return kb / 1024.0;
    }
    in.ignore(1 << 16, '\n');
  }
  throw std::runtime_error("no VmHWM for the server process");
}

void ServerProcess::kill_and_wait() noexcept {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
  }
  if (out_fd_ >= 0) {
    ::close(out_fd_);
    out_fd_ = -1;
  }
}

// ------------------------------------------------------------ client

LoadClient::LoadClient(const WireSpec& spec,
                       const std::vector<edfkit::Rng>& rngs,
                       std::uint16_t port)
    : spec_(spec) {
  conns_.reserve(rngs.size());
  for (std::size_t c = 0; c < rngs.size(); ++c) {
    Conn conn(net::Client::connect("127.0.0.1", port),
              OpStream(rngs[c], spec.stream));
    // No batch-fuse flag: the default serving path is what is measured.
    const net::NetResponse h = conn.client.hello(
        "t" + std::to_string(c),
        spec.durable ? edfkit::persist::FsyncPolicy::EveryN
                     : edfkit::persist::FsyncPolicy::None,
        spec.fsync_interval, 0, "", spec.platform_m);
    if (h.hdr.status != static_cast<std::uint8_t>(net::NetStatus::Ok) ||
        h.platform_m != spec.platform_m) {
      throw std::runtime_error("HELLO refused by the server");
    }
    conns_.push_back(std::move(conn));
  }
}

void LoadClient::fill(Conn& c, bool stop) {
  const std::size_t first_new = c.inflight.size();
  while (!stop && c.inflight.size() - c.inflight_head < spec_.window &&
         c.sent < c.limit) {
    std::optional<Op> op = c.stream.next();
    if (!op) break;
    net::NetRequest req = to_request(*op);
    req.hdr.request_id = c.next_request_id++;
    net::append_frame(c.wbuf, net::encode_request(req));
    c.inflight.push_back(
        {req.hdr.request_id, op->kind, op->key, op->offered(), 0});
    ++c.sent;
  }
  if (c.wbuf.empty()) return;
  const std::uint64_t t = now_ns();
  for (std::size_t i = first_new; i < c.inflight.size(); ++i) {
    c.inflight[i].sent_ns = t;
  }
  write_all(c.client.fd(), c.wbuf);
  c.wbuf.clear();
}

void LoadClient::receive(Conn& c, PhaseResult* phase) {
  std::uint8_t buf[1 << 16];
  const ssize_t n = ::recv(c.client.fd(), buf, sizeof buf, MSG_DONTWAIT);
  if (n == 0) throw std::runtime_error("server closed the connection");
  if (n < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
    throw_errno("recv");
  }
  c.rbuf.insert(c.rbuf.end(), buf, buf + n);
  std::size_t off = 0;
  for (;;) {
    net::FrameView f;
    const net::FrameStatus st = net::try_parse_frame(
        std::span<const std::uint8_t>(c.rbuf).subspan(off), f);
    if (st == net::FrameStatus::NeedMore) break;
    if (st != net::FrameStatus::Ok) {
      throw std::runtime_error("malformed response frame");
    }
    const net::NetResponse resp = net::decode_response(f.payload);
    off += f.consumed;
    const std::uint64_t t = now_ns();
    if (c.inflight_head == c.inflight.size()) {
      throw std::runtime_error("response with nothing in flight");
    }
    const InFlight& inf = c.inflight[c.inflight_head++];
    if (resp.hdr.request_id != inf.request_id) {
      throw std::runtime_error("responses out of request order");
    }
    Answer a = answer_from_response(inf.kind, resp);
    if (inf.kind != net::NetOp::RemoveGroup) {
      c.stream.resolve(inf.key, a.admitted(),
                       inf.kind == net::NetOp::Admit
                           ? std::vector<TaskId>{a.id}
                           : a.ids);
    }
    if (phase != nullptr) {
      ++phase->ops;
      if (!a.answered()) ++phase->failed;
      phase->offered += inf.offered;
      if (a.admitted()) phase->admitted += inf.offered;
      phase->latency_us.push_back(static_cast<double>(t - inf.sent_ns) / 1e3);
    }
    c.log.push_back(std::move(a));
  }
  c.rbuf.erase(c.rbuf.begin(), c.rbuf.begin() + static_cast<std::ptrdiff_t>(off));
  if (c.inflight_head == c.inflight.size()) {
    c.inflight.clear();
    c.inflight_head = 0;
  }
}

template <typename Done>
void LoadClient::drive(Done done, PhaseResult* phase) {
  std::vector<pollfd> fds(conns_.size());
  std::uint64_t last_progress = now_ns();
  for (;;) {
    const bool stop = done();
    bool in_flight = false;
    for (Conn& c : conns_) {
      fill(c, stop);
      in_flight = in_flight || c.inflight_head < c.inflight.size();
    }
    if (!in_flight) {
      if (stop) return;
      throw std::logic_error("op streams stalled with nothing in flight");
    }
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      fds[i] = {conns_[i].client.fd(), POLLIN, 0};
    }
    const int rc = ::poll(fds.data(), fds.size(), 100);
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw_errno("poll");
    }
    if (rc == 0) {
      if (now_ns() - last_progress > 60'000'000'000ull) {
        throw std::runtime_error("no response from the server for 60 s");
      }
      continue;
    }
    last_progress = now_ns();
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLERR | POLLHUP)) != 0) {
        receive(conns_[i], phase);
      }
    }
  }
}

PhaseResult LoadClient::run_count(const std::vector<std::uint64_t>& ops) {
  PhaseResult r;
  for (std::size_t c = 0; c < conns_.size(); ++c) {
    conns_[c].limit = conns_[c].sent + ops.at(c);
  }
  const std::uint64_t start = now_ns();
  drive(
      [&] {
        for (const Conn& c : conns_) {
          if (c.sent < c.limit) return false;
        }
        return true;
      },
      &r);
  r.wall_ns = now_ns() - start;
  for (Conn& c : conns_) c.limit = UINT64_MAX;
  return r;
}

PhaseResult LoadClient::run_for(
    double seconds, const std::function<std::uint64_t()>& cpu_ns) {
  PhaseResult r;
  const std::size_t windows = window_count(seconds);
  const std::uint64_t start = now_ns();
  const auto span_ns = static_cast<std::uint64_t>(seconds * 1e9);
  r.marks.push_back({start, 0, cpu_ns()});
  drive(
      [&] {
        const std::uint64_t t = now_ns();
        const std::uint64_t due =
            start + span_ns * r.marks.size() / windows;
        if (r.marks.size() <= windows && t >= due) {
          r.marks.push_back({t, r.ops, cpu_ns()});
        }
        return r.marks.size() > windows;
      },
      &r);
  r.wall_ns = now_ns() - start;
  return r;
}

std::vector<net::NetResponse> LoadClient::stats() {
  std::vector<net::NetResponse> out;
  for (Conn& c : conns_) {
    net::NetRequest req;
    req.hdr.op = static_cast<std::uint8_t>(net::NetOp::Stats);
    out.push_back(c.client.call(std::move(req)));
  }
  return out;
}

// ------------------------------------------------------------ timed run

TimedWire timed_wire(const WireSpec& spec, const RunOptions& opt, int setups) {
  TimedWire t;
  std::unique_ptr<ServerProcess> server;
  std::string data_dir;
  const auto teardown = [&] {
    t.client.reset();
    server.reset();
    if (!data_dir.empty()) std::filesystem::remove_all(data_dir);
  };

  // Set up several times and report the median: spawn alone swings by
  // milliseconds; the deterministic warm-up fill is most of what is
  // measured.
  for (int s = 0; s < setups; ++s) {
    teardown();
    const std::uint64_t t0 = now_ns();
    if (spec.durable) {
      data_dir = opt.work_dir + "/data-" + std::to_string(::getpid()) + "-" +
                 std::to_string(s);
    }
    server = std::make_unique<ServerProcess>(opt.server_path,
                                             server_args(spec, data_dir));
    t.client = std::make_unique<LoadClient>(
        spec, tenant_rngs(opt.seed, spec.connections), server->port());
    (void)t.client->run_count(
        std::vector<std::uint64_t>(spec.connections, spec.warmup_ops));
    t.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  const std::uint64_t steal0 = steal_ticks();
  const std::uint64_t cpu0 = server->cpu_ns();
  t.phase = t.client->run_for(opt.seconds, [&] { return server->cpu_ns(); });
  t.server_cpu_ns = server->cpu_ns() - cpu0;
  t.steal_ticks = steal_ticks() - steal0;
  t.stats = t.client->stats();
  t.rss_mb = server->peak_rss_mb();
  server->kill_and_wait();
  if (!data_dir.empty()) std::filesystem::remove_all(data_dir);
  if (t.phase.ops == 0) {
    throw std::runtime_error("no op completed in the timed phase");
  }
  return t;
}

bool check_tenant(const WireSpec& spec, std::uint64_t seed, std::size_t c,
                  const std::vector<Answer>& log,
                  const std::vector<const net::NetResponse*>& stats) {
  OpStream stream(tenant_rngs(seed, spec.connections)[c], spec.stream);
  edfkit::AdmissionController twin(twin_options(spec));
  const CheckResult r = check_log(log, stream, twin);
  bool ok = r.mismatches == 0;
  if (!ok) {
    std::fprintf(stderr, "DIVERGENCE tenant t%zu: %llu mismatches, first %s\n",
                 c, static_cast<unsigned long long>(r.mismatches),
                 r.first.c_str());
  }
  for (const net::NetResponse* s : stats) {
    const std::string d = compare_stats(*s, twin);
    if (!d.empty()) {
      std::fprintf(stderr, "DIVERGENCE tenant t%zu: %s\n", c, d.c_str());
      ok = false;
    }
  }
  return ok;
}

RunOutcome run_wire(const WireSpec& spec, const RunOptions& opt,
                    Report& report) {
  constexpr int kSetups = 5;
  const TimedWire t = timed_wire(spec, opt, kSetups);
  const PhaseResult& ph = t.phase;

  RunOutcome out;
  out.attempted = ph.ops;
  out.failed = ph.failed;
  std::uint64_t checked = 0;
  for (std::size_t c = 0; c < t.client->connections(); ++c) {
    out.correct = check_tenant(spec, opt.seed, c, t.client->log(c),
                               {&t.stats[c]}) &&
                  out.correct;
    checked += t.client->log(c).size();
  }
  std::printf("decision check: %llu ops replayed through the twin, %s\n",
              static_cast<unsigned long long>(checked),
              out.correct ? "all equal" : "MISMATCH");

  const Windowed w = windowed_medians(ph.latency_us, ph.marks);
  const double wall_s = static_cast<double>(ph.wall_ns) / 1e9;
  const double ops = static_cast<double>(ph.ops);
  print_phase_noise(stdout, t.steal_ticks,
                    static_cast<double>(t.server_cpu_ns) / 1e9, wall_s);
  std::printf("windows: %zu; rates, percentiles and cpu are their medians\n",
              ph.marks.size() - 1);
  report.add("setup_s", median(t.setup_s), "s", kSetups);
  report.add("ops_per_s", w.ops_per_s, "1/s", ph.ops);
  report.add("latency_p50_us", w.p50_us, "us", ph.latency_us.size());
  report.add("latency_p90_us", w.p90_us, "us", ph.latency_us.size());
  report.add("cpu_us_per_op", w.cpu_us_per_op, "us", ph.ops);
  report.add("peak_rss_mb", t.rss_mb, "MB");
  report.add("admit_frac",
             ph.offered == 0 ? 0.0
                             : static_cast<double>(ph.admitted) /
                                   static_cast<double>(ph.offered),
             "frac", ph.offered);
  report.add("ok_frac", (ops - static_cast<double>(ph.failed)) / ops, "frac",
             ph.ops);
  return out;
}

}  // namespace perfbench
