#include "net/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <system_error>

#include "admission/snapshot.hpp"
#include "fault/fault.hpp"
#include "obs/obs.hpp"
#include "persist/format.hpp"
#include "repl/shipper.hpp"

namespace edfkit::net {

// The obs layer mirrors the op count for its per-op histograms; keep
// the mirror honest where both headers are visible.
static_assert(obs::kNetOps == kNetOpCount,
              "obs::kNetOps must mirror net::kNetOpCount");

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

/// The server speaks every version from kMinProtocolVersion up: all v2
/// additions are trailing fields, so a v1 request decodes to the same
/// struct with the defaults (platform_m = 1) and a v2 response's extra
/// bytes are ignored by a v1 client.
constexpr bool version_ok(std::uint8_t v) noexcept {
  return v >= kMinProtocolVersion && v <= kProtocolVersion;
}

}  // namespace

Server::Server(ServerOptions opts, obs::Obs* obs)
    : opts_(std::move(opts)),
      obs_(obs),
      metrics_(obs != nullptr && obs->config().metrics ? obs->net()
                                                       : nullptr),
      repl_ins_(obs != nullptr && obs->config().metrics ? obs->repl()
                                                        : nullptr),
      tenants_(opts_.tenants, obs),
      shed_(opts_.shed),
      standby_(opts_.tenants.standby) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) throw_errno("epoll_create1");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) throw_errno("socket");
  const int one = 1;
  (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(opts_.port);
  if (::inet_pton(AF_INET, opts_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    throw std::invalid_argument("Server: bad bind address " +
                                opts_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0) {
    throw_errno("bind");
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    throw_errno("getsockname");
  }
  port_ = ntohs(bound.sin_port);
  if (::listen(listen_fd_, opts_.backlog) != 0) throw_errno("listen");

  stop_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (stop_fd_ < 0) throw_errno("eventfd");

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) != 0) {
    throw_errno("epoll_ctl listen");
  }
  ev.data.fd = stop_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, stop_fd_, &ev) != 0) {
    throw_errno("epoll_ctl eventfd");
  }
}

Server::~Server() {
  std::vector<int> fds;
  fds.reserve(conns_.size());
  for (const auto& [fd, conn] : conns_) fds.push_back(fd);
  for (const int fd : fds) close_connection(fd);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (stop_fd_ >= 0) ::close(stop_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void Server::run() {
  while (!stop_requested_) {
    (void)poll_once(100);
  }
  // Drain: a SIGTERM must not strand buffered journal tails.
  tenants_.flush_all();
}

void Server::stop() noexcept {
  const std::uint64_t one = 1;
  // Async-signal-safe: one write(2) on an eventfd.
  (void)!::write(stop_fd_, &one, sizeof one);
}

bool Server::poll_once(int timeout_ms) {
  std::array<epoll_event, 64> events;
  const int n =
      ::epoll_wait(epoll_fd_, events.data(),
                   static_cast<int>(events.size()), timeout_ms);
  if (n < 0 && errno != EINTR) throw_errno("epoll_wait");
  for (int i = 0; i < n; ++i) {
    const int fd = events[i].data.fd;
    if (fd == listen_fd_) {
      accept_ready();
      continue;
    }
    if (fd == stop_fd_) {
      std::uint64_t drain = 0;
      (void)!::read(stop_fd_, &drain, sizeof drain);
      stop_requested_ = true;
      continue;
    }
    const auto it = conns_.find(fd);
    if (it == conns_.end()) continue;  // closed earlier this tick
    Connection& c = *it->second;
    if ((events[i].events & (EPOLLERR | EPOLLHUP)) != 0) {
      close_connection(fd);
      continue;
    }
    if ((events[i].events & EPOLLOUT) != 0) write_ready(c);
    if (conns_.find(fd) == conns_.end()) continue;
    if ((events[i].events & EPOLLIN) != 0) read_ready(c);
  }
  const bool served = !pending_.empty();
  serve_pending();
  sweep_idle();
  reprobe_quarantined();
  push_digests();
  return served;
}

void Server::push_digests() {
  if (opts_.shipper == nullptr || standby_ ||
      opts_.digest_interval_ms == 0) {
    return;
  }
  const std::uint64_t now = obs::now_ns();
  if (now < next_digest_ns_) return;
  next_digest_ns_ = now + opts_.digest_interval_ms * 1000000ull;
  tenants_.for_each([&](Tenant& t) {
    if (!t.journaled() || t.quarantined()) return;
    opts_.shipper->push_digest(t.name(), t.journal_lsn(),
                               store_digest(t.controller()));
  });
}

std::uint64_t Server::promote() {
  if (!standby_) return 0;
  std::uint64_t n = 0;
  tenants_.for_each([&](Tenant& t) {
    if (t.standby()) {
      t.promote();
      ++n;
    }
  });
  tenants_.set_standby(false);
  standby_ = false;
  return n;
}

void Server::accept_ready() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;  // transient accept failures must not kill the loop
    }
    if (conns_.size() >= opts_.max_connections) {
      ::close(fd);
      continue;
    }
    const int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->last_activity_ns = obs::now_ns();
    conns_.emplace(fd, std::move(conn));
    if (metrics_ != nullptr) {
      metrics_->accepted.add();
      metrics_->connections.set(static_cast<double>(conns_.size()));
    }
  }
}

void Server::read_ready(Connection& c) {
  const int fd = c.fd;
  bool closed = false;
  for (;;) {
    std::uint8_t chunk[4096];
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n > 0) {
      c.rbuf.insert(c.rbuf.end(), chunk, chunk + n);
      if (metrics_ != nullptr) {
        metrics_->bytes_in.add(static_cast<std::uint64_t>(n));
      }
      continue;
    }
    if (n == 0) {
      closed = true;  // orderly EOF
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    closed = true;
    break;
  }
  c.last_activity_ns = obs::now_ns();
  drain_frames(c);
  // drain_frames may have closed on a framing violation.
  if (conns_.find(fd) == conns_.end()) return;
  if (closed) close_connection(fd);
}

void Server::drain_frames(Connection& c) {
  std::size_t off = 0;
  for (;;) {
    FrameView frame;
    const FrameStatus st = try_parse_frame(
        std::span<const std::uint8_t>(c.rbuf).subspan(off), frame);
    if (st == FrameStatus::NeedMore) break;
    if (st != FrameStatus::Ok) {
      // TooLarge / BadCrc: the stream cannot be resynchronized — every
      // later length prefix is untrustworthy. Drop the connection.
      if (metrics_ != nullptr) metrics_->protocol_errors.add();
      close_connection(c.fd);
      return;
    }
    try {
      Pending p;
      p.fd = c.fd;
      p.req = decode_request(frame.payload);
      pending_.push_back(std::move(p));
    } catch (const std::out_of_range&) {
      // The frame was intact (length + CRC verified) but the body is
      // shorter than its op demands: a malformed request, not a broken
      // stream. Answer BadRequest and keep the connection — the next
      // frame boundary is still trustworthy.
      if (metrics_ != nullptr) metrics_->protocol_errors.add();
      NetResponse resp;
      if (frame.payload.size() >= kMessageHeaderBytes) {
        // Header-only parse (no body decode — that is what just threw).
        ByteReader hdr{frame.payload};
        resp.hdr.version = hdr.u8();
        resp.hdr.op = hdr.u8();
        (void)hdr.u8();  // status, zero in requests
        (void)hdr.u8();  // request flags are not echoed
        resp.hdr.request_id = hdr.u64();
      }
      resp.hdr.status = static_cast<std::uint8_t>(NetStatus::BadRequest);
      send_response(c, resp);
      if (conns_.find(c.fd) == conns_.end()) return;
    }
    off += frame.consumed;
  }
  if (off != 0) {
    c.rbuf.erase(c.rbuf.begin(),
                 c.rbuf.begin() + static_cast<std::ptrdiff_t>(off));
  }
}

void Server::serve_pending() {
  const std::size_t depth = pending_.size();
  for (const Pending& p : pending_) {
    const auto it = conns_.find(p.fd);
    if (it == conns_.end()) continue;  // connection died earlier this tick
    // Containment: no per-request failure may take down the event loop
    // (persist failures are handled — and quarantined — inside
    // serve_one; this is the backstop for everything else).
    try {
      serve_one(*it->second, p.req, depth);
    } catch (...) {
      if (metrics_ != nullptr) metrics_->protocol_errors.add();
      const auto jt = conns_.find(p.fd);
      if (jt != conns_.end()) {
        NetResponse resp;
        resp.hdr.op = p.req.hdr.op;
        resp.hdr.request_id = p.req.hdr.request_id;
        resp.hdr.status =
            static_cast<std::uint8_t>(NetStatus::InternalError);
        send_response(*jt->second, resp);
      }
    }
  }
  pending_.clear();
}

void Server::serve_one(Connection& c, const NetRequest& req,
                       std::size_t queue_depth) {
  const std::uint64_t t0 = metrics_ != nullptr ? obs::now_ns() : 0;
  const NetOp op = static_cast<NetOp>(req.hdr.op);
  const std::size_t op_slot =
      req.hdr.op < kNetOpCount && req.hdr.op != 0 ? req.hdr.op : 0;
  if (metrics_ != nullptr) metrics_->requests.add();

  // send_payload may close the connection (outbound cap, write error),
  // invalidating `c`; the tenant outlives it — keep a stable handle
  // for the post-send checkpoint hook.
  Tenant* tenant = c.tenant;
  const auto finish_op_ns = [&] {
    if (metrics_ != nullptr) {
      metrics_->op_ns[op_slot].record(obs::now_ns() - t0);
    }
  };

  NetResponse resp;
  resp.hdr.op = req.hdr.op;
  resp.hdr.request_id = req.hdr.request_id;
  const auto fail = [&](NetStatus s) {
    resp.hdr.status = static_cast<std::uint8_t>(s);
  };
  const auto unavailable = [&] {
    fail(NetStatus::Unavailable);
    resp.retry_after_ms =
        static_cast<std::uint32_t>(opts_.reprobe_interval_ms);
    if (metrics_ != nullptr) metrics_->unavailable.add();
  };

  const bool mutating =
      op == NetOp::Admit || op == NetOp::AdmitGroup ||
      op == NetOp::Remove || op == NetOp::RemoveGroup;
  const bool marked = mutating && !c.client_id.empty();

  // Standby gate, ahead of even the dedup lookup: a follower must not
  // answer mutating client ops at all before promotion — not even from
  // its dedup cache, whose authoritative copy is still the primary's.
  // HELLO/STATS/PING stay up (health checks, pre-failover probes).
  if (standby_ && mutating && version_ok(req.hdr.version)) {
    unavailable();
    finish_op_ns();
    send_response(c, resp);
    return;
  }

  // Exactly-once and failure-domain gates, ahead of op dispatch.
  if (version_ok(req.hdr.version) && mutating &&
      tenant != nullptr) {
    if (marked && req.hdr.request_id == 0) {
      fail(NetStatus::BadRequest);  // dedup needs real ids (>= 1)
      finish_op_ns();
      send_response(c, resp);
      return;
    }
    if (marked) {
      // Dedup BEFORE the quarantine gate: an op applied before the
      // fault can answer its retry even while quarantined.
      const std::vector<std::uint8_t>* cached = nullptr;
      switch (
          tenant->dedup_lookup(c.client_id, req.hdr.request_id, &cached)) {
        case Tenant::DedupResult::Hit:
          if (metrics_ != nullptr) metrics_->dedup_hits.add();
          finish_op_ns();
          send_payload(c, *cached);
          return;
        case Tenant::DedupResult::Evicted:
          // Applied, but the response fell off the window. Anything
          // but an error risks a double-apply; the client surfaces it.
          fail(NetStatus::InternalError);
          finish_op_ns();
          send_response(c, resp);
          return;
        case Tenant::DedupResult::Miss:
          break;
      }
    }
    if (tenant->quarantined()) {
      unavailable();
      finish_op_ns();
      send_response(c, resp);
      return;
    }
  }

  bool applied = false;  // run the checkpoint hook after sending

  if (!version_ok(req.hdr.version)) {
    fail(NetStatus::BadVersion);
  } else {
    switch (op) {
      case NetOp::Hello: {
        if (req.durability >
            static_cast<std::uint8_t>(persist::FsyncPolicy::EveryN)) {
          fail(NetStatus::BadRequest);
          break;
        }
        // A client id opts into exactly-once dedup; it is journaled
        // and persisted, so it obeys the tenant-name rule.
        if (!req.client.empty() && !valid_tenant_name(req.client)) {
          fail(NetStatus::BadRequest);
          break;
        }
        try {
          const bool fresh = tenants_.find(req.tenant) == nullptr;
          Tenant& t = tenants_.get_or_create(
              req.tenant,
              static_cast<persist::FsyncPolicy>(req.durability),
              req.fsync_interval,
              (req.hdr.flags & kFlagCertifiedTenant) != 0,
              req.platform_m);
          if (fresh && t.quarantined()) count_quarantine();
          c.tenant = &t;
          tenant = &t;
          c.client_id = req.client;
          resp.base_lsn = t.journal_base_lsn();
          resp.lsn = t.journal_lsn();
          resp.epoch = t.epoch();
          resp.highest_applied =
              req.client.empty() ? 0 : t.highest_applied(req.client);
          // Echo the platform the tenant *actually* admits against —
          // an attach to an existing tenant keeps its platform, like
          // its durability class.
          resp.platform_m = t.controller().platform().m;
        } catch (const std::invalid_argument&) {
          fail(NetStatus::BadRequest);
        } catch (const persist::PersistError&) {
          fail(NetStatus::InternalError);
        }
        break;
      }
      case NetOp::Ping:
        break;
      case NetOp::Admit: {
        if (tenant == nullptr) {
          fail(NetStatus::NeedHello);
          break;
        }
        AdmissionController& ctl = tenant->controller();
        if (shed_.should_shed(op, queue_depth, ctl.demand_header(),
                              ctl.platform().m)) {
          fail(NetStatus::Shed);
          resp.retry_after_ms = shed_.options().retry_after_ms;
          if (metrics_ != nullptr) metrics_->sheds.add();
          break;
        }
        try {
          if (marked) {
            // Validate before journaling the mark, keeping orphan
            // marks out of the journal on malformed requests.
            req.task.validate();
            tenant->append_mark(c.client_id, req.hdr.request_id,
                                req.hdr.flags);
          }
          const AdmissionDecision d = ctl.try_admit(req.task);
          resp = make_admit_response(req.hdr.request_id, req.hdr.flags, d);
          applied = true;
        } catch (const std::invalid_argument&) {
          fail(NetStatus::BadRequest);
        } catch (const persist::PersistError& e) {
          quarantine_tenant(*tenant, e);
          unavailable();
        }
        break;
      }
      case NetOp::AdmitGroup: {
        if (tenant == nullptr) {
          fail(NetStatus::NeedHello);
          break;
        }
        AdmissionController& ctl = tenant->controller();
        if (shed_.should_shed(op, queue_depth, ctl.demand_header(),
                              ctl.platform().m)) {
          fail(NetStatus::Shed);
          resp.retry_after_ms = shed_.options().retry_after_ms;
          if (metrics_ != nullptr) metrics_->sheds.add();
          break;
        }
        try {
          if (marked) {
            for (const Task& t : req.group) t.validate();
            tenant->append_mark(c.client_id, req.hdr.request_id,
                                req.hdr.flags);
          }
          const GroupDecision d = ctl.admit_group(req.group);
          resp = make_admit_group_response(req.hdr.request_id,
                                           req.hdr.flags, d);
          applied = true;
        } catch (const std::invalid_argument&) {
          fail(NetStatus::BadRequest);
        } catch (const persist::PersistError& e) {
          quarantine_tenant(*tenant, e);
          unavailable();
        }
        break;
      }
      case NetOp::Remove: {
        if (tenant == nullptr) {
          fail(NetStatus::NeedHello);
          break;
        }
        try {
          if (marked) {
            tenant->append_mark(c.client_id, req.hdr.request_id,
                                req.hdr.flags);
          }
          const bool removed = tenant->controller().remove(req.id);
          resp = make_remove_response(NetOp::Remove, req.hdr.request_id,
                                      removed ? 1 : 0);
          applied = true;
        } catch (const persist::PersistError& e) {
          quarantine_tenant(*tenant, e);
          unavailable();
        }
        break;
      }
      case NetOp::RemoveGroup: {
        if (tenant == nullptr) {
          fail(NetStatus::NeedHello);
          break;
        }
        try {
          if (marked) {
            tenant->append_mark(c.client_id, req.hdr.request_id,
                                req.hdr.flags);
          }
          const std::uint64_t removed =
              tenant->controller().remove_group(req.ids);
          resp = make_remove_response(NetOp::RemoveGroup,
                                      req.hdr.request_id, removed);
          applied = true;
        } catch (const persist::PersistError& e) {
          quarantine_tenant(*tenant, e);
          unavailable();
        }
        break;
      }
      case NetOp::Stats: {
        if (tenant == nullptr) {
          fail(NetStatus::NeedHello);
          break;
        }
        const AdmissionController& ctl = tenant->controller();
        resp.stats = ctl.demand_header();
        resp.stats_json = ctl.stats().to_json();
        resp.platform_m = ctl.platform().m;
        break;
      }
      case NetOp::ReplHello:
        serve_repl_hello(req, resp);
        break;
      case NetOp::ReplAppend:
        serve_repl_append(req, resp);
        break;
      case NetOp::ReplSnapshot:
        serve_repl_snapshot(req, resp);
        break;
      case NetOp::Promote: {
        if (standby_) {
          // A diverged follower must never serve: refuse until the
          // shipper re-seeds it (or an operator intervenes).
          bool diverged = false;
          tenants_.for_each(
              [&](Tenant& t) { diverged = diverged || t.diverged(); });
          if (diverged) {
            unavailable();
            break;
          }
        }
        resp.promoted = promote();
        break;
      }
      default:
        fail(NetStatus::UnknownOp);
        break;
    }
  }

  finish_op_ns();
  const std::vector<std::uint8_t> payload = encode_response(resp);
  if (applied && marked) {
    tenant->record_applied(c.client_id, req.hdr.request_id, payload);
  }
  send_payload(c, payload);
  // The checkpoint cycle runs after the response is queued: a failing
  // checkpoint quarantines the tenant for *later* operations instead
  // of clobbering an already-successful decision.
  if (applied && tenant != nullptr && !tenant->quarantined()) {
    try {
      tenant->on_operation();
    } catch (const persist::PersistError& e) {
      quarantine_tenant(*tenant, e);
    }
  }
}

void Server::serve_repl_hello(const NetRequest& req, NetResponse& resp) {
  const auto fail = [&](NetStatus s) {
    resp.hdr.status = static_cast<std::uint8_t>(s);
  };
  if (!standby_) {
    fail(NetStatus::BadRequest);  // repl ops address followers only
    return;
  }
  if (req.durability >
      static_cast<std::uint8_t>(persist::FsyncPolicy::EveryN)) {
    fail(NetStatus::BadRequest);
    return;
  }
  try {
    Tenant& t = tenants_.get_or_create(
        req.tenant, static_cast<persist::FsyncPolicy>(req.durability),
        req.fsync_interval, false);
    resp.base_lsn = t.journal_base_lsn();
    resp.lsn = t.replica_lsn();
    resp.epoch = t.epoch();
    // A new follower's options come with the primary's snapshot; none
    // of its records may be applied before that.
    if (!t.seeded()) resp.repl_flags |= kReplNeedSnapshot;
    if (t.diverged()) resp.repl_flags |= kReplDiverged;
    if (t.quarantined()) {
      fail(NetStatus::Unavailable);
      resp.retry_after_ms =
          static_cast<std::uint32_t>(opts_.reprobe_interval_ms);
      if (metrics_ != nullptr) metrics_->unavailable.add();
    }
  } catch (const std::invalid_argument&) {
    fail(NetStatus::BadRequest);
  } catch (const persist::PersistError&) {
    fail(NetStatus::InternalError);
  }
}

void Server::serve_repl_append(const NetRequest& req, NetResponse& resp) {
  const auto fail = [&](NetStatus s) {
    resp.hdr.status = static_cast<std::uint8_t>(s);
  };
  if (!standby_) {
    fail(NetStatus::BadRequest);
    return;
  }
  Tenant* t = tenants_.find(req.tenant);
  if (t == nullptr || !t->seeded()) {
    // The shipper skipped REPL_HELLO (or we restarted), or the tenant
    // lacks the primary's options: make it seed.
    resp.repl_flags |= kReplNeedSnapshot;
    return;
  }
  if (t->quarantined()) {
    fail(NetStatus::Unavailable);
    resp.retry_after_ms =
        static_cast<std::uint32_t>(opts_.reprobe_interval_ms);
    if (metrics_ != nullptr) metrics_->unavailable.add();
    return;
  }
  resp.base_lsn = t->journal_base_lsn();
  resp.lsn = t->replica_lsn();
  if (t->diverged()) {
    resp.repl_flags |= kReplDiverged;
    return;
  }
  // Verify an attached digest whenever the applied LSN reaches its LSN
  // — before the batch (a pure check), between records (mid-batch), or
  // after the last one.
  const auto check_digest = [&] {
    if (req.digest_lsn == 0 || t->replica_lsn() != req.digest_lsn ||
        (resp.repl_flags & kReplDiverged) != 0) {
      return;
    }
    if (repl_ins_ != nullptr) repl_ins_->digests_checked.add();
    const std::uint32_t mine = store_digest(t->controller());
    if (mine != req.digest) {
      t->mark_diverged("store digest mismatch at lsn " +
                       std::to_string(req.digest_lsn));
      resp.repl_flags |= kReplDiverged;
    }
  };
  check_digest();
  std::uint64_t rlsn = req.repl_lsn;
  try {
    for (const auto& record : req.repl_records) {
      if ((resp.repl_flags & kReplDiverged) != 0) break;
      if (rlsn < t->replica_lsn()) {
        ++rlsn;  // idempotent resend of an already-applied prefix
        continue;
      }
      if (rlsn > t->replica_lsn()) {
        resp.repl_flags |= kReplNeedSnapshot;  // gap — records were lost
        break;
      }
      t->apply_replicated(record);
      if (repl_ins_ != nullptr) repl_ins_->applied.add();
      ++rlsn;
      check_digest();
    }
  } catch (const persist::PersistError& e) {
    quarantine_tenant(*t, e);
    fail(NetStatus::Unavailable);
    resp.retry_after_ms =
        static_cast<std::uint32_t>(opts_.reprobe_interval_ms);
    if (metrics_ != nullptr) metrics_->unavailable.add();
  } catch (const std::out_of_range&) {
    // A record that cannot be decoded is corruption the wire CRC did
    // not catch (it was computed over the corrupt bytes): divergence.
    t->mark_diverged("undecodable shipped record at lsn " +
                     std::to_string(rlsn));
    resp.repl_flags |= kReplDiverged;
  }
  resp.base_lsn = t->journal_base_lsn();
  resp.lsn = t->replica_lsn();
}

void Server::serve_repl_snapshot(const NetRequest& req, NetResponse& resp) {
  const auto fail = [&](NetStatus s) {
    resp.hdr.status = static_cast<std::uint8_t>(s);
  };
  if (!standby_ || req.repl_snapshot.empty()) {
    fail(NetStatus::BadRequest);  // a seed is a primary's checkpoint
    return;
  }
  Tenant* t = tenants_.find(req.tenant);
  try {
    if (t == nullptr) {
      t = &tenants_.get_or_create(req.tenant, persist::FsyncPolicy::None,
                                  64, false);
    }
  } catch (const std::invalid_argument&) {
    fail(NetStatus::BadRequest);
    return;
  } catch (const persist::PersistError&) {
    fail(NetStatus::InternalError);
    return;
  }
  try {
    t->seed_from(req.repl_snapshot, req.repl_dedup, req.repl_lsn);
    if (repl_ins_ != nullptr) repl_ins_->seeds_applied.add();
    resp.base_lsn = t->journal_base_lsn();
    resp.lsn = t->replica_lsn();
  } catch (const persist::PersistError& e) {
    quarantine_tenant(*t, e);
    fail(NetStatus::Unavailable);
    resp.retry_after_ms =
        static_cast<std::uint32_t>(opts_.reprobe_interval_ms);
    if (metrics_ != nullptr) metrics_->unavailable.add();
  } catch (const std::out_of_range&) {
    fail(NetStatus::BadRequest);  // malformed container
  }
}

void Server::send_response(Connection& c, const NetResponse& resp) {
  send_payload(c, encode_response(resp));
}

void Server::send_payload(Connection& c,
                          std::span<const std::uint8_t> payload) {
  // Chaos hook: swallow the response after the operation applied — the
  // client times out and retries, and the retry must dedup-hit.
  fault::FailPoint& fp_drop = EDFKIT_FAULT_POINT(fault::kDropResponseSite);
  if (fp_drop.armed() && fp_drop.should_fail()) return;
  append_frame(c.wbuf, payload);
  if (c.wbuf.size() - c.woff > opts_.max_outbound_bytes) {
    // A consumer that stopped reading while we kept answering must not
    // grow server memory without bound.
    if (metrics_ != nullptr) metrics_->protocol_errors.add();
    close_connection(c.fd);
    return;
  }
  write_ready(c);  // opportunistic immediate flush
}

void Server::write_ready(Connection& c) {
  const int fd = c.fd;
  while (c.woff < c.wbuf.size()) {
    // MSG_NOSIGNAL: a peer that closed mid-write must surface as EPIPE
    // here, not as a process-wide SIGPIPE.
    const ssize_t n = ::send(fd, c.wbuf.data() + c.woff,
                             c.wbuf.size() - c.woff, MSG_NOSIGNAL);
    if (n > 0) {
      c.woff += static_cast<std::size_t>(n);
      if (metrics_ != nullptr) {
        metrics_->bytes_out.add(static_cast<std::uint64_t>(n));
      }
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    close_connection(fd);
    return;
  }
  if (c.woff == c.wbuf.size()) {
    c.wbuf.clear();
    c.woff = 0;
  }
  c.last_activity_ns = obs::now_ns();
  update_epollout(c);
}

void Server::update_epollout(Connection& c) {
  const bool want = c.woff < c.wbuf.size();
  if (want == c.want_epollout) return;
  epoll_event ev{};
  ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
  ev.data.fd = c.fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.fd, &ev) == 0) {
    c.want_epollout = want;
  }
}

void Server::close_connection(int fd) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  conns_.erase(it);
  if (metrics_ != nullptr) {
    metrics_->closed.add();
    metrics_->connections.set(static_cast<double>(conns_.size()));
  }
}

void Server::quarantine_tenant(Tenant& t, const persist::PersistError& e) {
  const bool was = t.quarantined();
  t.quarantine(e);
  if (!was) count_quarantine();
}

void Server::count_quarantine() {
  if (metrics_ == nullptr) return;
  metrics_->quarantines.add();
  std::size_t q = 0;
  tenants_.for_each([&](Tenant& x) { q += x.quarantined() ? 1 : 0; });
  metrics_->quarantined.set(static_cast<double>(q));
}

void Server::reprobe_quarantined() {
  if (opts_.reprobe_interval_ms == 0) return;
  const std::uint64_t now = obs::now_ns();
  if (now < next_reprobe_ns_) return;
  next_reprobe_ns_ = now + opts_.reprobe_interval_ms * 1000000ull;
  std::size_t quarantined = 0;
  tenants_.for_each([&](Tenant& t) {
    if (t.quarantined() && t.quarantine_retryable()) {
      if (t.try_recover()) {
        if (metrics_ != nullptr) metrics_->unquarantines.add();
      } else if (metrics_ != nullptr) {
        metrics_->reprobe_failures.add();
      }
    }
    quarantined += t.quarantined() ? 1 : 0;
  });
  if (metrics_ != nullptr) {
    metrics_->quarantined.set(static_cast<double>(quarantined));
  }
}

void Server::sweep_idle() {
  if (opts_.idle_timeout_ms == 0) return;
  const std::uint64_t now = obs::now_ns();
  const std::uint64_t limit = opts_.idle_timeout_ms * 1000000ull;
  std::vector<int> stale;
  for (const auto& [fd, conn] : conns_) {
    if (now - conn->last_activity_ns > limit) stale.push_back(fd);
  }
  for (const int fd : stale) close_connection(fd);
}

}  // namespace edfkit::net
