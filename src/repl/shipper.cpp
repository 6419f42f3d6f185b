#include "repl/shipper.hpp"

#include <chrono>
#include <filesystem>
#include <stdexcept>

#include "admission/snapshot.hpp"
#include "fault/fault.hpp"
#include "net/protocol.hpp"
#include "obs/obs.hpp"
#include "persist/format.hpp"

namespace edfkit::repl {
namespace {

constexpr std::size_t kMaxPendingDigests = 256;

void sleep_ms(std::uint64_t ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

}  // namespace

Shipper::Shipper(ShipperOptions opts, obs::Obs* obs)
    : opts_(std::move(opts)) {
  if (obs != nullptr && obs->config().metrics) ins_ = obs->repl();
}

Shipper::~Shipper() { stop(); }

void Shipper::start() {
  if (started_) return;
  started_ = true;
  stop_.store(false, std::memory_order_relaxed);
  thread_ = std::thread([this] { run(); });
}

void Shipper::stop() {
  if (!started_) return;
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
  started_ = false;
}

void Shipper::push_digest(const std::string& tenant, std::uint64_t lsn,
                          std::uint32_t digest) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (pending_digests_.size() >= kMaxPendingDigests) {
    pending_digests_.pop_front();
  }
  pending_digests_.emplace_back(tenant, lsn, digest);
}

std::uint64_t Shipper::acked_lsn(const std::string& tenant) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = acked_.find(tenant);
  return it == acked_.end() ? 0 : it->second;
}

std::uint64_t Shipper::errors() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return errors_;
}

void Shipper::note_ack(const TenantShip& t) {
  const std::lock_guard<std::mutex> lock(mu_);
  acked_[t.name] = t.acked;
}

void Shipper::discover_tenants() {
  std::error_code ec;
  std::filesystem::directory_iterator it(opts_.data_dir, ec);
  if (ec) return;  // data dir may not exist yet
  for (const auto& entry : it) {
    if (!entry.is_regular_file(ec)) continue;
    const std::filesystem::path& p = entry.path();
    if (p.extension() != ".wal") continue;
    const std::string name = p.stem().string();
    if (name.empty() || tenants_.count(name) != 0) continue;
    TenantShip t;
    t.name = name;
    t.wal_path = p.string();
    tenants_.emplace(name, std::move(t));
  }
}

void Shipper::handshake(TenantShip& t) {
  net::NetRequest req;
  req.hdr.op = static_cast<std::uint8_t>(net::NetOp::ReplHello);
  req.hdr.request_id = next_request_id_++;
  req.tenant = t.name;
  req.durability = static_cast<std::uint8_t>(opts_.fsync);
  req.fsync_interval = opts_.fsync_interval;
  const net::NetResponse resp = conn_.call(std::move(req));
  if (resp.hdr.status != static_cast<std::uint8_t>(net::NetStatus::Ok)) {
    throw std::runtime_error("REPL_HELLO for '" + t.name + "' answered " +
                             net::to_string(static_cast<net::NetStatus>(
                                 resp.hdr.status)));
  }
  t.acked = resp.lsn;
  t.hello_done = true;
  note_ack(t);
  if ((resp.repl_flags &
       (net::kReplNeedSnapshot | net::kReplDiverged)) != 0) {
    (void)seed_tenant(t);
    return;
  }
  if (!t.tailer || t.tailer->next_lsn() != t.acked) {
    t.tailer = std::make_unique<persist::JournalTailer>(t.wal_path, t.acked);
  }
}

bool Shipper::seed_tenant(TenantShip& t) {
  const std::string snap_path =
      opts_.data_dir + "/" + t.name + ".snap";
  const std::string dedup_path =
      opts_.data_dir + "/" + t.name + ".dedup";
  if (!persist::file_exists(snap_path)) {
    // A new primary tenant creates its .wal before its first checkpoint
    // writes the .snap: handshake again on a later pass, and seed then.
    t.hello_done = false;
    t.tailer.reset();
    return false;
  }
  net::NetRequest req;
  req.hdr.op = static_cast<std::uint8_t>(net::NetOp::ReplSnapshot);
  req.hdr.request_id = next_request_id_++;
  req.tenant = t.name;
  req.repl_snapshot = persist::read_file(snap_path);
  req.repl_lsn = read_snapshot_meta(req.repl_snapshot).journal_lsn;
  if (persist::file_exists(dedup_path)) {
    req.repl_dedup = persist::read_file(dedup_path);
  }
  const std::uint64_t seed_lsn = req.repl_lsn;
  const net::NetResponse resp = conn_.call(std::move(req));
  if (resp.hdr.status != static_cast<std::uint8_t>(net::NetStatus::Ok)) {
    throw std::runtime_error("REPL_SNAPSHOT for '" + t.name +
                             "' answered " +
                             net::to_string(static_cast<net::NetStatus>(
                                 resp.hdr.status)));
  }
  if (ins_ != nullptr) ins_->seeds_sent.add();
  t.acked = seed_lsn;
  // Digests queued before the seed refer to pre-seed state; drop them.
  t.digests.clear();
  t.tailer = std::make_unique<persist::JournalTailer>(t.wal_path, seed_lsn);
  note_ack(t);
  return true;
}

bool Shipper::ship_tenant(TenantShip& t) {
  if (t.dead) return false;
  if (!t.hello_done) handshake(t);
  if (t.dead || !t.tailer) return false;

  // Collect a batch of consecutive records from the acked LSN.
  std::vector<std::vector<std::uint8_t>> batch;
  std::size_t batch_bytes = 0;
  const std::uint64_t first_lsn = t.tailer->next_lsn();
  persist::TailedRecord rec;
  while (batch.size() < opts_.max_batch_records &&
         batch_bytes < opts_.max_batch_bytes) {
    persist::TailStatus st;
    try {
      st = t.tailer->poll(rec);
    } catch (const persist::PersistError&) {
      // The primary's own journal is unreadable past this point —
      // shipping it would be garbage. Disable this tenant; serving and
      // the other tenants are unaffected.
      t.dead = true;
      {
        const std::lock_guard<std::mutex> lock(mu_);
        ++errors_;
      }
      if (ins_ != nullptr) ins_->ship_errors.add();
      return false;
    }
    if (st == persist::TailStatus::RotatedPast) {
      // The records we still needed were compacted away — re-seed from
      // the checkpoint that replaced them.
      return seed_tenant(t);
    }
    if (st == persist::TailStatus::CaughtUp) break;
    batch_bytes += rec.payload.size();
    batch.push_back(std::move(rec.payload));
  }

  // Pull this tenant's digests out of the shared queue, then attach
  // the first one the batch (or the current position) satisfies.
  {
    const std::lock_guard<std::mutex> lock(mu_);
    for (auto it = pending_digests_.begin();
         it != pending_digests_.end();) {
      if (std::get<0>(*it) == t.name) {
        t.digests.emplace_back(std::get<1>(*it), std::get<2>(*it));
        it = pending_digests_.erase(it);
      } else {
        ++it;
      }
    }
  }
  while (!t.digests.empty() && t.digests.front().first < first_lsn) {
    t.digests.pop_front();  // stale: the follower is already past it
  }
  std::uint64_t digest_lsn = 0;
  std::uint32_t digest = 0;
  if (!t.digests.empty() &&
      t.digests.front().first <= first_lsn + batch.size()) {
    digest_lsn = t.digests.front().first;
    digest = t.digests.front().second;
    t.digests.pop_front();
  }

  if (batch.empty() && digest_lsn == 0) return false;  // caught up, idle

  if (!batch.empty()) {
    fault::FailPoint& fp = EDFKIT_FAULT_POINT(fault::kReplCorruptSite);
    if (fp.armed() && fp.consume().fire) {
      // Flip one byte AFTER the journal read: the wire CRC is computed
      // over the corrupt payload, so only the digest exchange can
      // catch it — exactly the failure replication must detect.
      batch.back().back() ^= 0x01;
    }
  }

  net::NetRequest req;
  req.hdr.op = static_cast<std::uint8_t>(net::NetOp::ReplAppend);
  req.hdr.request_id = next_request_id_++;
  req.tenant = t.name;
  req.repl_lsn = first_lsn;
  const std::size_t shipped = batch.size();
  req.repl_records = std::move(batch);
  req.digest_lsn = digest_lsn;
  req.digest = digest;
  const net::NetResponse resp = conn_.call(std::move(req));

  if (ins_ != nullptr) {
    ins_->ship_batches.add();
    ins_->shipped.add(shipped);
    if (digest_lsn != 0) ins_->digests_sent.add();
  }
  if ((resp.repl_flags &
       (net::kReplNeedSnapshot | net::kReplDiverged)) != 0) {
    if (ins_ != nullptr &&
        (resp.repl_flags & net::kReplDiverged) != 0) {
      ins_->digest_mismatches.add();
    }
    return seed_tenant(t);
  }
  if (resp.hdr.status != static_cast<std::uint8_t>(net::NetStatus::Ok)) {
    // Unavailable (follower tenant quarantined) or a protocol-level
    // refusal: drop the handshake and retry this tenant next pass.
    t.hello_done = false;
    return false;
  }
  if (ins_ != nullptr && resp.lsn > t.acked) {
    ins_->acked.add(resp.lsn - t.acked);
  }
  t.acked = resp.lsn;
  note_ack(t);
  if (ins_ != nullptr) {
    ins_->lag.set(static_cast<std::int64_t>(t.tailer->next_lsn()) -
                  static_cast<std::int64_t>(t.acked));
  }
  return true;
}

void Shipper::run() {
  while (!stop_.load(std::memory_order_relaxed)) {
    if (!conn_.connected()) {
      try {
        conn_ = net::Client::connect(opts_.host, opts_.port,
                                     opts_.connect_timeout_ms);
        conn_.set_timeouts(opts_.io_timeout_ms, opts_.io_timeout_ms);
        for (auto& [name, t] : tenants_) t.hello_done = false;
      } catch (const std::exception&) {
        {
          const std::lock_guard<std::mutex> lock(mu_);
          ++errors_;
        }
        if (ins_ != nullptr) ins_->ship_errors.add();
        sleep_ms(opts_.reconnect_backoff_ms);
        continue;
      }
    }
    discover_tenants();
    bool progressed = false;
    try {
      for (auto& [name, t] : tenants_) progressed |= ship_tenant(t);
    } catch (const std::exception&) {
      // Transport failure or a refused repl op: reconnect from scratch
      // (REPL_HELLO re-learns every follower window — resending an
      // already-applied suffix is idempotent on the follower side).
      conn_.close();
      {
        const std::lock_guard<std::mutex> lock(mu_);
        ++errors_;
      }
      if (ins_ != nullptr) ins_->ship_errors.add();
      sleep_ms(opts_.reconnect_backoff_ms);
      continue;
    }
    if (!progressed) sleep_ms(opts_.poll_interval_ms);
  }
}

}  // namespace edfkit::repl
