#include "net/tenant.hpp"

#include <filesystem>
#include <random>
#include <stdexcept>

#include "admission/snapshot.hpp"
#include "obs/obs.hpp"
#include "persist/format.hpp"

namespace edfkit::net {
namespace {

/// Dedup sidecar section ids (persist/format.hpp container).
constexpr std::uint32_t kSecDedupMeta = 1;
constexpr std::uint32_t kSecDedupSessions = 2;

std::uint64_t mint_epoch() {
  std::random_device rd;
  std::uint64_t e = (static_cast<std::uint64_t>(rd()) << 32) | rd();
  // splitmix64 finalizer: random_device may be weak on exotic
  // platforms; the mix keeps the nonce well-spread regardless.
  e += 0x9e3779b97f4a7c15ull;
  e = (e ^ (e >> 30)) * 0xbf58476d1ce4e5b9ull;
  e = (e ^ (e >> 27)) * 0x94d049bb133111ebull;
  return e ^ (e >> 31);
}

}  // namespace

NetResponse make_admit_response(std::uint64_t request_id,
                                std::uint8_t flags,
                                const AdmissionDecision& d) {
  NetResponse resp;
  resp.hdr.op = static_cast<std::uint8_t>(NetOp::Admit);
  resp.hdr.request_id = request_id;
  resp.hdr.status = static_cast<std::uint8_t>(d.admitted ? NetStatus::Ok
                                                         : NetStatus::Rejected);
  resp.id = d.id;
  resp.rung = static_cast<std::uint8_t>(d.rung);
  resp.verdict = static_cast<std::uint8_t>(d.analysis.verdict);
  if ((flags & kFlagWantCertificate) != 0 && d.certificate.present()) {
    resp.hdr.flags |= kFlagHasCertificate;
    resp.certificate = d.certificate;
  }
  return resp;
}

NetResponse make_admit_group_response(std::uint64_t request_id,
                                      std::uint8_t flags,
                                      const GroupDecision& d) {
  NetResponse resp;
  resp.hdr.op = static_cast<std::uint8_t>(NetOp::AdmitGroup);
  resp.hdr.request_id = request_id;
  resp.hdr.status = static_cast<std::uint8_t>(d.admitted ? NetStatus::Ok
                                                         : NetStatus::Rejected);
  resp.ids = d.ids;
  resp.rung = static_cast<std::uint8_t>(d.rung);
  resp.verdict = static_cast<std::uint8_t>(d.analysis.verdict);
  if ((flags & kFlagWantCertificate) != 0 && d.certificate.present()) {
    resp.hdr.flags |= kFlagHasCertificate;
    resp.certificate = d.certificate;
  }
  return resp;
}

NetResponse make_remove_response(NetOp op, std::uint64_t request_id,
                                 std::uint64_t removed) {
  NetResponse resp;
  resp.hdr.op = static_cast<std::uint8_t>(op);
  resp.hdr.request_id = request_id;
  resp.removed = removed;
  return resp;
}

/// Rebuilds the per-client dedup window while recover() replays the
/// journal: a ClientMark record arms (client, request_id, flags); the
/// next operation's outcome is encoded through the same make_*_response
/// helpers the serving path uses and recorded — bit-identical to the
/// response originally sent. A mark with no following operation (crash
/// between the two appends) is simply superseded or dropped: the op
/// never committed, so the client's retry must re-execute.
class DedupRebuild final : public ReplayObserver {
 public:
  explicit DedupRebuild(Tenant& t) : t_(t) {}

  void on_mark(const std::string& client, std::uint64_t request_id,
               std::uint8_t flags) override {
    client_ = client;
    request_id_ = request_id;
    flags_ = flags;
    armed_ = true;
  }
  void on_admit(const AdmissionDecision& d) override {
    if (armed_) finish(make_admit_response(request_id_, flags_, d));
  }
  void on_admit_group(const GroupDecision& d) override {
    if (armed_) finish(make_admit_group_response(request_id_, flags_, d));
  }
  void on_remove(TaskId /*id*/, bool removed) override {
    if (armed_) {
      finish(make_remove_response(NetOp::Remove, request_id_,
                                  removed ? 1 : 0));
    }
  }
  void on_remove_group(std::span<const TaskId> /*ids*/,
                       std::size_t removed) override {
    if (armed_) {
      finish(make_remove_response(NetOp::RemoveGroup, request_id_,
                                  removed));
    }
  }

 private:
  void finish(const NetResponse& resp) {
    armed_ = false;
    t_.record_applied(client_, request_id_, encode_response(resp));
  }

  Tenant& t_;
  std::string client_;
  std::uint64_t request_id_ = 0;
  std::uint8_t flags_ = 0;
  bool armed_ = false;
};

Tenant::Tenant(std::string name, const TenantOptions& opts,
               persist::FsyncPolicy fsync, std::uint64_t fsync_interval,
               bool certified, obs::Obs* obs, std::uint32_t platform_m)
    : name_(std::move(name)),
      ctl_([&] {
        AdmissionOptions a = opts.admission;
        a.return_certificate = a.return_certificate || certified;
        a.platform.m = platform_m;  // > 1 selects global admission mode
        return AdmissionController(a);
      }()),
      fsync_(fsync),
      fsync_interval_(fsync_interval),
      obs_(obs),
      checkpoint_every_(opts.checkpoint_every),
      dedup_window_(opts.dedup_window),
      epoch_(mint_epoch()) {
  standby_ = opts.standby;
  if (standby_) standby_rebuild_ = std::make_unique<DedupRebuild>(*this);
  if (!opts.data_dir.empty()) {
    std::filesystem::create_directories(opts.data_dir);
    snapshot_path_ = opts.data_dir + "/" + name_ + ".snap";
    journal_path_ = opts.data_dir + "/" + name_ + ".wal";
    dedup_path_ = opts.data_dir + "/" + name_ + ".dedup";
    open_artifacts();
    try {
      checkpoint_if_unsaved();
    } catch (const persist::PersistError& e) {
      // As for a failed periodic checkpoint: the tenant serves from
      // quarantine, and the re-probe retries the checkpoint.
      quarantine(e);
    }
  }
  if (obs != nullptr) ctl_.attach_obs(obs);
}

Tenant::~Tenant() {
  ctl_.attach_journal(nullptr);
  if (journal_) journal_->attach_obs(nullptr);
}

void Tenant::open_artifacts() {
  // Recover first (tolerates missing artifacts — a clean cold start),
  // then open the journal for append; recovery itself must not
  // re-journal the replayed operations. The dedup sidecar seeds the
  // sessions; the replay re-applies marks idempotently on top (the
  // sidecar is written before the snapshot, so it is never behind it).
  sessions_.clear();
  load_dedup();
  DedupRebuild rebuild(*this);
  seeded_ =
      recover(ctl_, snapshot_path_, journal_path_, &rebuild).snapshot_loaded;
  persist::JournalOptions jopts;
  jopts.fsync = fsync_;
  jopts.fsync_interval = fsync_interval_;
  journal_.emplace(persist::Journal::open_append(journal_path_, jopts));
  if (obs_ != nullptr && obs_->config().metrics) {
    journal_->attach_obs(obs_->journal());
  }
  // A standby's controller never journals its own operations — the WAL
  // is written by apply_replicated() with the primary's exact bytes.
  ctl_.attach_journal(standby_ ? nullptr : &*journal_);
  repl_lsn_ = journal_->lsn();
  ops_since_checkpoint_ = 0;
}

void Tenant::apply_replicated(std::span<const std::uint8_t> payload) {
  // WAL-before-apply, and byte-identical to the primary's journal: a
  // follower crash recovers through the ordinary open_artifacts() path
  // and lands exactly where the primary's record stream left it.
  if (journal_) (void)journal_->append(payload);
  apply_record(ctl_, payload, standby_rebuild_.get());
  ++repl_lsn_;
  const bool is_mark =
      !payload.empty() &&
      payload[0] == static_cast<std::uint8_t>(JournalOp::ClientMark);
  if (!is_mark) on_operation();
}

void Tenant::seed_from(std::span<const std::uint8_t> snapshot_bytes,
                       std::span<const std::uint8_t> dedup_bytes,
                       std::uint64_t lsn) {
  ctl_.attach_journal(nullptr);
  if (journal_) {
    journal_->attach_obs(nullptr);
    journal_.reset();
  }
  sessions_.clear();
  if (!snapshot_path_.empty()) {
    // Persist the primary's artifacts verbatim first: a follower crash
    // after the seed recovers to exactly the seeded state.
    persist::write_file_atomic(snapshot_path_, snapshot_bytes);
    if (dedup_bytes.empty()) {
      std::error_code ec;
      std::filesystem::remove(dedup_path_, ec);
    } else {
      persist::write_file_atomic(dedup_path_, dedup_bytes);
    }
  }
  (void)load_snapshot_bytes(
      ctl_, std::vector<std::uint8_t>(snapshot_bytes.begin(),
                                      snapshot_bytes.end()));
  seeded_ = true;
  if (!dedup_bytes.empty()) {
    load_dedup_bytes(std::vector<std::uint8_t>(dedup_bytes.begin(),
                                               dedup_bytes.end()));
  }
  if (!journal_path_.empty()) {
    persist::JournalOptions jopts;
    jopts.fsync = fsync_;
    jopts.fsync_interval = fsync_interval_;
    journal_.emplace(persist::Journal::create(journal_path_, jopts, lsn));
    if (obs_ != nullptr && obs_->config().metrics) {
      journal_->attach_obs(obs_->journal());
    }
    if (!standby_) ctl_.attach_journal(&*journal_);
  }
  repl_lsn_ = lsn;
  ops_since_checkpoint_ = 0;
  diverged_ = false;
  diverged_reason_.clear();
  quarantined_ = false;
  quarantine_retryable_ = true;
  quarantine_reason_.clear();
}

void Tenant::promote() {
  if (!standby_) return;
  standby_ = false;
  if (journal_ && !quarantined_) ctl_.attach_journal(&*journal_);
  // A fresh epoch tells retrying clients the serving identity changed:
  // they re-HELLO, learn highest_applied, and re-drive the gap.
  epoch_ = mint_epoch();
}

void Tenant::mark_diverged(std::string reason) {
  diverged_ = true;
  diverged_reason_ = std::move(reason);
}

void Tenant::on_operation() {
  if (!journal_ || checkpoint_every_ == 0) return;
  if (++ops_since_checkpoint_ < checkpoint_every_) return;
  checkpoint();
}

void Tenant::checkpoint() {
  if (!journal_) return;
  const std::uint64_t lsn = journal_->lsn();
  // Sidecar before snapshot (see save_dedup()); rotate last, so a
  // failure anywhere leaves snapshot_lsn within the journal window.
  save_dedup(lsn);
  save_snapshot(ctl_, snapshot_path_, lsn);
  (void)journal_->rotate(lsn);
  ops_since_checkpoint_ = 0;
}

void Tenant::checkpoint_if_unsaved() {
  if (!standby_ && !persist::file_exists(snapshot_path_)) checkpoint();
}

void Tenant::flush() {
  if (journal_) journal_->sync();
}

void Tenant::quarantine(const persist::PersistError& e) {
  ctl_.attach_journal(nullptr);
  if (journal_) {
    journal_->attach_obs(nullptr);
    journal_.reset();  // the handle may be poisoned; recovery reopens
  }
  quarantined_ = true;
  quarantine_retryable_ = e.retryable();
  quarantine_reason_ = e.what();
}

bool Tenant::try_recover() {
  if (!quarantined_) return true;
  if (!quarantine_retryable_) return false;
  try {
    open_artifacts();
    checkpoint_if_unsaved();
  } catch (const persist::PersistError& e) {
    // Still sick. A partial open_artifacts() may have mutated the
    // controller, but the quarantine keeps every op away from it, and
    // the next probe rebuilds from disk again.
    quarantine_retryable_ = e.retryable();
    quarantine_reason_ = e.what();
    ctl_.attach_journal(nullptr);
    if (journal_) {
      journal_->attach_obs(nullptr);
      journal_.reset();
    }
    return false;
  }
  quarantined_ = false;
  quarantine_retryable_ = true;
  quarantine_reason_.clear();
  return true;
}

std::uint64_t Tenant::highest_applied(
    const std::string& client) const noexcept {
  const auto it = sessions_.find(client);
  return it == sessions_.end() ? 0 : it->second.highest_applied;
}

Tenant::DedupResult Tenant::dedup_lookup(
    const std::string& client, std::uint64_t request_id,
    const std::vector<std::uint8_t>** out) const noexcept {
  const auto it = sessions_.find(client);
  if (it == sessions_.end() || request_id > it->second.highest_applied) {
    return DedupResult::Miss;
  }
  for (const auto& [id, bytes] : it->second.window) {
    if (id == request_id) {
      *out = &bytes;
      return DedupResult::Hit;
    }
  }
  return DedupResult::Evicted;
}

void Tenant::append_mark(const std::string& client,
                         std::uint64_t request_id, std::uint8_t flags) {
  if (!journal_) return;
  (void)journal_->append(
      journal_codec::client_mark(client, request_id, flags));
}

void Tenant::record_applied(const std::string& client,
                            std::uint64_t request_id,
                            std::vector<std::uint8_t> response) {
  ClientSession& s = sessions_[client];
  if (request_id <= s.highest_applied) return;  // replay idempotence
  s.highest_applied = request_id;
  s.window.emplace_back(request_id, std::move(response));
  while (s.window.size() > dedup_window_) s.window.pop_front();
}

void Tenant::save_dedup(std::uint64_t lsn) const {
  // Nothing to persist and nothing stale on disk: skip the write.
  if (sessions_.empty() && !persist::file_exists(dedup_path_)) return;
  persist::SectionWriter sw;
  ByteWriter& meta = sw.begin(kSecDedupMeta);
  meta.u64(lsn);
  meta.u64(sessions_.size());
  ByteWriter& body = sw.begin(kSecDedupSessions);
  for (const auto& [client, s] : sessions_) {
    body.str(client);
    body.u64(s.highest_applied);
    body.u32(static_cast<std::uint32_t>(s.window.size()));
    for (const auto& [id, bytes] : s.window) {
      body.u64(id);
      body.blob(bytes);
    }
  }
  sw.finish(dedup_path_);
}

void Tenant::load_dedup() {
  if (dedup_path_.empty() || !persist::file_exists(dedup_path_)) return;
  load_dedup_bytes(persist::read_file(dedup_path_));
}

void Tenant::load_dedup_bytes(std::vector<std::uint8_t> bytes) {
  const persist::SectionReader sr(std::move(bytes));
  try {
    ByteReader meta = sr.section(kSecDedupMeta);
    (void)meta.u64();  // sidecar lsn (diagnostic; replay is idempotent)
    const std::uint64_t count = meta.u64();
    ByteReader r = sr.section(kSecDedupSessions);
    for (std::uint64_t i = 0; i < count; ++i) {
      ClientSession s;
      const std::string client = r.str();
      s.highest_applied = r.u64();
      const std::uint32_t entries = r.u32();
      for (std::uint32_t k = 0; k < entries; ++k) {
        const std::uint64_t id = r.u64();
        s.window.emplace_back(id, r.blob());
      }
      sessions_.emplace(client, std::move(s));
    }
  } catch (const std::out_of_range&) {
    throw persist::PersistError(
        persist::PersistErrc::Truncated,
        dedup_path_.empty() ? "dedup bytes" : dedup_path_);
  }
}

bool valid_tenant_name(const std::string& name) noexcept {
  if (name.empty() || name.size() > 64) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

TenantTable::TenantTable(TenantOptions opts, obs::Obs* obs)
    : opts_(std::move(opts)), obs_(obs) {}

Tenant& TenantTable::get_or_create(const std::string& name,
                                   persist::FsyncPolicy fsync,
                                   std::uint64_t fsync_interval,
                                   bool certified,
                                   std::uint32_t platform_m) {
  if (!valid_tenant_name(name)) {
    throw std::invalid_argument("invalid tenant name");
  }
  auto it = tenants_.find(name);
  if (it == tenants_.end()) {
    it = tenants_
             .emplace(name, std::make_unique<Tenant>(
                                name, opts_, fsync, fsync_interval,
                                certified, obs_, platform_m))
             .first;
  }
  return *it->second;
}

Tenant* TenantTable::find(const std::string& name) noexcept {
  const auto it = tenants_.find(name);
  return it == tenants_.end() ? nullptr : it->second.get();
}

void TenantTable::flush_all() {
  for (auto& [name, tenant] : tenants_) tenant->flush();
}

}  // namespace edfkit::net
