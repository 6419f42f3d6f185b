#include "admission/engine.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "obs/obs.hpp"

namespace edfkit {

const char* to_string(PlacementPolicy p) noexcept {
  switch (p) {
    case PlacementPolicy::FirstFit: return "first-fit";
    case PlacementPolicy::WorstFit: return "worst-fit";
    case PlacementPolicy::BestFit: return "best-fit";
  }
  return "?";
}

std::string EngineStats::to_string() const {
  std::ostringstream os;
  os << "mode=" << (global ? "global" : "partitioned")
     << " processors=" << processors << " resident=" << resident
     << " total-utilization=" << total_utilization << "\n"
     << admission.to_string() << "\nshards:";
  for (std::size_t i = 0; i < shard_utilization.size(); ++i) {
    os << " [" << i << "] n=" << shard_resident[i]
       << " U=" << shard_utilization[i];
  }
  return os.str();
}

std::string EngineStats::to_json() const {
  std::ostringstream os;
  os << "{\"admission\":" << admission.to_json()
     << ",\"mode\":\"" << (global ? "global" : "partitioned")
     << "\",\"processors\":" << processors
     << ",\"resident\":" << resident
     << ",\"total_utilization\":" << total_utilization
     << ",\"stats_read_retries\":" << stats_read_retries << ",\"shards\":[";
  for (std::size_t i = 0; i < shard_utilization.size(); ++i) {
    if (i != 0) os << ',';
    os << "{\"resident\":" << shard_resident[i]
       << ",\"utilization\":" << shard_utilization[i] << '}';
  }
  os << "]}";
  return os.str();
}

void AdmissionEngine::Shard::publish() noexcept {
  // The protocol (odd-epoch, fences, lap check) lives in
  // util/seqlock.hpp; this only fills the named buffer.
  epoch.publish([&](std::size_t idx) {
    Header& h = header[idx];
    const AdmissionStats& s = controller.stats();
    h.arrivals.store(s.arrivals, std::memory_order_relaxed);
    h.admitted.store(s.admitted, std::memory_order_relaxed);
    h.rejected.store(s.rejected, std::memory_order_relaxed);
    h.removals.store(s.removals, std::memory_order_relaxed);
    h.groups.store(s.groups, std::memory_order_relaxed);
    h.effort.store(s.total_effort, std::memory_order_relaxed);
    for (std::size_t r = 0; r < kAdmissionRungs; ++r) {
      h.by_rung[r].store(s.by_rung[r], std::memory_order_relaxed);
    }
    h.resident.store(controller.size(), std::memory_order_relaxed);
    h.utilization.store(controller.utilization(),
                        std::memory_order_relaxed);
  });
}

void AdmissionEngine::Shard::read_stats(
    AdmissionStats& stats, std::size_t& resident, double& utilization,
    std::uint64_t& retries) const noexcept {
  (void)epoch.read(
      [&](std::size_t idx) {
        const Header& h = header[idx];
        stats.arrivals = h.arrivals.load(std::memory_order_relaxed);
        stats.admitted = h.admitted.load(std::memory_order_relaxed);
        stats.rejected = h.rejected.load(std::memory_order_relaxed);
        stats.removals = h.removals.load(std::memory_order_relaxed);
        stats.groups = h.groups.load(std::memory_order_relaxed);
        stats.total_effort = h.effort.load(std::memory_order_relaxed);
        for (std::size_t r = 0; r < kAdmissionRungs; ++r) {
          stats.by_rung[r] = h.by_rung[r].load(std::memory_order_relaxed);
        }
        resident = static_cast<std::size_t>(
            h.resident.load(std::memory_order_relaxed));
        utilization = h.utilization.load(std::memory_order_relaxed);
      },
      retries);
}

AdmissionEngine::AdmissionEngine(EngineOptions opts) : opts_(opts) {
  if (opts_.shards == 0) {
    throw std::invalid_argument("AdmissionEngine: shards >= 1 required");
  }
  if (!opts_.admission.platform.uniprocessor()) {
    // Global mode: the m processors are one scheduling domain, so the
    // engine degenerates to a single controller (see EngineOptions).
    opts_.shards = 1;
  }
  shards_.reserve(opts_.shards);
  for (std::size_t i = 0; i < opts_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(opts_.admission));
  }
}

AdmissionEngine::~AdmissionEngine() {
  {
    const std::lock_guard<std::mutex> lock(queue_mu_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

std::vector<std::uint32_t> AdmissionEngine::placement_order(
    double candidate_utilization) const {
  std::vector<std::uint32_t> order(shards_.size());
  std::iota(order.begin(), order.end(), 0u);
  if (opts_.placement == PlacementPolicy::FirstFit) return order;

  std::vector<double> load(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    load[i] = shards_[i]->load.load(std::memory_order_relaxed);
  }
  const auto by_load = [&](bool ascending) {
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return ascending ? load[a] < load[b]
                                        : load[a] > load[b];
                     });
  };
  if (opts_.placement == PlacementPolicy::WorstFit) {
    by_load(/*ascending=*/true);
  } else {
    // BestFit: most-loaded shard whose estimate still leaves room for
    // the candidate first; hopeless-looking shards go last (estimates
    // are only heuristics — the controller still gets the final say).
    by_load(/*ascending=*/false);
    std::stable_partition(order.begin(), order.end(), [&](std::uint32_t i) {
      return load[i] + candidate_utilization <= 1.0;
    });
  }
  return order;
}

PlacementDecision AdmissionEngine::admit(const Task& t) {
  PlacementDecision out;
  obs::EngineInstruments* const m = metrics_;
  const std::uint64_t t0 = m != nullptr ? obs::now_ns() : 0;
  for (const std::uint32_t i : placement_order(t.utilization_double())) {
    Shard& s = *shards_[i];
    AdmissionDecision d;
    const std::uint64_t s0 = m != nullptr ? obs::now_ns() : 0;
    {
      const std::lock_guard<std::mutex> lock(s.mu);
      d = s.controller.try_admit(t);
      s.load.store(s.controller.utilization(), std::memory_order_relaxed);
      s.publish();
    }
    if (m != nullptr) {
      m->shard_decision_ns[i].record(obs::now_ns() - s0);
    }
    ++out.shards_tried;
    out.rung = d.rung;
    out.analysis = d.analysis;
    if (d.admitted) {
      out.admitted = true;
      out.id = {i, d.id};
      break;
    }
  }
  if (m != nullptr) {
    m->placements.add();
    if (!out.admitted) m->placement_rejects.add();
    m->placement_ns.record(obs::now_ns() - t0);
    m->shards_tried.record(out.shards_tried);
  }
  return out;
}

GroupPlacement AdmissionEngine::admit_group(std::span<const Task> group) {
  GroupPlacement out;
  obs::EngineInstruments* const m = metrics_;
  const std::uint64_t t0 = m != nullptr ? obs::now_ns() : 0;
  double group_util = 0.0;
  for (const Task& t : group) group_util += t.utilization_double();
  for (const std::uint32_t i : placement_order(group_util)) {
    Shard& s = *shards_[i];
    GroupDecision d;
    const std::uint64_t s0 = m != nullptr ? obs::now_ns() : 0;
    {
      const std::lock_guard<std::mutex> lock(s.mu);
      d = s.controller.admit_group(group);
      s.load.store(s.controller.utilization(), std::memory_order_relaxed);
      s.publish();
    }
    if (m != nullptr) {
      m->shard_decision_ns[i].record(obs::now_ns() - s0);
    }
    ++out.shards_tried;
    out.rung = d.rung;
    out.analysis = d.analysis;
    if (d.admitted) {
      out.admitted = true;
      out.shard = i;
      out.ids.reserve(d.ids.size());
      for (const TaskId id : d.ids) out.ids.push_back({i, id});
      break;
    }
  }
  if (m != nullptr) {
    m->group_placements.add();
    if (!out.admitted) m->placement_rejects.add();
    m->placement_ns.record(obs::now_ns() - t0);
    m->shards_tried.record(out.shards_tried);
  }
  return out;
}

bool AdmissionEngine::remove(GlobalTaskId id) {
  if (!id.valid() || id.shard >= shards_.size()) return false;
  Shard& s = *shards_[id.shard];
  const std::lock_guard<std::mutex> lock(s.mu);
  const bool removed = s.controller.remove(id.local);
  if (removed) {
    s.load.store(s.controller.utilization(), std::memory_order_relaxed);
    s.publish();
  }
  return removed;
}

std::future<PlacementDecision> AdmissionEngine::submit(Task t) {
  std::packaged_task<PlacementDecision()> job(
      [this, task = std::move(t)] { return admit(task); });
  std::future<PlacementDecision> fut = job.get_future();
  {
    const std::lock_guard<std::mutex> lock(queue_mu_);
    if (stopping_) {
      throw std::runtime_error("AdmissionEngine: submit after shutdown");
    }
    if (workers_.empty()) {
      // Lazily spawn the pool: purely synchronous users (admit/remove
      // only) never pay for parked worker threads.
      std::size_t n = opts_.workers;
      if (n == 0) {
        n = std::max<std::size_t>(1, std::thread::hardware_concurrency());
      }
      workers_.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        workers_.emplace_back([this] { worker_loop(); });
      }
    }
    queue_.push_back(std::move(job));
  }
  queue_cv_.notify_one();
  return fut;
}

void AdmissionEngine::worker_loop() {
  for (;;) {
    std::packaged_task<PlacementDecision()> job;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    job();
  }
}

double AdmissionEngine::utilization_estimate() const noexcept {
  double u = 0.0;
  for (const auto& shard : shards_) {
    u += shard->load.load(std::memory_order_relaxed);
  }
  return u;
}

namespace {

void reset_stats(EngineStats& out, std::size_t shards) {
  out.admission = AdmissionStats{};
  out.resident = 0;
  out.total_utilization = 0.0;
  out.shard_utilization.clear();
  out.shard_resident.clear();
  out.shard_utilization.reserve(shards);
  out.shard_resident.reserve(shards);
}

void merge_shard(EngineStats& out, const AdmissionStats& s,
                 std::size_t resident, double utilization) {
  out.admission.arrivals += s.arrivals;
  out.admission.admitted += s.admitted;
  out.admission.rejected += s.rejected;
  out.admission.removals += s.removals;
  out.admission.groups += s.groups;
  out.admission.total_effort += s.total_effort;
  for (std::size_t r = 0; r < s.by_rung.size(); ++r) {
    out.admission.by_rung[r] += s.by_rung[r];
  }
  out.shard_resident.push_back(resident);
  out.shard_utilization.push_back(utilization);
  out.resident += resident;
  out.total_utilization += utilization;
}

}  // namespace

void AdmissionEngine::stats_into(EngineStats& out) const {
  reset_stats(out, shards_.size());
  out.global = global_mode();
  out.processors = processors();
  std::uint64_t retries = 0;
  for (const auto& shard : shards_) {
    AdmissionStats s;
    std::size_t resident = 0;
    double utilization = 0.0;
    // No mutex: wait-free (retries counts lapped-reader spins).
    shard->read_stats(s, resident, utilization, retries);
    merge_shard(out, s, resident, utilization);
  }
  std::uint64_t total = stats_retries_.load(std::memory_order_relaxed);
  if (retries != 0) {
    total = stats_retries_.fetch_add(retries, std::memory_order_relaxed) +
            retries;
    if (metrics_ != nullptr) metrics_->stats_read_retries.add(retries);
  }
  out.stats_read_retries = total;
}

void AdmissionEngine::stats_locked_into(EngineStats& out) const {
  reset_stats(out, shards_.size());
  out.global = global_mode();
  out.processors = processors();
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mu);
    merge_shard(out, shard->controller.stats(), shard->controller.size(),
                shard->controller.utilization());
  }
  out.stats_read_retries = stats_retries_.load(std::memory_order_relaxed);
}

EngineStats AdmissionEngine::stats() const {
  EngineStats out;
  stats_into(out);
  return out;
}

EngineStats AdmissionEngine::stats_locked() const {
  EngineStats out;
  stats_locked_into(out);
  return out;
}

TaskSet AdmissionEngine::shard_snapshot(std::size_t i) const {
  const Shard& s = *shards_.at(i);
  const std::lock_guard<std::mutex> lock(s.mu);
  return s.controller.snapshot();
}

FeasibilityResult AdmissionEngine::analyze_shard(std::size_t i,
                                                 TestKind kind) const {
  const Shard& s = *shards_.at(i);
  const std::lock_guard<std::mutex> lock(s.mu);
  return s.controller.analyze_resident(kind);
}

void AdmissionEngine::attach_journals(
    std::span<persist::Journal* const> journals) {
  if (journals.size() != shards_.size()) {
    throw std::invalid_argument(
        "AdmissionEngine::attach_journals: one journal per shard required");
  }
  for (auto it = journals.begin(); it != journals.end(); ++it) {
    if (*it != nullptr && std::find(journals.begin(), it, *it) != it) {
      throw std::invalid_argument(
          "AdmissionEngine::attach_journals: shards cannot share a journal");
    }
  }
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& s = *shards_[i];
    const std::lock_guard<std::mutex> lock(s.mu);
    s.controller.attach_journal(journals[i]);
  }
}

void AdmissionEngine::attach_obs(obs::Obs* obs) {
  const bool on = obs != nullptr && obs->config().any();
  metrics_ = on && obs->config().metrics ? obs->engine(shards_.size())
                                         : nullptr;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& s = *shards_[i];
    const std::lock_guard<std::mutex> lock(s.mu);
    s.controller.attach_obs(on ? obs : nullptr, i);
  }
}

}  // namespace edfkit
