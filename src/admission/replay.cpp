#include "admission/replay.hpp"

#include <algorithm>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "admission/snapshot.hpp"
#include "gen/scenario.hpp"
#include "obs/obs.hpp"

namespace edfkit {
namespace {

/// Fold one finished replay's counters into the replay_* metrics —
/// zero hot-path cost: the driver's own bookkeeping already holds
/// every number.
void record_replay(obs::Obs* obs, std::size_t trace_events,
                   const ReplayStats& out) {
  if (obs == nullptr || !obs->config().metrics) return;
  obs::ReplayInstruments* const r = obs->replay();
  r->events.add(trace_events);
  r->arrivals.add(out.arrivals);
  r->departures.add(out.departures);
  r->crashes.add(out.crashes);
  r->snapshots.add(out.snapshots);
}

/// Refill the arrival pool by flattening one scenario set.
void refill_pool(std::vector<Task>& pool, Rng& rng, const ChurnConfig& cfg) {
  TaskSet set;
  switch (cfg.family) {
    case ChurnConfig::Family::Small:
      set = draw_small_set(rng, cfg.pool_utilization);
      break;
    case ChurnConfig::Family::Paper:
      set = draw_fig8_set(rng, cfg.pool_utilization);
      break;
    case ChurnConfig::Family::Fixed: {
      GeneratorConfig g;
      g.tasks = cfg.fixed_tasks;
      g.utilization = cfg.pool_utilization;
      set = generate_task_set(rng, g);
      break;
    }
  }
  pool.insert(pool.end(), set.begin(), set.end());
}

}  // namespace

void ChurnConfig::validate() const {
  if (depart_probability < 0.0 || depart_probability > 1.0) {
    throw std::invalid_argument(
        "ChurnConfig: depart_probability in [0,1] required");
  }
  if (!(pool_utilization > 0.0)) {
    throw std::invalid_argument(
        "ChurnConfig: pool_utilization > 0 required");
  }
  if (group_probability < 0.0 || group_probability > 1.0) {
    throw std::invalid_argument(
        "ChurnConfig: group_probability in [0,1] required");
  }
  if (group_probability > 0.0 && group_size == 0) {
    throw std::invalid_argument("ChurnConfig: group_size >= 1 required");
  }
  if (crash_probability < 0.0 || crash_probability > 1.0) {
    throw std::invalid_argument(
        "ChurnConfig: crash_probability in [0,1] required");
  }
}

std::vector<TraceEvent> generate_churn_trace(Rng& rng,
                                             const ChurnConfig& cfg) {
  cfg.validate();
  std::vector<TraceEvent> trace;
  trace.reserve(cfg.warmup_arrivals + cfg.events);
  std::vector<Task> pool;
  std::size_t pool_next = 0;
  std::vector<std::uint64_t> live;  // keys arrivable to a departure
  std::uint64_t next_key = 1;

  const auto draw_task = [&]() -> const Task& {
    if (pool_next == pool.size()) refill_pool(pool, rng, cfg);
    return pool[pool_next++];
  };
  const auto arrive = [&] {
    TraceEvent ev;
    ev.key = next_key++;
    if (cfg.group_probability > 0.0 &&
        rng.bernoulli(cfg.group_probability)) {
      ev.op = TraceOp::ArriveGroup;
      ev.group.reserve(cfg.group_size);
      for (std::size_t i = 0; i < cfg.group_size; ++i) {
        ev.group.push_back(draw_task());
      }
    } else {
      ev.op = TraceOp::Arrive;
      ev.task = draw_task();
    }
    live.push_back(ev.key);
    trace.push_back(std::move(ev));
  };

  for (std::size_t i = 0; i < cfg.warmup_arrivals; ++i) arrive();
  for (std::size_t i = 0; i < cfg.events; ++i) {
    if (cfg.crash_probability > 0.0 &&
        rng.bernoulli(cfg.crash_probability)) {
      TraceEvent ev;
      ev.op = TraceOp::Crash;
      trace.push_back(std::move(ev));
      continue;
    }
    if (!live.empty() && rng.bernoulli(cfg.depart_probability)) {
      const std::size_t pick = static_cast<std::size_t>(
          rng.uniform_time(0, static_cast<Time>(live.size()) - 1));
      TraceEvent ev;
      ev.op = TraceOp::Depart;
      ev.key = live[pick];
      live[pick] = live.back();
      live.pop_back();
      trace.push_back(ev);
    } else {
      arrive();
    }
  }
  return trace;
}

std::string ReplayStats::to_string() const {
  std::ostringstream os;
  os << "arrivals=" << arrivals << " admitted=" << admitted << " rejected="
     << rejected << " groups=" << groups << " departures=" << departures
     << " (skipped " << skipped_departures << ") peak-resident="
     << peak_resident
     << " peak-U=" << peak_utilization << " effort=" << total_effort
     << " rungs[";
  for (std::size_t i = 0; i < by_rung.size(); ++i) {
    if (i != 0) os << " ";
    os << edfkit::to_string(static_cast<AdmissionRung>(i)) << "="
       << by_rung[i];
  }
  os << "]";
  if (crashes != 0) os << " crashes=" << crashes;
  if (snapshots != 0) os << " snapshots=" << snapshots;
  return os.str();
}

namespace {

/// Controller replay body shared by the plain and persistence-enabled
/// entries: `crash` handles TraceOp::Crash, `after_event` runs once per
/// non-crash event (the snapshot cadence hook). Resident counts derive
/// from the replay's own bookkeeping.
template <typename CrashFn, typename AfterFn>
ReplayStats replay_controller(const std::vector<TraceEvent>& trace,
                              AdmissionController& controller,
                              CrashFn crash, AfterFn after_event) {
  ReplayStats out;
  std::unordered_map<std::uint64_t, std::vector<TaskId>> live;
  std::size_t resident = 0;
  for (const TraceEvent& ev : trace) {
    if (ev.op == TraceOp::Crash) {
      ++out.crashes;
      crash();
      continue;
    }
    if (ev.op != TraceOp::Depart) {
      const bool group = ev.op == TraceOp::ArriveGroup;
      const std::size_t tasks = group ? ev.group.size() : 1;
      out.arrivals += tasks;
      if (group) ++out.groups;
      bool admitted = false;
      AdmissionRung rung{};
      std::uint64_t effort = 0;
      if (group) {
        GroupDecision g = controller.admit_group(ev.group);
        admitted = g.admitted;
        rung = g.rung;
        effort = g.analysis.effort();
        if (admitted) live.emplace(ev.key, std::move(g.ids));
      } else {
        const AdmissionDecision d = controller.try_admit(ev.task);
        admitted = d.admitted;
        rung = d.rung;
        effort = d.analysis.effort();
        if (admitted) live.emplace(ev.key, std::vector<TaskId>{d.id});
      }
      after_event();
      ++out.by_rung[static_cast<std::size_t>(rung)];
      out.total_effort += effort;
      (admitted ? out.admitted : out.rejected) += tasks;
      if (admitted) {
        resident += tasks;
        out.peak_utilization =
            std::max(out.peak_utilization, controller.utilization());
      }
    } else {
      ++out.departures;
      const auto it = live.find(ev.key);
      std::size_t gone = 0;
      if (it != live.end()) {
        gone = controller.remove_group(it->second);
        live.erase(it);
      }
      after_event();
      if (gone == 0) {
        ++out.skipped_departures;
      } else {
        resident -= gone;
      }
    }
    out.peak_resident = std::max(out.peak_resident, resident);
  }
  return out;
}

}  // namespace

ReplayStats replay_trace(const std::vector<TraceEvent>& trace,
                         AdmissionController& controller, obs::Obs* obs) {
  const ReplayStats out =
      replay_controller(trace, controller, [] {}, [] {});
  record_replay(obs, trace.size(), out);
  return out;
}

ReplayStats replay_trace(const std::vector<TraceEvent>& trace,
                         AdmissionController& controller,
                         const ReplayPersistence& persistence,
                         obs::Obs* obs) {
  persist::JournalOptions jopts;
  jopts.fsync = persistence.fsync;
  std::optional<persist::Journal> journal;
  const auto open_journal = [&] {
    if (persistence.journal_path.empty()) return;
    journal.emplace(
        persist::Journal::open_append(persistence.journal_path, jopts));
    if (obs != nullptr && obs->config().metrics) {
      journal->attach_obs(obs->journal());
    }
    controller.attach_journal(&*journal);
  };
  open_journal();

  std::size_t since_snapshot = 0;
  std::uint64_t snapshots = 0;
  const auto maybe_snapshot = [&] {
    if (persistence.snapshot_path.empty() ||
        persistence.snapshot_every == 0) {
      return;
    }
    if (++since_snapshot < persistence.snapshot_every) return;
    since_snapshot = 0;
    save_snapshot(controller, persistence.snapshot_path,
                  journal.has_value() ? journal->lsn() : 0);
    ++snapshots;
  };

  ReplayStats out;
  try {
    out = replay_controller(
        trace, controller,
        [&] {
          // Simulated process death: drop the journal handle, recover
          // the controller in place from the durable artifacts, and
          // resume. Recovered ids are bit-identical, so the
          // caller-visible key bookkeeping stays valid across the
          // crash.
          controller.attach_journal(nullptr);
          journal.reset();
          (void)recover(controller, persistence.snapshot_path,
                        persistence.journal_path);
          open_journal();
        },
        maybe_snapshot);
  } catch (...) {
    // The journal dies with this scope — never leave the controller
    // holding a pointer to it.
    controller.attach_journal(nullptr);
    throw;
  }
  out.snapshots = snapshots;
  controller.attach_journal(nullptr);
  record_replay(obs, trace.size(), out);
  return out;
}

}  // namespace edfkit
