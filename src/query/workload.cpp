#include "query/workload.hpp"

#include <sstream>
#include <stdexcept>

namespace edfkit {

const char* to_string(WorkloadKind k) noexcept {
  switch (k) {
    case WorkloadKind::PeriodicTasks: return "tasks";
    case WorkloadKind::EventStreams: return "streams";
  }
  return "?";
}

std::unique_ptr<Workload::Expansion> Workload::fresh_expansion() const {
  return std::holds_alternative<std::vector<EventStreamTask>>(data_)
             ? std::make_unique<Expansion>()
             : nullptr;
}

Workload::Workload(const Workload& o)
    : data_(o.data_), expansion_(fresh_expansion()) {}

Workload& Workload::operator=(const Workload& o) {
  if (this != &o) {
    data_ = o.data_;
    expansion_ = fresh_expansion();
  }
  return *this;
}

// Moves swap with a default (empty periodic) workload: the cache — and
// any expansion already computed — travels along, no allocation happens
// inside noexcept, and the moved-from object is a valid empty workload.
Workload::Workload(Workload&& o) noexcept {
  data_.swap(o.data_);
  expansion_.swap(o.expansion_);
}

Workload& Workload::operator=(Workload&& o) noexcept {
  if (this != &o) {
    data_ = std::move(o.data_);
    expansion_ = std::move(o.expansion_);
    o.data_ = TaskSet{};
    o.expansion_.reset();
  }
  return *this;
}

Workload Workload::event_streams(std::vector<EventStreamTask> streams) {
  for (const EventStreamTask& s : streams) s.validate();
  Workload w;
  w.data_ = std::move(streams);
  w.expansion_ = std::make_unique<Expansion>();
  return w;
}

bool Workload::empty() const noexcept { return source_size() == 0; }

std::size_t Workload::source_size() const noexcept {
  if (const auto* ts = std::get_if<TaskSet>(&data_)) return ts->size();
  return std::get<std::vector<EventStreamTask>>(data_).size();
}

const TaskSet& Workload::tasks() const {
  if (const auto* ts = std::get_if<TaskSet>(&data_)) return *ts;
  Expansion& e = *expansion_;
  std::call_once(e.once, [&] {
    e.tasks = expand(std::get<std::vector<EventStreamTask>>(data_));
  });
  return e.tasks;
}

const std::vector<EventStreamTask>& Workload::streams() const {
  const auto* s = std::get_if<std::vector<EventStreamTask>>(&data_);
  if (s == nullptr) {
    throw std::logic_error("Workload::streams: periodic-task workload");
  }
  return *s;
}

std::string Workload::to_string() const {
  std::ostringstream os;
  if (kind() == WorkloadKind::PeriodicTasks) {
    os << "tasks(n=" << source_size() << ")";
  } else {
    os << "streams(n=" << source_size() << ", expanded=" << tasks().size()
       << ")";
  }
  return os.str();
}

}  // namespace edfkit
