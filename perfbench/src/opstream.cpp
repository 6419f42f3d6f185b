#include "opstream.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "gen/taskset_gen.hpp"

namespace perfbench {

namespace net = edfkit::net;

std::size_t Op::offered() const noexcept {
  if (kind == net::NetOp::Admit) return 1;
  if (kind == net::NetOp::AdmitGroup) return group.size();
  return 0;
}

net::NetRequest to_request(const Op& op) {
  net::NetRequest req;
  req.hdr.op = static_cast<std::uint8_t>(op.kind);
  switch (op.kind) {
    case net::NetOp::Admit:
      req.task = op.task;
      break;
    case net::NetOp::AdmitGroup:
      req.group = op.group;
      break;
    default:
      req.ids = op.ids;
      break;
  }
  return req;
}

std::vector<edfkit::Rng> tenant_rngs(std::uint64_t seed, std::size_t tenants) {
  edfkit::Rng root(seed);
  std::vector<edfkit::Rng> out;
  for (std::size_t t = 0; t < tenants; ++t) out.push_back(root.fork());
  return out;
}

OpStream::OpStream(edfkit::Rng rng, const StreamShape& shape)
    : rng_(std::move(rng)), shape_(shape) {
  if (shape_.live_target == 0 || shape_.pool_tasks <= 0) {
    throw std::invalid_argument("op stream needs a live target and pool");
  }
}

Task OpStream::draw() {
  if (pools_.empty()) pools_.resize(kOpenPools);
  Pool& pool = pools_[static_cast<std::size_t>(rng_.uniform_int(
      0, static_cast<int>(kOpenPools) - 1))];
  if (pool.next == pool.tasks.size()) {
    edfkit::GeneratorConfig g;
    g.tasks = shape_.pool_tasks;
    g.utilization = shape_.pool_utilization;
    const edfkit::TaskSet set = edfkit::generate_task_set(rng_, g);
    pool.tasks.assign(set.begin(), set.end());
    pool.next = 0;
  }
  return pool.tasks[pool.next++];
}

std::optional<Op> OpStream::next() {
  for (;;) {
    if (held_) {
      const std::uint64_t key = *held_;
      if (pending_.count(key) != 0) return std::nullopt;
      held_.reset();
      const auto it = resident_.find(key);
      if (it == resident_.end()) continue;  // its admit was rejected
      Op op;
      op.kind = net::NetOp::RemoveGroup;
      op.key = key;
      op.ids = std::move(it->second);
      resident_.erase(it);
      return op;
    }
    if (arrivals_ >= shape_.live_target && !live_.empty()) {
      const double p_depart = std::min(
          1.0, static_cast<double>(live_.size()) /
                   (2.0 * static_cast<double>(shape_.live_target)));
      if (rng_.bernoulli(p_depart)) {
        const auto pick = static_cast<std::size_t>(rng_.uniform_time(
            0, static_cast<edfkit::Time>(live_.size()) - 1));
        held_ = live_[pick];
        live_[pick] = live_.back();
        live_.pop_back();
        continue;
      }
    }
    ++arrivals_;
    Op op;
    op.key = next_key_++;
    if (shape_.group_probability > 0.0 &&
        rng_.bernoulli(shape_.group_probability)) {
      op.kind = net::NetOp::AdmitGroup;
      for (std::size_t i = 0; i < shape_.group_size; ++i) {
        op.group.push_back(draw());
      }
    } else {
      op.kind = net::NetOp::Admit;
      op.task = draw();
    }
    live_.push_back(op.key);
    pending_.insert(op.key);
    return op;
  }
}

void OpStream::resolve(std::uint64_t key, bool admitted,
                       std::vector<TaskId> ids) {
  pending_.erase(key);
  if (admitted) resident_.emplace(key, std::move(ids));
}

}  // namespace perfbench
