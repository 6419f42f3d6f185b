/// \file opstream.hpp
/// One tenant's op stream: the wire requests a closed-loop client sends,
/// as a pure function of the seed and of the answers it gets.
///
/// Tasks come from Fixed-family pools (generate_task_set with a fixed
/// task count and pool utilization, as generate_churn_trace draws
/// them), each task from one of kOpenPools pools picked at random. Drawn
/// one pool at a time, the resident set would be one or two pools whose
/// particular periods set the cost of every scan: the cost per op then
/// varied ±12% between seeds. The stream first fills `live_target` arrivals, then churns:
/// each event departs a uniformly chosen live key with probability
/// live / (2 * live_target), and otherwise arrives. That pull toward the
/// target keeps the live set — and with it the reject share and the
/// cost per op — stationary however long a run lasts; an even coin
/// would make the live count a random walk that drifts with run length
/// and seed. The stream is generated lazily, so memory stays flat.
///
/// Departures of keys whose admit was rejected are skipped, as the
/// replay_trace does. A departure of a key whose admit is still in
/// flight waits for the answer, so a pipelined client issues exactly the
/// op sequence a sequential one would — the in-process twin replays the
/// stream one op at a time and must see the same ops.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "model/task.hpp"
#include "net/protocol.hpp"
#include "util/random.hpp"

namespace perfbench {

using edfkit::Task;
using edfkit::TaskId;

/// Pools drawn from at once (a spent pool is replaced by a fresh one).
inline constexpr std::size_t kOpenPools = 8;

struct StreamShape {
  int pool_tasks = 100;           ///< tasks per drawn pool set
  double pool_utilization = 0.7;  ///< utilization of each pool set
  std::size_t live_target = 100;  ///< fill size, and where churn reverts to
  double group_probability = 0.0;  ///< share of arrivals that are groups
  std::size_t group_size = 8;
};

/// One wire request of the stream.
struct Op {
  edfkit::net::NetOp kind = edfkit::net::NetOp::Admit;
  std::uint64_t key = 0;
  Task task;                  ///< Admit
  std::vector<Task> group;    ///< AdmitGroup
  std::vector<TaskId> ids;    ///< RemoveGroup: what the key's admit granted

  /// Tasks offered by an admit op (0 for a removal).
  [[nodiscard]] std::size_t offered() const noexcept;
};

/// The request to put on the wire for `op` (request_id left 0).
[[nodiscard]] edfkit::net::NetRequest to_request(const Op& op);

/// The generator state of `tenants` tenants, a pure function of `seed`.
[[nodiscard]] std::vector<edfkit::Rng> tenant_rngs(std::uint64_t seed,
                                                   std::size_t tenants);

class OpStream {
 public:
  OpStream(edfkit::Rng rng, const StreamShape& shape);

  /// The next op, or nullopt while it depends on an admit in flight.
  [[nodiscard]] std::optional<Op> next();

  /// The answer to an admit op next() issued: admitted or not, and the
  /// TaskIds granted.
  void resolve(std::uint64_t key, bool admitted, std::vector<TaskId> ids);

 private:
  [[nodiscard]] Task draw();

  edfkit::Rng rng_;
  StreamShape shape_;
  struct Pool {
    std::vector<Task> tasks;
    std::size_t next = 0;
  };
  std::vector<Pool> pools_;
  std::uint64_t next_key_ = 1;
  std::uint64_t arrivals_ = 0;
  std::vector<std::uint64_t> live_;  ///< arrived, not yet departed
  std::optional<std::uint64_t> held_;  ///< a departure drawn, not issued
  std::unordered_map<std::uint64_t, std::vector<TaskId>> resident_;
  std::unordered_set<std::uint64_t> pending_;
};

}  // namespace perfbench
