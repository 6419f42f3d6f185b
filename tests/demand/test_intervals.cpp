#include "demand/intervals.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <queue>
#include <set>
#include <utility>
#include <vector>

#include "../helpers.hpp"
#include "util/random.hpp"

namespace edfkit {
namespace {

TEST(TestList, PopsInAscendingOrderWithTaskTiebreak) {
  TestList list;
  list.add(2, 30);
  list.add(0, 10);
  list.add(1, 30);
  list.add(3, 20);
  ASSERT_EQ(list.size(), 4u);
  auto e = list.pop();
  EXPECT_EQ(e.interval, 10);
  EXPECT_EQ(e.task, 0u);
  e = list.pop();
  EXPECT_EQ(e.interval, 20);
  e = list.pop();
  EXPECT_EQ(e.interval, 30);
  EXPECT_EQ(e.task, 1u);  // ties by task index
  e = list.pop();
  EXPECT_EQ(e.interval, 30);
  EXPECT_EQ(e.task, 2u);
  EXPECT_TRUE(list.empty());
}

/// Differential: TestList against a std::priority_queue of the same
/// entries through random add/pop/peek/empty/size sequences. A pop
/// leaves a hole that the next call settles or fills, so the test counts
/// each kind of call made right after a pop and asserts that every kind,
/// a pop that empties the list and a pop whose interval the next entry
/// of another task shares all happened. (A repeated entry pops as the
/// same value from both, so the sequences need not avoid one.)
TEST(TestList, MatchesPriorityQueueReference) {
  using Ref = std::pair<Time, std::size_t>;
  enum Op : std::size_t { kAdd, kPop, kPeek, kEmpty, kSize, kOps };
  std::array<std::uint64_t, kOps> after_pop{};
  std::uint64_t pops_to_empty = 0;
  std::uint64_t tied_pops = 0;
  const std::uint64_t sequences = 300 * testing::fuzz_multiplier();
  for (std::uint64_t seq = 0; seq < sequences; ++seq) {
    Rng rng(seq);
    TestList list;
    std::priority_queue<Ref, std::vector<Ref>, std::greater<>> ref;
    const Time span = rng.uniform_time(0, 40);  // small spans force ties
    const int tasks = rng.uniform_int(1, 12);
    const int steps = rng.uniform_int(1, 300);
    bool last_was_pop = false;
    for (int s = 0; s < steps; ++s) {
      const int draw = rng.uniform_int(0, 9);
      Op op = draw < 4 ? kAdd
              : draw < 7 ? kPop
              : static_cast<Op>(kPeek + static_cast<std::size_t>(draw - 7));
      if (ref.empty() && (op == kPop || op == kPeek)) op = kAdd;
      if (last_was_pop) ++after_pop[op];
      last_was_pop = op == kPop;
      switch (op) {
        case kAdd: {
          const auto task = static_cast<std::size_t>(rng.uniform_int(0, tasks));
          const Time at = rng.uniform_time(0, span);
          list.add(task, at);
          ref.emplace(at, task);
          break;
        }
        case kPop: {
          const TestList::Entry e = list.pop();
          ASSERT_EQ(e.interval, ref.top().first) << "seq " << seq;
          ASSERT_EQ(e.task, ref.top().second) << "seq " << seq;
          ref.pop();
          if (ref.empty()) {
            ++pops_to_empty;
          } else if (ref.top().first == e.interval &&
                     ref.top().second != e.task) {
            ++tied_pops;  // the next entry shares the interval, not the task
          }
          break;
        }
        case kPeek: {
          const TestList::Entry& e = list.peek();
          ASSERT_EQ(e.interval, ref.top().first) << "seq " << seq;
          ASSERT_EQ(e.task, ref.top().second) << "seq " << seq;
          break;
        }
        case kEmpty:
          ASSERT_EQ(list.empty(), ref.empty()) << "seq " << seq;
          break;
        case kSize:
        case kOps:
          ASSERT_EQ(list.size(), ref.size()) << "seq " << seq;
          break;
      }
    }
    // The rest drains in the reference's order.
    while (!ref.empty()) {
      ASSERT_FALSE(list.empty()) << "seq " << seq;
      const TestList::Entry e = list.pop();
      ASSERT_EQ(e.interval, ref.top().first) << "seq " << seq;
      ASSERT_EQ(e.task, ref.top().second) << "seq " << seq;
      ref.pop();
    }
    ASSERT_TRUE(list.empty()) << "seq " << seq;
    ASSERT_EQ(list.size(), 0u) << "seq " << seq;
  }
  for (std::size_t op = 0; op < kOps; ++op) {
    EXPECT_GT(after_pop[op], 0u) << "no call of kind " << op << " after a pop";
  }
  EXPECT_GT(pops_to_empty, 0u);
  EXPECT_GT(tied_pops, 0u);
}

TEST(DeadlineStream, EnumeratesDistinctDeadlines) {
  const TaskSet ts = testing::set_of(
      {testing::tk(1, 4, 8), testing::tk(1, 4, 12), testing::tk(1, 6, 10)});
  DeadlineStream stream(ts, 30);
  std::vector<Time> got;
  while (stream.has_next()) got.push_back(stream.next());
  // Deadlines: task0: 4,12,20,28; task1: 4,16,28; task2: 6,16,26.
  const std::vector<Time> expect = {4, 6, 12, 16, 20, 26, 28};
  EXPECT_EQ(got, expect);
}

TEST(DeadlineStream, EmptyWhenBoundBelowFirstDeadline) {
  const TaskSet ts = testing::set_of({testing::tk(1, 9, 10)});
  DeadlineStream stream(ts, 8);
  EXPECT_FALSE(stream.has_next());
}

/// Property: the stream equals brute-force enumeration of all job
/// deadlines, deduplicated and sorted.
class DeadlineStreamProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(DeadlineStreamProperty, MatchesBruteForce) {
  Rng rng(GetParam());
  const TaskSet ts = draw_small_set(rng, 0.7);
  const Time bound = rng.uniform_time(10, 400);

  std::set<Time> brute;
  for (const Task& t : ts) {
    for (Time k = 0;; ++k) {
      const Time d = t.job_deadline(k);
      if (d > bound) break;
      brute.insert(d);
    }
  }
  DeadlineStream stream(ts, bound);
  std::vector<Time> got;
  while (stream.has_next()) got.push_back(stream.next());
  EXPECT_EQ(got, std::vector<Time>(brute.begin(), brute.end()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeadlineStreamProperty,
                         ::testing::Range<std::uint64_t>(0, 10));

}  // namespace
}  // namespace edfkit
