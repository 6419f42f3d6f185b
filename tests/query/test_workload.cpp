#include "query/workload.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "../helpers.hpp"
#include "demand/dbf.hpp"

namespace edfkit {
namespace {

using testing::set_of;
using testing::tk;

TEST(Workload, PeriodicBasics) {
  const Workload w = Workload::periodic(set_of({tk(2, 6, 8), tk(3, 10, 12)}));
  EXPECT_EQ(w.kind(), WorkloadKind::PeriodicTasks);
  EXPECT_FALSE(w.empty());
  EXPECT_EQ(w.source_size(), 2u);
  EXPECT_EQ(w.tasks().size(), 2u);
  EXPECT_THROW((void)w.streams(), std::logic_error);
}

TEST(Workload, DefaultIsEmptyPeriodic) {
  const Workload w;
  EXPECT_EQ(w.kind(), WorkloadKind::PeriodicTasks);
  EXPECT_TRUE(w.empty());
}

TEST(Workload, ImplicitFromTaskSet) {
  // Migration ergonomics: a TaskSet converts without ceremony.
  const Workload w = set_of({tk(1, 4, 8)});
  EXPECT_EQ(w.source_size(), 1u);
}

TEST(Workload, StreamExpansionPreservesDemand) {
  std::vector<EventStreamTask> streams;
  streams.push_back(
      EventStreamTask{EventStream::bursty(100, 3, 4), 5, 30, "burst"});
  streams.push_back(
      EventStreamTask{EventStream::periodic(40), 7, 35, "periodic"});
  const Workload w = Workload::event_streams(streams);
  EXPECT_EQ(w.kind(), WorkloadKind::EventStreams);
  EXPECT_EQ(w.source_size(), 2u);
  // One expanded sporadic task per tuple: 3 burst tuples + 1 periodic.
  EXPECT_EQ(w.tasks().size(), 4u);
  EXPECT_EQ(w.streams().size(), 2u);
  // The expansion is demand-preserving (the §3.6 mapping).
  for (const Time i : {Time{10}, Time{30}, Time{34}, Time{38}, Time{50},
                       Time{100}, Time{134}, Time{200}}) {
    Time direct = 0;
    for (const EventStreamTask& s : streams) direct += s.dbf(i);
    EXPECT_EQ(dbf(w.tasks(), i), direct) << "I=" << i;
  }
}

TEST(Workload, StreamExpansionIsCached) {
  std::vector<EventStreamTask> streams;
  streams.push_back(
      EventStreamTask{EventStream::periodic(20), 3, 15, "only"});
  const Workload w = Workload::event_streams(streams);
  const TaskSet* first = &w.tasks();
  EXPECT_EQ(first, &w.tasks());  // same object, no re-expansion
}

TEST(Workload, EmptyStreamSetIsEmpty) {
  const Workload w = Workload::event_streams({});
  EXPECT_TRUE(w.empty());
  EXPECT_EQ(w.kind(), WorkloadKind::EventStreams);
}

TEST(Workload, InvalidStreamTaskThrows) {
  std::vector<EventStreamTask> streams;
  streams.push_back(EventStreamTask{EventStream::periodic(20), 0, 15, "bad"});
  EXPECT_THROW((void)Workload::event_streams(streams), std::exception);
}

TEST(Workload, ConcurrentTasksCallsAreRaceFree) {
  // The stream expansion cache used to be a bare mutable bool + TaskSet
  // (a data race under concurrent tasks()); it is now guarded by a
  // std::once_flag. Hammer it from many threads — under TSan this test
  // is the race detector, and everywhere it checks that every thread
  // sees the same fully expanded set.
  std::vector<EventStreamTask> streams;
  streams.push_back(
      EventStreamTask{EventStream::bursty(100, 3, 4), 5, 30, "burst"});
  streams.push_back(
      EventStreamTask{EventStream::periodic(40), 7, 35, "periodic"});
  for (int round = 0; round < 8; ++round) {
    const Workload w = Workload::event_streams(streams);
    constexpr int kThreads = 8;
    std::vector<const TaskSet*> seen(kThreads, nullptr);
    std::vector<std::size_t> sizes(kThreads, 0);
    {
      std::vector<std::thread> threads;
      threads.reserve(kThreads);
      for (int i = 0; i < kThreads; ++i) {
        threads.emplace_back([&w, &seen, &sizes, i] {
          const TaskSet& ts = w.tasks();
          seen[static_cast<std::size_t>(i)] = &ts;
          sizes[static_cast<std::size_t>(i)] = ts.size();
        });
      }
      for (std::thread& t : threads) t.join();
    }
    for (int i = 0; i < kThreads; ++i) {
      EXPECT_EQ(seen[static_cast<std::size_t>(i)], seen[0]);
      EXPECT_EQ(sizes[static_cast<std::size_t>(i)], 4u);
    }
  }
}

TEST(Workload, CopiesReExpandIndependently) {
  // Copies share the variant but get a fresh expansion cache (a
  // once_flag cannot be copied); both sides must still expand correctly.
  std::vector<EventStreamTask> streams;
  streams.push_back(
      EventStreamTask{EventStream::periodic(20), 3, 15, "only"});
  const Workload a = Workload::event_streams(streams);
  (void)a.tasks();  // populate a's cache
  const Workload b = a;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_EQ(b.tasks().size(), a.tasks().size());
  EXPECT_NE(&b.tasks(), &a.tasks());  // caches are independent
  Workload c;
  c = a;
  EXPECT_EQ(c.tasks().size(), a.tasks().size());
}

}  // namespace
}  // namespace edfkit
