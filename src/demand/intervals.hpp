/// \file intervals.hpp
/// Test-interval plumbing: the ascending "testlist" of the new algorithms
/// and a merged iterator over all absolute job deadlines of a task set
/// (the classic processor-demand test's interval stream).
///
/// `TestList` is a flat binary min-heap with a deferred pop. `pop()`
/// returns the root and leaves its slot as a *hole*; the next `add()`
/// drops its entry into the hole and restores the heap with one
/// sift-down, so the pop-then-add step every walk of the paper's
/// Figs. 5/7 takes (re-arm the popped task, or a revised one) costs one
/// sift instead of a full pop plus a full push. `peek()` and a second
/// `pop()` first settle the hole (the last entry fills it, one
/// sift-down); `empty()` and `size()` count it out. Entries are totally
/// ordered by (interval, task), so the pop sequence is fixed by the
/// entries added, whatever the heap's internal layout: it is the same
/// sequence a `std::priority_queue` of the same entries pops.
#pragma once

#include <cstddef>
#include <vector>

#include "model/task_set.hpp"
#include "util/math.hpp"

namespace edfkit {

/// Min-heap of (interval, task index) pairs — the paper's `testlist`.
/// Ties are popped in task-index order for determinism.
class TestList {
 public:
  struct Entry {
    Time interval;
    std::size_t task;
    [[nodiscard]] bool operator<(const Entry& o) const noexcept {
      if (interval != o.interval) return interval < o.interval;
      return task < o.task;
    }
  };

  void add(std::size_t task, Time interval) {
    const Entry e{interval, task};
    if (hole_) {
      hole_ = false;
      sift_down(e);
      return;
    }
    heap_.push_back(e);
    sift_up(heap_.size() - 1);
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }
  [[nodiscard]] std::size_t size() const noexcept {
    return heap_.size() - (hole_ ? 1 : 0);
  }
  /// \pre !empty()
  [[nodiscard]] const Entry& peek() {
    settle();
    return heap_.front();
  }
  /// \pre !empty()
  Entry pop() {
    settle();
    hole_ = true;
    return heap_.front();
  }

 private:
  /// Fill the root hole with the last entry.
  void settle() {
    if (!hole_) return;
    hole_ = false;
    const Entry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(last);
  }

  /// Place `e` at the root slot and sift it down to its place.
  void sift_down(const Entry e) {
    const std::size_t n = heap_.size();
    std::size_t at = 0;
    for (std::size_t child = 1; child < n; child = 2 * at + 1) {
      if (child + 1 < n && heap_[child + 1] < heap_[child]) ++child;
      if (!(heap_[child] < e)) break;
      heap_[at] = heap_[child];
      at = child;
    }
    heap_[at] = e;
  }

  void sift_up(std::size_t at) {
    const Entry e = heap_[at];
    while (at > 0) {
      const std::size_t parent = (at - 1) / 2;
      if (!(e < heap_[parent])) break;
      heap_[at] = heap_[parent];
      at = parent;
    }
    heap_[at] = e;
  }

  std::vector<Entry> heap_;
  bool hole_ = false;  ///< heap_[0] was popped and awaits a fill
};

/// Ascending stream of *distinct* absolute job deadlines of a task set in
/// (0, bound]. Memory O(n); next() is O(log n).
class DeadlineStream {
 public:
  DeadlineStream(const TaskSet& ts, Time bound);

  /// True if another distinct deadline <= bound exists.
  [[nodiscard]] bool has_next() const noexcept { return !list_.empty(); }

  /// Pop the next distinct deadline. \pre has_next()
  [[nodiscard]] Time next();

 private:
  const TaskSet& ts_;
  Time bound_;
  TestList list_;
};

}  // namespace edfkit
