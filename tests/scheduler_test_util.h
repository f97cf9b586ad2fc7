// Test helpers for loops on a toss::Scheduler: they make a ParallelFor
// provably run on more than one thread, so a test of the helper side
// (chunks claimed, errors and exceptions raised, teardown) cannot pass by
// running the whole range on the caller.

#ifndef TOSS_TESTS_SCHEDULER_TEST_UTIL_H_
#define TOSS_TESTS_SCHEDULER_TEST_UTIL_H_

#include <atomic>
#include <chrono>
#include <thread>

#include "common/scheduler.h"

namespace toss {

/// Waits until every worker of `s` is parked. A ParallelFor started right
/// after a scheduler is built, or right after a loop, may otherwise find
/// no idle worker and run inline.
inline void WaitUntilParked(const Scheduler& s) {
  while (s.idle_workers() < s.width()) std::this_thread::yield();
}

/// Construct on the thread that calls ParallelFor; every task calls
/// Enter() first. A task on the calling thread waits until some task has
/// run on another thread, so the caller cannot drain the range alone.
/// Combine with WaitUntilParked so that a helper is woken. The waiting
/// ends 10 s after construction, so a loop no helper joins fails its
/// threads_used check instead of hanging.
class HelperRendezvous {
 public:
  /// True when the task runs on a thread other than the caller.
  bool Enter() {
    if (std::this_thread::get_id() != caller_) {
      helper_ran_.store(true);
      return true;
    }
    while (!helper_ran_.load() &&
           std::chrono::steady_clock::now() < deadline_) {
      std::this_thread::yield();
    }
    return false;
  }

 private:
  const std::thread::id caller_ = std::this_thread::get_id();
  const std::chrono::steady_clock::time_point deadline_ =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::atomic<bool> helper_ran_{false};
};

}  // namespace toss

#endif  // TOSS_TESTS_SCHEDULER_TEST_UTIL_H_
