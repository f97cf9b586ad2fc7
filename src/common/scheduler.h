// The process-wide scheduler: one fixed set of worker threads that runs
// both independent jobs (HTTP handler requests) and data-parallel loops
// (per-document evaluation, SEA and pairwise rows, the join's stages).
//
// Width. Scheduler::Global() has one worker per CPU the process may run on
// (its sched_getaffinity mask; CPU quotas are not read), but at least two,
// so an HTTP server always has a second handler running beside a busy one
// and admission can shed. The workers start on first use and never stop.
// Nothing ever starts threads per request: a request's `parallelism` only
// caps how many of these workers one loop may use.
//
// ParallelFor. The calling thread publishes the index range and drains it
// itself in chunks claimed with an atomic cursor; idle workers join in and
// claim chunks too. Because the caller always makes progress on its own,
// a ParallelFor nested inside a task -- or inside a Submit()ted job --
// completes even when every other worker is busy or blocked. When no
// worker is idle the loop runs inline without taking the lock, publishing
// the range or waking anyone: a saturated server pays nothing for it.
//
// Priorities. A worker looking for work first helps a fan-out that is
// already running (those have a thread waiting on them), and only then
// starts the next queued job. So at most `width` jobs run at once and the
// loops they start are finished before new jobs are admitted.
//
// Blocking jobs. A job may block (admission, the writer turnstile, WAL
// group commit) as long as what it waits on is work already running on
// another thread, never a job still queued behind it: a queued job cannot
// start while every worker is blocked. DESIGN.md §16 states this invariant
// for the service.
//
// Instruments (obs::MetricsRegistry): common.scheduler.threads (gauge),
// common.scheduler.jobs, common.scheduler.queue_depth (gauge),
// common.scheduler.fanouts / fanouts_inline / helpers (counters), and
// common.scheduler.fanout_ns (histogram, one sample per published loop).

#ifndef TOSS_COMMON_SCHEDULER_H_
#define TOSS_COMMON_SCHEDULER_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"

namespace toss {

class Scheduler {
 public:
  /// The process-wide instance, `width` = usable CPUs (>= 2). Leaked
  /// deliberately: joining parked threads during static destruction is a
  /// shutdown-order hazard, and the OS reclaims them at exit.
  static Scheduler& Global();

  /// Starts `width` (clamped to >= 1) workers. Production code uses
  /// Global(); private instances exist for tests.
  explicit Scheduler(size_t width);

  /// Runs every queued job, then joins the workers. No ParallelFor may be
  /// in flight on this instance.
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  size_t width() const { return workers_.size(); }

  /// Workers parked waiting for work right now: a racy snapshot. Tests use
  /// it to start a loop only once every worker is able to help.
  size_t idle_workers() const { return idle_.load(std::memory_order_relaxed); }

  /// Queues `job` to run on a worker. Jobs start in FIFO order once a
  /// worker has no running fan-out to help. A job reports its own errors:
  /// an exception escaping it ends the process, as from any thread.
  void Submit(std::function<void()> job);

  /// Runs fn(0) .. fn(n-1) on the calling thread plus up to
  /// `max_width - 1` idle workers (`max_width` 0 or above width() means
  /// width()) and returns once every started task finished. The first
  /// non-OK return abandons the unclaimed indexes and becomes the result;
  /// a task that throws counts as returning Internal.
  /// `threads_used`, when non-null, receives how many threads ran tasks
  /// (1 = inline).
  Status ParallelFor(size_t n, const std::function<Status(size_t)>& fn,
                     size_t max_width = 0, size_t* threads_used = nullptr);

 private:
  struct FanOut;

  void WorkerMain();
  /// Claims and runs chunks of `f` until its range is exhausted or
  /// aborted. Returns whether it claimed any chunk.
  static bool Drain(FanOut* f);

  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;  ///< a job, a fan-out, or shutdown
  std::condition_variable done_cv_;  ///< a helper left a fan-out
  std::deque<std::function<void()>> jobs_;  ///< guarded by mu_
  std::vector<FanOut*> fanouts_;            ///< open for helpers; by mu_
  /// Workers parked on work_cv_. Written under mu_; ParallelFor reads it
  /// without the lock to skip publishing when nobody could help.
  std::atomic<size_t> idle_{0};
  bool stopping_ = false;  ///< guarded by mu_
};

}  // namespace toss

#endif  // TOSS_COMMON_SCHEDULER_H_
