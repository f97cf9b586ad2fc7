#include "common/scheduler.h"

#include <sched.h>

#include <algorithm>
#include <exception>
#include <string>

#include "common/timer.h"
#include "obs/metrics.h"

namespace toss {

namespace {

struct SchedulerMetrics {
  obs::Counter& jobs = obs::Metrics().GetCounter("common.scheduler.jobs");
  obs::Gauge& queue_depth =
      obs::Metrics().GetGauge("common.scheduler.queue_depth");
  obs::Counter& fanouts = obs::Metrics().GetCounter("common.scheduler.fanouts");
  obs::Counter& fanouts_inline =
      obs::Metrics().GetCounter("common.scheduler.fanouts_inline");
  obs::Counter& helpers = obs::Metrics().GetCounter("common.scheduler.helpers");
  obs::Histogram& fanout_ns =
      obs::Metrics().GetHistogram("common.scheduler.fanout_ns");
};

SchedulerMetrics& Instruments() {
  static SchedulerMetrics* m = new SchedulerMetrics();
  return *m;
}

/// Runs one task, turning an escaping exception into Internal.
Status RunTask(const std::function<Status(size_t)>& fn, size_t i) {
  try {
    return fn(i);
  } catch (const std::exception& e) {
    return Status::Internal(std::string("task threw: ") + e.what());
  } catch (...) {
    return Status::Internal("task threw a non-std::exception");
  }
}

/// CPUs in this process's affinity mask; hardware_concurrency() counts the
/// host's, which oversubscribes a CPU-pinned process.
size_t UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<size_t>(CPU_COUNT(&set));
  }
  return std::thread::hardware_concurrency();
}

}  // namespace

/// One published ParallelFor. Lives on the caller's stack; the caller
/// unpublishes it and waits for `helpers_active` to reach 0 before return.
struct Scheduler::FanOut {
  const std::function<Status(size_t)>* fn = nullptr;
  size_t n = 0;
  size_t grain = 1;
  std::atomic<size_t> cursor{0};
  std::atomic<bool> abort{false};
  size_t helper_slots = 0;    ///< helpers that may still join; by mu_
  size_t helpers_active = 0;  ///< helpers inside Drain; by mu_
  size_t helpers_joined = 0;  ///< helpers that ran a chunk; by mu_
  std::mutex error_mu;
  Status first_error;  ///< guarded by error_mu
};

Scheduler& Scheduler::Global() {
  static Scheduler* scheduler = [] {
    auto* s = new Scheduler(std::max<size_t>(2, UsableCpus()));
    obs::Metrics()
        .GetGauge("common.scheduler.threads")
        .Set(static_cast<int64_t>(s->width()));
    return s;
  }();
  return *scheduler;
}

Scheduler::Scheduler(size_t width) {
  const size_t count = std::max<size_t>(1, width);
  workers_.reserve(count);
  for (size_t t = 0; t < count; ++t) {
    workers_.emplace_back([this] { WorkerMain(); });
  }
}

Scheduler::~Scheduler() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void Scheduler::Submit(std::function<void()> job) {
  SchedulerMetrics& m = Instruments();
  m.jobs.Increment();
  bool wake;
  {
    std::lock_guard<std::mutex> lock(mu_);
    jobs_.push_back(std::move(job));
    m.queue_depth.Set(static_cast<int64_t>(jobs_.size()));
    wake = idle_.load(std::memory_order_relaxed) > 0;
  }
  if (wake) work_cv_.notify_one();
}

bool Scheduler::Drain(FanOut* f) {
  bool claimed = false;
  while (!f->abort.load(std::memory_order_acquire)) {
    const size_t begin = f->cursor.fetch_add(f->grain, std::memory_order_relaxed);
    if (begin >= f->n) break;
    claimed = true;
    const size_t end = std::min(f->n, begin + f->grain);
    for (size_t i = begin; i < end; ++i) {
      Status st = RunTask(*f->fn, i);
      if (!st.ok()) {
        std::lock_guard<std::mutex> lock(f->error_mu);
        // Keep the earliest observed error; later failures lose the race.
        if (!f->abort.exchange(true, std::memory_order_acq_rel)) {
          f->first_error = std::move(st);
        }
        return true;
      }
      if (f->abort.load(std::memory_order_relaxed)) return true;
    }
  }
  return claimed;
}

Status Scheduler::ParallelFor(size_t n, const std::function<Status(size_t)>& fn,
                              size_t max_width, size_t* threads_used) {
  if (threads_used != nullptr) *threads_used = 1;
  if (n == 0) return Status::OK();
  const size_t cap =
      std::min(n, max_width == 0 ? width() : std::min(max_width, width()));
  SchedulerMetrics& m = Instruments();
  // Nobody could help: run inline without taking the lock or waking
  // anyone. The read is a hint; a worker going idle right after it is
  // simply not used by this loop.
  if (cap <= 1 || idle_.load(std::memory_order_relaxed) == 0) {
    m.fanouts_inline.Increment();
    for (size_t i = 0; i < n; ++i) {
      TOSS_RETURN_NOT_OK(RunTask(fn, i));
    }
    return Status::OK();
  }

  Timer timer;
  FanOut f;
  f.fn = &fn;
  f.n = n;
  // Several chunks per thread, so a slow chunk's tail is picked up by
  // whoever finishes first.
  f.grain = std::max<size_t>(1, n / (cap * 8));
  size_t wake = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    wake = std::min(cap - 1, idle_.load(std::memory_order_relaxed));
    f.helper_slots = wake;
    if (wake > 0) fanouts_.push_back(&f);
  }
  for (size_t i = 0; i < wake; ++i) work_cv_.notify_one();

  Drain(&f);

  size_t joined = 0;
  if (wake > 0) {
    std::unique_lock<std::mutex> lock(mu_);
    fanouts_.erase(std::find(fanouts_.begin(), fanouts_.end(), &f));
    // Helpers still inside Drain are running tasks of this loop on other
    // threads; they finish without needing this thread.
    done_cv_.wait(lock, [&] { return f.helpers_active == 0; });
    joined = f.helpers_joined;
  }
  if (joined > 0) {
    m.fanouts.Increment();
    m.helpers.Add(joined);
    m.fanout_ns.Record(static_cast<uint64_t>(timer.ElapsedNanos()));
  } else {
    m.fanouts_inline.Increment();
  }
  if (threads_used != nullptr) *threads_used = 1 + joined;
  std::lock_guard<std::mutex> lock(f.error_mu);
  return f.first_error;
}

void Scheduler::WorkerMain() {
  SchedulerMetrics& m = Instruments();
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    // Running fan-outs first: their callers are waiting on them.
    FanOut* help = nullptr;
    for (FanOut* f : fanouts_) {
      if (f->helper_slots > 0 &&
          f->cursor.load(std::memory_order_relaxed) < f->n &&
          !f->abort.load(std::memory_order_relaxed)) {
        help = f;
        break;
      }
    }
    if (help != nullptr) {
      --help->helper_slots;
      ++help->helpers_active;
      lock.unlock();
      const bool claimed = Drain(help);
      lock.lock();
      if (claimed) ++help->helpers_joined;
      if (--help->helpers_active == 0) done_cv_.notify_all();
      continue;
    }
    if (!jobs_.empty()) {
      std::function<void()> job = std::move(jobs_.front());
      jobs_.pop_front();
      m.queue_depth.Set(static_cast<int64_t>(jobs_.size()));
      lock.unlock();
      job();
      job = nullptr;  // destroy captures outside the lock
      lock.lock();
      continue;
    }
    if (stopping_) return;
    idle_.fetch_add(1, std::memory_order_relaxed);
    work_cv_.wait(lock);
    idle_.fetch_sub(1, std::memory_order_relaxed);
  }
}

}  // namespace toss
