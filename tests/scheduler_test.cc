// The process-wide scheduler (common/scheduler.h): ParallelFor's contract
// (every index once, first error wins, throwing tasks become Internal),
// nested fan-out while the other workers are held, concurrent callers,
// and the HTTP server's use of it (Stop waits for in-flight handler jobs).
//
// This binary carries the service_smoke label, so CI also runs it under
// ThreadSanitizer.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/scheduler.h"
#include "net/http_server.h"
#include "scheduler_test_util.h"

namespace toss {
namespace {

/// A one-shot gate: Wait() blocks until Open().
class Gate {
 public:
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return open_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

/// Occupies `count` workers of `s` with jobs parked on `gate`, and returns
/// once all of them are running.
void HoldWorkers(Scheduler* s, size_t count, Gate* gate) {
  std::atomic<size_t> started{0};
  for (size_t i = 0; i < count; ++i) {
    s->Submit([&started, gate] {
      started.fetch_add(1);
      gate->Wait();
    });
  }
  while (started.load() < count) std::this_thread::yield();
}

// The contract tests below wait for every worker to park and make the
// caller's tasks wait for a helper (scheduler_test_util.h), so each loop
// provably runs on more than one thread; the error and throw cases fail on
// a helper, not on the caller.

TEST(SchedulerTest, RunsEveryIndexOnce) {
  Scheduler s(4);
  WaitUntilParked(s);
  HelperRendezvous rendezvous;
  std::vector<std::atomic<int>> hits(100);
  size_t used = 0;
  Status st = s.ParallelFor(
      100,
      [&](size_t i) {
        rendezvous.Enter();
        hits[i].fetch_add(1);
        return Status::OK();
      },
      0, &used);
  ASSERT_TRUE(st.ok());
  EXPECT_GT(used, 1u);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(SchedulerTest, FirstErrorAbortsAndSchedulerStaysUsable) {
  Scheduler s(4);
  WaitUntilParked(s);
  HelperRendezvous failing;
  std::atomic<size_t> ran{0};
  size_t used = 0;
  Status st = s.ParallelFor(
      10'000,
      [&](size_t) {
        ran.fetch_add(1);
        if (failing.Enter()) return Status::IOError("helper task failed");
        return Status::OK();
      },
      0, &used);
  ASSERT_TRUE(st.IsIOError()) << st;
  EXPECT_NE(st.message().find("helper task failed"), std::string::npos) << st;
  EXPECT_GT(used, 1u);
  // The abort flag dropped the bulk of the range.
  EXPECT_LT(ran.load(), 10'000u);

  // An aborted loop must not poison the scheduler: the next one runs fully,
  // again with a helper.
  WaitUntilParked(s);
  HelperRendezvous rendezvous;
  std::vector<std::atomic<int>> hits(64);
  st = s.ParallelFor(
      64,
      [&](size_t i) {
        rendezvous.Enter();
        hits[i].fetch_add(1);
        return Status::OK();
      },
      0, &used);
  ASSERT_TRUE(st.ok()) << st;
  EXPECT_GT(used, 1u);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(SchedulerTest, ThrowingTaskBecomesInternalErrorNotDeadlock) {
  Scheduler s(4);
  WaitUntilParked(s);
  HelperRendezvous first;
  size_t used = 0;
  Status st = s.ParallelFor(
      1'000,
      [&](size_t) -> Status {
        if (first.Enter()) throw std::runtime_error("boom in a helper");
        return Status::OK();
      },
      0, &used);
  ASSERT_TRUE(st.IsInternal()) << st;
  EXPECT_NE(st.message().find("boom in a helper"), std::string::npos) << st;
  EXPECT_GT(used, 1u);

  // Reuse after the throwing loop, including a non-std thrower.
  WaitUntilParked(s);
  HelperRendezvous second;
  st = s.ParallelFor(
      16,
      [&](size_t) -> Status {
        if (second.Enter()) throw 42;  // NOLINT(hicpp-exception-baseclass)
        return Status::OK();
      },
      0, &used);
  ASSERT_TRUE(st.IsInternal()) << st;
  EXPECT_GT(used, 1u);

  WaitUntilParked(s);
  HelperRendezvous third;
  std::atomic<size_t> ran{0};
  st = s.ParallelFor(
      32,
      [&](size_t) {
        third.Enter();
        ran.fetch_add(1);
        return Status::OK();
      },
      0, &used);
  ASSERT_TRUE(st.ok()) << st;
  EXPECT_GT(used, 1u);
  EXPECT_EQ(ran.load(), 32u);
}

TEST(SchedulerTest, GlobalSchedulerSurvivesThrowingLoop) {
  Scheduler& s = Scheduler::Global();
  // At least two workers, so an HTTP server always has a second handler.
  ASSERT_GE(s.width(), 2u);
  WaitUntilParked(s);
  HelperRendezvous throwing;
  size_t used = 0;
  Status st = s.ParallelFor(
      8,
      [&](size_t) -> Status {
        if (throwing.Enter()) throw std::runtime_error("global boom");
        return Status::OK();
      },
      0, &used);
  ASSERT_TRUE(st.IsInternal()) << st;
  EXPECT_GT(used, 1u);

  WaitUntilParked(s);
  HelperRendezvous rendezvous;
  std::atomic<size_t> ran{0};
  st = s.ParallelFor(
      8,
      [&](size_t) {
        rendezvous.Enter();
        ran.fetch_add(1);
        return Status::OK();
      },
      0, &used);
  ASSERT_TRUE(st.ok()) << st;
  EXPECT_GT(used, 1u);
  EXPECT_EQ(ran.load(), 8u);
}

TEST(SchedulerTest, WidthCapAndThreadsUsed) {
  Scheduler s(4);
  size_t used = 0;
  // A cap of 1 runs inline on the caller.
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> elsewhere{0};
  ASSERT_TRUE(s.ParallelFor(
                   64,
                   [&](size_t) {
                     if (std::this_thread::get_id() != caller) {
                       elsewhere.fetch_add(1);
                     }
                     return Status::OK();
                   },
                   1, &used)
                  .ok());
  EXPECT_EQ(used, 1u);
  EXPECT_EQ(elsewhere.load(), 0);
  // A cap far above the width is clamped to it.
  ASSERT_TRUE(s.ParallelFor(
                   64, [](size_t) { return Status::OK(); },
                   size_t{1} << 40, &used)
                  .ok());
  EXPECT_GE(used, 1u);
  EXPECT_LE(used, s.width());
}

TEST(SchedulerTest, NoIdleWorkerMeansInlineLoop) {
  Scheduler s(2);
  Gate gate;
  HoldWorkers(&s, 2, &gate);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> elsewhere{0};
  size_t used = 0;
  ASSERT_TRUE(s.ParallelFor(
                   100,
                   [&](size_t) {
                     if (std::this_thread::get_id() != caller) {
                       elsewhere.fetch_add(1);
                     }
                     return Status::OK();
                   },
                   0, &used)
                  .ok());
  EXPECT_EQ(used, 1u);
  EXPECT_EQ(elsewhere.load(), 0);
  gate.Open();
}

TEST(SchedulerTest, NestedParallelForInsideATaskCompletesWhileWorkersAreHeld) {
  // Every worker but one is parked; the outer loop's tasks each start an
  // inner loop. The callers drain their own loops, so nothing waits on a
  // parked worker.
  Scheduler s(4);
  Gate gate;
  HoldWorkers(&s, s.width() - 1, &gate);
  std::atomic<size_t> inner_runs{0};
  Status st = s.ParallelFor(16, [&](size_t) {
    return s.ParallelFor(16, [&](size_t) {
      inner_runs.fetch_add(1);
      return Status::OK();
    });
  });
  ASSERT_TRUE(st.ok()) << st;
  EXPECT_EQ(inner_runs.load(), 16u * 16u);
  gate.Open();
}

TEST(SchedulerTest, NestedParallelForInsideASubmittedJobCompletes) {
  // The job runs on the only free worker; every other worker is parked.
  Scheduler s(4);
  Gate gate;
  HoldWorkers(&s, s.width() - 1, &gate);
  std::atomic<size_t> runs{0};
  Gate done;
  Status job_status;
  s.Submit([&] {
    job_status = s.ParallelFor(64, [&](size_t) {
      return s.ParallelFor(4, [&](size_t) {
        runs.fetch_add(1);
        return Status::OK();
      });
    });
    done.Open();
  });
  done.Wait();
  EXPECT_TRUE(job_status.ok()) << job_status;
  EXPECT_EQ(runs.load(), 64u * 4u);
  gate.Open();
}

TEST(SchedulerTest, ConcurrentCallersGetCorrectResults) {
  Scheduler& s = Scheduler::Global();
  constexpr size_t kCallers = 8;
  constexpr size_t kN = 2'000;
  std::atomic<int> wrong{0};
  std::vector<std::thread> callers;
  for (size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int round = 0; round < 5; ++round) {
        std::vector<uint64_t> out(kN, 0);
        Status st = s.ParallelFor(kN, [&](size_t i) {
          out[i] = i * (c + 1);
          return Status::OK();
        });
        const uint64_t sum = std::accumulate(out.begin(), out.end(), 0ull);
        if (!st.ok() || sum != (c + 1) * kN * (kN - 1) / 2) wrong.fetch_add(1);
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(wrong.load(), 0);
}

TEST(SchedulerTest, DestructorRunsQueuedJobs) {
  std::atomic<int> ran{0};
  {
    Scheduler s(1);
    Gate gate;
    HoldWorkers(&s, 1, &gate);
    for (int i = 0; i < 10; ++i) s.Submit([&] { ran.fetch_add(1); });
    gate.Open();
  }
  EXPECT_EQ(ran.load(), 10);
}

// --- The HTTP server on the scheduler ---------------------------------------

TEST(SchedulerServerTest, StopWaitsForInFlightHandlerJobs) {
  Gate release;
  std::atomic<bool> handler_started{false};
  std::atomic<bool> handler_finished{false};
  net::HttpServer server(
      [&](const net::HttpRequest&) {
        handler_started.store(true);
        release.Wait();
        handler_finished.store(true);
        net::HttpResponse resp;
        resp.body = "{}";
        return resp;
      },
      net::ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string req = "GET /x HTTP/1.1\r\nHost: t\r\n\r\n";
  ASSERT_EQ(::write(fd, req.data(), req.size()),
            static_cast<ssize_t>(req.size()));
  while (!handler_started.load()) std::this_thread::yield();

  std::atomic<bool> stopped{false};
  bool finished_when_stopped = false;
  std::thread stopper([&] {
    server.Stop();
    finished_when_stopped = handler_finished.load();
    stopped.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(stopped.load()) << "Stop returned under a running handler";
  release.Open();
  stopper.join();
  EXPECT_TRUE(finished_when_stopped);
  ::close(fd);
}

}  // namespace
}  // namespace toss
