#include "store/env.h"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#ifndef _WIN32
#include <fcntl.h>
#include <unistd.h>
#endif

#include "obs/metrics.h"

namespace toss::store {

namespace fs = std::filesystem;

namespace {

/// I/O substrate counters. Incremented in ProductionEnv (the layer where
/// the bytes actually move) so FaultInjectionEnv wrappers are counted once,
/// and in the fault/retry paths that never reach the base Env.
struct EnvMetrics {
  obs::Counter& reads = obs::Metrics().GetCounter("store.env.reads");
  obs::Counter& writes = obs::Metrics().GetCounter("store.env.writes");
  obs::Counter& bytes_written =
      obs::Metrics().GetCounter("store.env.bytes_written");
  obs::Counter& fsyncs = obs::Metrics().GetCounter("store.env.fsyncs");
  obs::Counter& renames = obs::Metrics().GetCounter("store.env.renames");
  obs::Counter& removes = obs::Metrics().GetCounter("store.env.removes");
  obs::Counter& faults = obs::Metrics().GetCounter("store.env.faults_injected");
  obs::Counter& retries = obs::Metrics().GetCounter("store.env.retries");
};

EnvMetrics& Instruments() {
  static EnvMetrics* m = new EnvMetrics();
  return *m;
}

}  // namespace

// ---------------------------------------------------------------------------
// ProductionEnv
// ---------------------------------------------------------------------------

Status ProductionEnv::CreateDirs(const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("cannot create directory " + dir + ": " +
                           ec.message());
  }
  return Status::OK();
}

Result<std::string> ProductionEnv::ReadFile(const std::string& path) {
  Instruments().reads.Increment();
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IOError("cannot open " + path);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  if (in.bad()) {
    return Status::IOError("read failed for " + path);
  }
  return ss.str();
}

Status ProductionEnv::WriteFile(const std::string& path,
                                std::string_view content) {
  EnvMetrics& m = Instruments();
  m.writes.Increment();
  m.bytes_written.Add(content.size());
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::IOError("cannot write " + path);
  }
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  out.close();
  if (!out) {
    return Status::IOError("write failed for " + path);
  }
  return Status::OK();
}

Status ProductionEnv::AppendFile(const std::string& path,
                                 std::string_view content) {
  EnvMetrics& m = Instruments();
  m.writes.Increment();
  m.bytes_written.Add(content.size());
  std::ofstream out(path, std::ios::binary | std::ios::app);
  if (!out) {
    return Status::IOError("cannot append to " + path);
  }
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  out.close();
  if (!out) {
    return Status::IOError("append failed for " + path);
  }
  return Status::OK();
}

Status ProductionEnv::SyncFile(const std::string& path) {
  Instruments().fsyncs.Increment();
#ifndef _WIN32
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IOError("cannot open for sync: " + path);
  }
  int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    return Status::IOError("fsync failed for " + path);
  }
#endif
  return Status::OK();
}

Status ProductionEnv::SyncDir(const std::string& dir) {
  Instruments().fsyncs.Increment();
#ifndef _WIN32
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::IOError("cannot open directory for sync: " + dir);
  }
  int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    return Status::IOError("fsync failed for directory " + dir);
  }
#endif
  return Status::OK();
}

Status ProductionEnv::RenameFile(const std::string& from,
                                 const std::string& to) {
  Instruments().renames.Increment();
  std::error_code ec;
  fs::rename(from, to, ec);
  if (ec) {
    return Status::IOError("cannot rename " + from + " -> " + to + ": " +
                           ec.message());
  }
  return Status::OK();
}

Status ProductionEnv::RemoveFile(const std::string& path) {
  Instruments().removes.Increment();
  std::error_code ec;
  fs::remove(path, ec);  // returns false when absent, which is fine
  if (ec) {
    return Status::IOError("cannot remove " + path + ": " + ec.message());
  }
  return Status::OK();
}

Status ProductionEnv::RemoveAll(const std::string& path) {
  Instruments().removes.Increment();
  std::error_code ec;
  fs::remove_all(path, ec);
  if (ec) {
    return Status::IOError("cannot remove tree " + path + ": " + ec.message());
  }
  return Status::OK();
}

Result<std::vector<std::string>> ProductionEnv::ListDir(
    const std::string& dir) {
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) {
    return Status::IOError("cannot list " + dir + ": " + ec.message());
  }
  std::vector<std::string> names;
  for (const auto& entry : it) {
    names.push_back(entry.path().filename().string());
  }
  return names;
}

bool ProductionEnv::FileExists(const std::string& path) {
  std::error_code ec;
  return fs::exists(path, ec);
}

void ProductionEnv::SleepForMicros(uint64_t micros) {
  std::this_thread::sleep_for(std::chrono::microseconds(micros));
}

Env* Env::Default() {
  // Leaked deliberately (same rationale as Scheduler::Global): destruction
  // order at exit is a hazard and the object is stateless anyway.
  static ProductionEnv* env = new ProductionEnv();
  return env;
}

// ---------------------------------------------------------------------------
// FaultInjectionEnv
// ---------------------------------------------------------------------------

FaultInjectionEnv::FaultInjectionEnv(Env* base, Options options)
    : base_(base), options_(options) {}

Status FaultInjectionEnv::Admit(const std::string& path,
                                std::string_view content, WriteKind kind) {
  const bool is_write = kind != WriteKind::kNone;
  // Torn faults persist a prefix through the matching base operation, so a
  // torn append damages only the log tail, never the preceding records.
  auto TearWrite = [&] {
    if (!is_write || content.empty()) return;
    std::string_view prefix = content.substr(0, content.size() / 2);
    // Ignore secondary errors; the caller only ever sees the injected one.
    if (kind == WriteKind::kAppend) {
      (void)base_->AppendFile(path, prefix);
    } else {
      (void)base_->WriteFile(path, prefix);
    }
  };
  std::lock_guard<std::mutex> lock(mu_);
  if (crashed_) {
    return Status::IOError("injected fault: process crashed (op after #" +
                           std::to_string(options_.fail_at_op) + ")");
  }
  size_t op = ops_++;
  if (no_space_) {
    // The disk is full, not dead: writes keep failing, everything else works.
    if (!is_write) return Status::OK();
    ++faults_;
    Instruments().faults.Increment();
    return Status::IOError("injected fault: no space left on device");
  }
  if (op < options_.fail_at_op) return Status::OK();

  switch (options_.kind) {
    case FaultKind::kHardError:
      ++faults_;
      Instruments().faults.Increment();
      crashed_ = true;
      return Status::IOError("injected fault: I/O error at op #" +
                             std::to_string(op) + " (" + path + ")");
    case FaultKind::kTornWrite:
      ++faults_;
      Instruments().faults.Increment();
      crashed_ = true;
      TearWrite();
      return Status::IOError("injected fault: torn write at op #" +
                             std::to_string(op) + " (" + path + ")");
    case FaultKind::kNoSpace:
      ++faults_;
      Instruments().faults.Increment();
      no_space_ = true;
      TearWrite();
      return Status::IOError("injected fault: no space left on device (op #" +
                             std::to_string(op) + ", " + path + ")");
    case FaultKind::kTransient:
      if (faults_ < options_.transient_failures) {
        ++faults_;
        Instruments().faults.Increment();
        return Status::Unavailable("injected fault: transient I/O error at op #" +
                                   std::to_string(op) + " (" + path + ")");
      }
      return Status::OK();
  }
  return Status::OK();
}

Status FaultInjectionEnv::CreateDirs(const std::string& dir) {
  TOSS_RETURN_NOT_OK(Admit(dir, {}, WriteKind::kNone));
  return base_->CreateDirs(dir);
}

Result<std::string> FaultInjectionEnv::ReadFile(const std::string& path) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (crashed_) {
      return Status::IOError("injected fault: process crashed");
    }
  }
  return base_->ReadFile(path);
}

Status FaultInjectionEnv::WriteFile(const std::string& path,
                                    std::string_view content) {
  TOSS_RETURN_NOT_OK(Admit(path, content, WriteKind::kTruncate));
  return base_->WriteFile(path, content);
}

Status FaultInjectionEnv::AppendFile(const std::string& path,
                                     std::string_view content) {
  TOSS_RETURN_NOT_OK(Admit(path, content, WriteKind::kAppend));
  return base_->AppendFile(path, content);
}

Status FaultInjectionEnv::SyncFile(const std::string& path) {
  TOSS_RETURN_NOT_OK(Admit(path, {}, WriteKind::kNone));
  return base_->SyncFile(path);
}

Status FaultInjectionEnv::SyncDir(const std::string& dir) {
  TOSS_RETURN_NOT_OK(Admit(dir, {}, WriteKind::kNone));
  return base_->SyncDir(dir);
}

Status FaultInjectionEnv::RenameFile(const std::string& from,
                                     const std::string& to) {
  TOSS_RETURN_NOT_OK(Admit(from, {}, WriteKind::kNone));
  return base_->RenameFile(from, to);
}

Status FaultInjectionEnv::RemoveFile(const std::string& path) {
  TOSS_RETURN_NOT_OK(Admit(path, {}, WriteKind::kNone));
  return base_->RemoveFile(path);
}

Status FaultInjectionEnv::RemoveAll(const std::string& path) {
  TOSS_RETURN_NOT_OK(Admit(path, {}, WriteKind::kNone));
  return base_->RemoveAll(path);
}

Result<std::vector<std::string>> FaultInjectionEnv::ListDir(
    const std::string& dir) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (crashed_) {
      return Status::IOError("injected fault: process crashed");
    }
  }
  return base_->ListDir(dir);
}

bool FaultInjectionEnv::FileExists(const std::string& path) {
  return base_->FileExists(path);
}

void FaultInjectionEnv::SleepForMicros(uint64_t micros) {
  std::lock_guard<std::mutex> lock(mu_);
  ++sleeps_;
  slept_micros_ += micros;  // recorded, never actually slept: tests stay fast
  sleep_history_.push_back(micros);
}

size_t FaultInjectionEnv::op_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ops_;
}

size_t FaultInjectionEnv::faults_fired() const {
  std::lock_guard<std::mutex> lock(mu_);
  return faults_;
}

size_t FaultInjectionEnv::sleep_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sleeps_;
}

uint64_t FaultInjectionEnv::total_sleep_micros() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slept_micros_;
}

std::vector<uint64_t> FaultInjectionEnv::sleep_history() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sleep_history_;
}

// ---------------------------------------------------------------------------
// RetryTransient
// ---------------------------------------------------------------------------

namespace {

/// splitmix64: cheap, well-mixed 64-bit hash for the jitter stream.
uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Per-call jitter seed: a process-wide counter, so two retry loops hit by
/// the same shared fault draw different (but still deterministic and
/// reproducible within one process) backoff sequences.
uint64_t NextJitterSeed() {
  static std::atomic<uint64_t> counter{0};
  return Mix64(counter.fetch_add(1, std::memory_order_relaxed));
}

}  // namespace

Status RetryTransient(Env* env, const RetryPolicy& policy,
                      const std::function<Status()>& op) {
  size_t attempts = std::max<size_t>(1, policy.max_attempts);
  const uint64_t floor_us = policy.initial_backoff_micros;
  const uint64_t cap_us =
      std::max(policy.max_backoff_micros, floor_us);
  uint64_t backoff = floor_us;
  uint64_t jitter_state = NextJitterSeed();
  Status st;
  for (size_t attempt = 0; attempt < attempts; ++attempt) {
    st = op();
    if (!st.IsUnavailable()) return st;
    if (attempt + 1 < attempts) {
      Instruments().retries.Increment();
      if (policy.decorrelated_jitter) {
        // Decorrelated jitter (the "sleep = rand(base, prev * 3)" scheme):
        // grows roughly exponentially in expectation but desynchronizes
        // concurrent retriers; always within [floor, cap].
        uint64_t hi = std::min(cap_us, std::max(floor_us, backoff) * 3);
        jitter_state = Mix64(jitter_state);
        backoff = floor_us + (hi > floor_us ? jitter_state % (hi - floor_us + 1)
                                            : 0);
      }
      env->SleepForMicros(backoff);
      if (!policy.decorrelated_jitter) {
        backoff = std::min(backoff * 2, cap_us);
      }
    }
  }
  return st;
}

}  // namespace toss::store
