// Poll-driven HTTP/1.1 server (DESIGN.md §16 "Network edge & wire
// protocol"): the process boundary in front of TossService.
//
// Threading model -- one epoll event loop owns every socket; handlers run
// as jobs on the process-wide toss::Scheduler:
//
//   * The loop thread does all accepting, reading, parsing, and writing.
//     Connection state is only ever touched from this thread, so there is
//     no per-connection locking at all.
//   * A complete request is submitted to the scheduler as a job; the job
//     runs the handler (which may block inside TossService::Run --
//     admission queueing, deadlines), serializes the response, and posts
//     the bytes back to the loop through a mutex-guarded outbox + eventfd
//     wakeup. Per-document loops inside the handler fan out over the same
//     scheduler's idle workers, so a serving process has one set of
//     compute threads, one per usable CPU (at least two).
//   * At most ServerOptions::worker_threads of this server's jobs are in
//     flight; further complete requests wait on the loop thread (in
//     arrival order) until a job finishes.
//
// One request is in flight per connection: while a job owns the request,
// the loop stops reading that socket (the kernel buffer provides the
// backpressure) and resumes -- serving any pipelined requests already
// buffered -- once the response has flushed. Admission at the edge is by
// connection count: beyond ServerOptions::max_connections an accepted
// socket gets `503 Connection: close` and is dropped, so overload degrades
// into fast rejections instead of unbounded fd growth. Per-request
// overload (429) and deadlines (504) stay where they belong, in the
// service layer behind the handler.
//
// Instruments (obs::MetricsRegistry): net.conns.accepted / rejected /
// open, net.http.requests, net.http.parse_errors, net.http.responses_2xx /
// _4xx / _5xx, net.http.request_ns (handler + serialization), and
// net.http.queue_wait_ns (Submit to job start on the scheduler).

#ifndef TOSS_NET_HTTP_SERVER_H_
#define TOSS_NET_HTTP_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "net/http.h"

namespace toss::net {

struct ServerOptions {
  std::string bind_address = "127.0.0.1";

  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  uint16_t port = 0;

  /// Connection-count admission: accepts beyond this answer 503 and close.
  size_t max_connections = 256;

  /// Cap on this server's handler jobs in flight on the scheduler (>= 1).
  /// The threads that run them are the scheduler's, shared process-wide,
  /// so at most min(worker_threads, Scheduler::Global().width()) handlers
  /// run at once; requests beyond the cap wait on the loop thread for a
  /// free slot.
  size_t worker_threads = 4;

  ParserLimits limits;
};

/// Maps one parsed request to one response. Called on a scheduler worker;
/// must be thread-safe and may block only on work already running on
/// another thread (the service's admission control is the intended
/// blocking point; see DESIGN.md §16).
using Handler = std::function<HttpResponse(const HttpRequest&)>;

class HttpServer {
 public:
  explicit HttpServer(Handler handler, ServerOptions options = {});
  ~HttpServer();  ///< implies Stop()

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds, listens, and spawns the event loop. IOError when the address
  /// cannot be bound.
  Status Start();

  /// Stops accepting, closes every connection, joins the loop and waits
  /// for every handler job already submitted to finish (jobs that had not
  /// started yet skip the handler). Idempotent.
  void Stop();

  /// The bound port (resolves port=0), valid after Start().
  uint16_t port() const { return port_; }

  const ServerOptions& options() const { return options_; }

 private:
  struct Connection;
  struct Outcome {
    uint64_t conn_id = 0;
    std::string bytes;        ///< serialized response
    bool keep_alive = false;  ///< connection survives after the flush
  };

  void LoopMain();
  /// Submits `request` as a handler job, or parks it until a slot frees.
  void Dispatch(uint64_t conn_id, HttpRequest request);
  size_t MaxInFlight() const;
  /// The handler job: runs on a scheduler worker.
  void RunJob(uint64_t conn_id, const HttpRequest& request);

  void AcceptReady();
  void HandleReadable(Connection* conn);
  void HandleWritable(Connection* conn);
  /// Tries to cut the next buffered request (or parse error) and move the
  /// connection into the busy/writing state.
  void PumpConnection(Connection* conn);
  void CloseConnection(uint64_t id);
  void UpdateEvents(Connection* conn, uint32_t events);
  void DrainOutcomes();

  Handler handler_;
  ServerOptions options_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  uint16_t port_ = 0;

  std::thread loop_;
  std::atomic<bool> stopping_{false};
  bool started_ = false;

  // Loop-thread-only state.
  std::unordered_map<uint64_t, std::unique_ptr<Connection>> conns_;
  uint64_t next_conn_id_ = 2;  // 0 = listener, 1 = wake eventfd

  size_t in_flight_ = 0;  ///< submitted jobs whose outcome is not drained
  /// Complete requests waiting for an in-flight slot, in arrival order.
  std::deque<std::pair<uint64_t, HttpRequest>> parked_;

  // Submitted jobs not yet finished; Stop() waits for zero.
  std::mutex running_mu_;
  std::condition_variable running_cv_;
  size_t running_ = 0;

  // Jobs -> loop (paired with a wake_fd_ write).
  std::mutex outcomes_mu_;
  std::vector<Outcome> outcomes_;
};

}  // namespace toss::net

#endif  // TOSS_NET_HTTP_SERVER_H_
