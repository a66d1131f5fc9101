// AdminServer: the engine's embedded introspection surface — a small
// HTTP/1.0 server over plain POSIX sockets (no dependencies) that makes
// the PR 7 observability spine reachable while the engine serves:
//
//   GET /metrics            Prometheus text exposition format
//   GET /metrics.json       one JSON line: {"uptime_ms":N,"metrics":{...}}
//   GET /channels           live sharing sessions, per-reader state
//   GET /cost_model         per-signature cost-model snapshots
//   GET /queries            in-flight queries (age, stage, pages)
//   GET /explain?query=<id> one query's sharing-explain report
//   GET /trace?ms=<n>       Chrome-trace export of the last n ms
//   GET /healthz            watchdog verdict (200 ok / 503 degraded)
//   GET /                   endpoint index
//
// Design constraints, in order: never perturb the engine (scrape
// handlers ride existing synchronization only — asserted by the
// contention bench's scrape-delta gate), bounded resources (one accept
// thread, a fixed worker pool, a capped connection queue that sheds
// load with 503s, capped request size, per-socket timeouts), and
// loopback-only exposure (the TCP listener binds 127.0.0.1; a Unix
// domain socket listener is available for same-host scrapers).
//
// QPipeEngine owns one when QPipeOptions::admin_port >= 0 or
// admin_uds_path is set, registers the endpoint table above via
// RegisterEngineEndpoints, and stops it before stage shutdown.

#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/macros.h"
#include "common/status_or.h"
#include "server/introspection.h"

namespace sharing {

class Watchdog;

/// A parsed GET request: path split from the query string, parameters
/// decoded into a map (no %-unescaping — admin parameters are numeric).
struct HttpRequest {
  std::string method;
  std::string path;
  std::map<std::string, std::string> params;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;

  static HttpResponse Text(std::string body, int status = 200) {
    HttpResponse r;
    r.status = status;
    r.body = std::move(body);
    return r;
  }
  static HttpResponse Json(std::string body, int status = 200) {
    HttpResponse r;
    r.status = status;
    r.content_type = "application/json";
    r.body = std::move(body);
    return r;
  }
};

class AdminServer {
 public:
  struct Options {
    /// TCP listen port on 127.0.0.1: >0 fixed, 0 ephemeral (read the
    /// bound port back via port()), -1 no TCP listener.
    int port = 0;

    /// Unix-domain-socket listener path; empty = none. An existing
    /// socket file at the path is replaced.
    std::string uds_path;

    /// Handler worker threads (each serves one connection at a time).
    std::size_t worker_threads = 2;

    /// Accepted connections queued for a worker before the accept
    /// thread sheds load with an immediate 503.
    std::size_t max_pending = 16;

    /// Per-connection socket read/write timeout.
    std::size_t io_timeout_ms = 5000;
  };

  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  explicit AdminServer(Options options);
  ~AdminServer();

  SHARING_DISALLOW_COPY_AND_MOVE(AdminServer);

  /// Registers `handler` for exact-match `path`. Must be called before
  /// Start (the route table is immutable once serving — dispatch takes
  /// no lock).
  void Handle(const std::string& path, Handler handler);

  /// Binds the configured listeners and starts the accept/worker
  /// threads. Returns the first bind/listen error.
  Status Start();

  /// Stops accepting, drains nothing (queued connections are closed),
  /// joins every thread. Idempotent; also run by the destructor.
  void Stop();

  /// The bound TCP port after a successful Start (-1 without TCP).
  int port() const { return bound_port_; }

  const std::string& uds_path() const { return options_.uds_path; }

  /// Connections served (test surface).
  int64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }

 private:
  void AcceptLoop();
  void WorkerLoop();
  void ServeConnection(int fd);

  Options options_;
  std::map<std::string, Handler> routes_;

  int tcp_fd_ = -1;
  int uds_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  int bound_port_ = -1;

  std::atomic<bool> stop_{false};
  std::atomic<int64_t> requests_served_{0};
  bool started_ = false;

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<int> pending_;

  std::thread accept_thread_;
  std::vector<std::thread> workers_;
};

/// Registers the engine endpoint table (see the file header) on
/// `server`. `watchdog` may be null — /healthz then always reports ok
/// (there is nobody to disagree).
void RegisterEngineEndpoints(AdminServer* server, EngineInspector inspector,
                             Watchdog* watchdog);

/// Minimal blocking HTTP/1.0 GET against a loopback admin server —
/// the client side used by tests, the contention bench's scraper, and
/// the ci/check_admin.sh smoke binary (no curl dependency).
struct HttpFetch {
  int status = 0;
  std::string body;
};
StatusOr<HttpFetch> AdminHttpGet(int port, const std::string& target);
StatusOr<HttpFetch> AdminHttpGetUds(const std::string& uds_path,
                                    const std::string& target);

}  // namespace sharing
