#include "server/admin_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/fault.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/metrics_format.h"
#include "common/trace.h"
#include "qpipe/sp_mode.h"
#include "server/watchdog.h"

namespace sharing {

namespace {

constexpr std::size_t kMaxRequestBytes = 8192;

const char* StatusText(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 503:
      return "Service Unavailable";
    default:
      return "Unknown";
  }
}

void SetSocketTimeout(int fd, std::size_t timeout_ms) {
  timeval tv;
  tv.tv_sec = static_cast<time_t>(timeout_ms / 1000);
  tv.tv_usec = static_cast<suseconds_t>((timeout_ms % 1000) * 1000);
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

bool WriteAll(int fd, const char* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    ssize_t n = send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

void WriteResponse(int fd, const HttpResponse& response) {
  std::string head = "HTTP/1.0 " + std::to_string(response.status) + " " +
                     StatusText(response.status) +
                     "\r\nContent-Type: " + response.content_type +
                     "\r\nContent-Length: " +
                     std::to_string(response.body.size()) +
                     "\r\nConnection: close\r\n\r\n";
  if (WriteAll(fd, head.data(), head.size())) {
    WriteAll(fd, response.body.data(), response.body.size());
  }
}

/// Reads until the end of the request head ("\r\n\r\n") or the size cap.
/// Admin requests carry no body, so the head is the whole request.
bool ReadRequestHead(int fd, std::string* out) {
  char buf[1024];
  while (out->size() < kMaxRequestBytes) {
    ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    out->append(buf, static_cast<std::size_t>(n));
    if (out->find("\r\n\r\n") != std::string::npos) return true;
    // A bare-LF client ("printf 'GET / HTTP/1.0\n\n'") is close enough.
    if (out->find("\n\n") != std::string::npos) return true;
  }
  return false;
}

/// Parses "<METHOD> <target> HTTP/x.y" from the head's first line.
bool ParseRequestLine(const std::string& head, HttpRequest* request) {
  const std::size_t eol = head.find_first_of("\r\n");
  const std::string line =
      eol == std::string::npos ? head : head.substr(0, eol);
  const std::size_t sp1 = line.find(' ');
  if (sp1 == std::string::npos) return false;
  const std::size_t sp2 = line.find(' ', sp1 + 1);
  if (sp2 == std::string::npos) return false;
  request->method = line.substr(0, sp1);
  std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::size_t q = target.find('?');
  request->path = target.substr(0, q);
  if (q != std::string::npos) {
    std::string query = target.substr(q + 1);
    std::size_t start = 0;
    while (start <= query.size()) {
      std::size_t amp = query.find('&', start);
      if (amp == std::string::npos) amp = query.size();
      const std::string pair = query.substr(start, amp - start);
      const std::size_t eq = pair.find('=');
      if (eq != std::string::npos) {
        request->params[pair.substr(0, eq)] = pair.substr(eq + 1);
      } else if (!pair.empty()) {
        request->params[pair] = "";
      }
      start = amp + 1;
    }
  }
  return !request->path.empty() && request->path.front() == '/';
}

int64_t ParseInt64(const std::string& s, int64_t fallback) {
  if (s.empty()) return fallback;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (errno != 0 || end == nullptr || *end != '\0') return fallback;
  return static_cast<int64_t>(v);
}

}  // namespace

AdminServer::AdminServer(Options options) : options_(std::move(options)) {}

AdminServer::~AdminServer() { Stop(); }

void AdminServer::Handle(const std::string& path, Handler handler) {
  SHARING_CHECK(!started_) << "admin routes are immutable after Start";
  routes_[path] = std::move(handler);
}

Status AdminServer::Start() {
  SHARING_CHECK(!started_) << "admin server started twice";
  if (options_.port < 0 && options_.uds_path.empty()) {
    return Status::InvalidArgument("admin server: no listener configured");
  }
  if (pipe(wake_pipe_) != 0) {
    return Status::IoError("admin server: pipe failed");
  }
  if (options_.port >= 0) {
    tcp_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (tcp_fd_ < 0) return Status::IoError("admin server: socket failed");
    int one = 1;
    setsockopt(tcp_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    // Loopback only: the admin surface is not authenticated and must
    // never listen on an external interface.
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(options_.port));
    if (bind(tcp_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        listen(tcp_fd_, 64) != 0) {
      Stop();
      return Status::IoError("admin server: cannot listen on 127.0.0.1:" +
                             std::to_string(options_.port));
    }
    socklen_t len = sizeof(addr);
    if (getsockname(tcp_fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
      bound_port_ = static_cast<int>(ntohs(addr.sin_port));
    }
  }
  if (!options_.uds_path.empty()) {
    sockaddr_un addr{};
    if (options_.uds_path.size() >= sizeof(addr.sun_path)) {
      Stop();
      return Status::InvalidArgument("admin server: uds path too long");
    }
    uds_fd_ = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (uds_fd_ < 0) {
      Stop();
      return Status::IoError("admin server: uds socket failed");
    }
    ::unlink(options_.uds_path.c_str());
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, options_.uds_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (bind(uds_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        listen(uds_fd_, 64) != 0) {
      Stop();
      return Status::IoError("admin server: cannot listen on " +
                             options_.uds_path);
    }
  }
  started_ = true;
  stop_.store(false, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  const std::size_t workers = std::max<std::size_t>(1, options_.worker_threads);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::OK();
}

void AdminServer::Stop() {
  if (started_) {
    stop_.store(true, std::memory_order_release);
    // Wake the accept poll and every idle worker.
    char byte = 'x';
    [[maybe_unused]] ssize_t n = write(wake_pipe_[1], &byte, 1);
    queue_cv_.notify_all();
    if (accept_thread_.joinable()) accept_thread_.join();
    for (auto& worker : workers_) {
      if (worker.joinable()) worker.join();
    }
    workers_.clear();
    started_ = false;
    std::lock_guard<std::mutex> lock(queue_mutex_);
    for (int fd : pending_) close(fd);
    pending_.clear();
  }
  if (tcp_fd_ >= 0) close(tcp_fd_);
  if (uds_fd_ >= 0) close(uds_fd_);
  tcp_fd_ = uds_fd_ = -1;
  for (int& fd : wake_pipe_) {
    if (fd >= 0) close(fd);
    fd = -1;
  }
  if (!options_.uds_path.empty()) ::unlink(options_.uds_path.c_str());
}

void AdminServer::AcceptLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    pollfd fds[3];
    nfds_t nfds = 0;
    fds[nfds++] = {wake_pipe_[0], POLLIN, 0};
    if (tcp_fd_ >= 0) fds[nfds++] = {tcp_fd_, POLLIN, 0};
    if (uds_fd_ >= 0) fds[nfds++] = {uds_fd_, POLLIN, 0};
    if (poll(fds, nfds, -1) < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (stop_.load(std::memory_order_acquire)) return;
    for (nfds_t i = 1; i < nfds; ++i) {
      if ((fds[i].revents & POLLIN) == 0) continue;
      int fd = accept(fds[i].fd, nullptr, nullptr);
      if (fd < 0) continue;
      SetSocketTimeout(fd, options_.io_timeout_ms);
      bool shed;
      {
        std::lock_guard<std::mutex> lock(queue_mutex_);
        shed = pending_.size() >= options_.max_pending;
        if (!shed) pending_.push_back(fd);
      }
      if (shed) {
        // Load shedding: answer in the accept thread rather than queue
        // unboundedly behind slow handlers.
        WriteResponse(fd, HttpResponse::Text("overloaded\n", 503));
        close(fd);
      } else {
        queue_cv_.notify_one();
      }
    }
  }
}

void AdminServer::WorkerLoop() {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [&] {
        return stop_.load(std::memory_order_acquire) || !pending_.empty();
      });
      if (stop_.load(std::memory_order_acquire)) return;
      fd = pending_.front();
      pending_.pop_front();
    }
    ServeConnection(fd);
    close(fd);
    requests_served_.fetch_add(1, std::memory_order_relaxed);
  }
}

void AdminServer::ServeConnection(int fd) {
  std::string head;
  if (!ReadRequestHead(fd, &head)) return;
  HttpRequest request;
  if (!ParseRequestLine(head, &request)) {
    WriteResponse(fd, HttpResponse::Text("bad request\n", 400));
    return;
  }
  if (request.method != "GET" && request.method != "HEAD") {
    WriteResponse(fd, HttpResponse::Text("only GET is supported\n", 405));
    return;
  }
  auto it = routes_.find(request.path);
  if (it == routes_.end()) {
    WriteResponse(fd, HttpResponse::Text("not found\n", 404));
    return;
  }
  HttpResponse response = it->second(request);
  if (request.method == "HEAD") response.body.clear();
  WriteResponse(fd, response);
}

// ---------------------------------------------------------------------------
// Engine endpoint table. Handlers render JSON by hand (matching the
// explain/trace serializers elsewhere in the tree) and only ever READ
// through the inspector's snapshot callbacks.
// ---------------------------------------------------------------------------

namespace {

void AppendJsonKey(std::string* out, const char* key, bool* first) {
  if (!*first) *out += ',';
  *first = false;
  *out += '"';
  *out += key;
  *out += "\":";
}

void AppendField(std::string* out, const char* key, int64_t value,
                 bool* first) {
  AppendJsonKey(out, key, first);
  *out += std::to_string(value);
}

void AppendField(std::string* out, const char* key, double value,
                 bool* first) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f", value);
  AppendJsonKey(out, key, first);
  *out += buf;
}

void AppendField(std::string* out, const char* key, bool value, bool* first) {
  AppendJsonKey(out, key, first);
  *out += value ? "true" : "false";
}

void AppendField(std::string* out, const char* key, const std::string& value,
                 bool* first) {
  AppendJsonKey(out, key, first);
  *out += '"';
  AppendJsonEscaped(out, value);
  *out += '"';
}

void AppendSignature(std::string* out, uint64_t signature, bool* first) {
  // Hex string: JSON numbers lose precision past 2^53.
  char buf[24];
  std::snprintf(buf, sizeof(buf), "\"0x%llx\"",
                static_cast<unsigned long long>(signature));
  AppendJsonKey(out, "signature", first);
  *out += buf;
}

std::string ChannelsJson(const std::vector<Stage::ChannelSnapshot>& channels) {
  std::string out = "{\"channels\":[";
  bool first_channel = true;
  for (const auto& channel : channels) {
    if (!first_channel) out += ',';
    first_channel = false;
    out += '{';
    bool first = true;
    AppendField(&out, "stage", channel.stage, &first);
    AppendSignature(&out, channel.signature, &first);
    const auto& info = channel.info;
    AppendField(&out, "mode", std::string(SpModeToString(info.mode)), &first);
    AppendField(&out, "readers_attached",
                static_cast<int64_t>(info.ever_attached), &first);
    AppendField(&out, "readers_active",
                static_cast<int64_t>(info.active_readers), &first);
    AppendField(&out, "pages_produced", static_cast<int64_t>(info.published),
                &first);
    AppendField(&out, "max_consumer_lag",
                static_cast<int64_t>(info.max_consumer_lag), &first);
    AppendField(&out, "attach_window_open", info.attach_window_open, &first);
    AppendField(&out, "resident_pages",
                static_cast<int64_t>(info.resident_pages), &first);
    AppendField(&out, "spilled_pages",
                static_cast<int64_t>(info.spilled_pages), &first);
    AppendField(&out, "reclaimed_pages", static_cast<int64_t>(info.reclaimed),
                &first);
    AppendField(&out, "min_reader_position",
                static_cast<int64_t>(info.min_reader_position), &first);
    AppendField(&out, "closed", info.closed, &first);
    AppendField(&out, "sealed", info.sealed, &first);
    AppendJsonKey(&out, "readers", &first);
    out += '[';
    bool first_reader = true;
    for (const auto& reader : info.readers) {
      if (!first_reader) out += ',';
      first_reader = false;
      out += '{';
      bool rf = true;
      AppendField(&out, "position", static_cast<int64_t>(reader.position),
                  &rf);
      AppendField(&out, "lag",
                  static_cast<int64_t>(info.published > reader.position
                                           ? info.published - reader.position
                                           : 0),
                  &rf);
      AppendField(&out, "parked", reader.parked, &rf);
      AppendField(&out, "parked_for_micros", reader.parked_for_micros, &rf);
      AppendField(&out, "cancelled", reader.cancelled, &rf);
      out += '}';
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

std::string QueriesJson(const std::vector<QPipeEngine::LiveQueryInfo>& live) {
  std::string out = "{\"queries\":[";
  bool first_query = true;
  for (const auto& query : live) {
    if (!first_query) out += ',';
    first_query = false;
    out += '{';
    bool first = true;
    AppendField(&out, "query_id", static_cast<int64_t>(query.query_id),
                &first);
    AppendSignature(&out, query.signature, &first);
    AppendField(&out, "age_micros", query.age_micros, &first);
    AppendField(&out, "stage", query.stage, &first);
    AppendField(&out, "pages_delivered", query.pages_delivered, &first);
    AppendField(&out, "cancelled", query.cancelled, &first);
    out += '}';
  }
  out += "]}";
  return out;
}

std::string CostModelJson(const std::vector<StageCostModelInfo>& stages) {
  std::string out = "{\"stages\":[";
  bool first_stage = true;
  for (const auto& stage : stages) {
    if (!first_stage) out += ',';
    first_stage = false;
    out += "{\"stage\":\"" + stage.stage + "\",\"signatures\":[";
    bool first_sig = true;
    for (const auto& sig : stage.signatures) {
      if (!first_sig) out += ',';
      first_sig = false;
      out += '{';
      bool first = true;
      AppendSignature(&out, sig.signature, &first);
      AppendField(&out, "work_samples",
                  static_cast<int64_t>(sig.work_samples), &first);
      AppendField(&out, "session_samples",
                  static_cast<int64_t>(sig.session_samples), &first);
      AppendField(&out, "mean_work_micros", sig.mean_work_micros, &first);
      AppendField(&out, "p95_work_micros", sig.p95_work_micros, &first);
      AppendField(&out, "mean_pages", sig.mean_pages, &first);
      AppendField(&out, "mean_satellites", sig.mean_satellites, &first);
      AppendField(&out, "mean_retention", sig.mean_retention, &first);
      AppendField(&out, "mean_arrival_gap_micros",
                  sig.mean_arrival_gap_micros, &first);
      AppendField(&out, "decided_off", sig.decided_off, &first);
      AppendField(&out, "decided_push", sig.decided_push, &first);
      AppendField(&out, "decided_pull", sig.decided_pull, &first);
      AppendField(&out, "has_decision", sig.has_decision, &first);
      AppendField(&out, "last_mode",
                  std::string(SpModeToString(sig.last_mode)), &first);
      AppendField(&out, "last_confidence", sig.last_confidence, &first);
      out += '}';
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

void AppendEscapedArray(std::string* out, const std::vector<std::string>& items) {
  *out += '[';
  bool first = true;
  for (const auto& item : items) {
    if (!first) *out += ',';
    first = false;
    *out += '"';
    AppendJsonEscaped(out, item);
    *out += '"';
  }
  *out += ']';
}

std::string HealthJson(const Watchdog::Health& health) {
  std::string out = "{";
  bool first = true;
  AppendField(&out, "healthy", health.healthy, &first);
  AppendField(&out, "ticks", health.ticks, &first);
  AppendJsonKey(&out, "reasons", &first);
  AppendEscapedArray(&out, health.reasons);
  // Degraded-but-running conditions (e.g. a latched-off spill tier):
  // informational, never a 503.
  AppendJsonKey(&out, "details", &first);
  AppendEscapedArray(&out, health.details);
  out += '}';
  return out;
}

}  // namespace

void RegisterEngineEndpoints(AdminServer* server, EngineInspector inspector,
                             Watchdog* watchdog) {
  MetricsRegistry* metrics = inspector.metrics;
  SHARING_CHECK(metrics != nullptr);
  const int64_t start_micros = Trace::NowMicros();

  server->Handle("/", [](const HttpRequest&) {
    return HttpResponse::Text(
        "qpipe admin endpoints:\n"
        "  /metrics            Prometheus text exposition\n"
        "  /metrics.json       JSON-lines snapshot body\n"
        "  /channels           live sharing sessions\n"
        "  /cost_model         per-signature cost model\n"
        "  /queries            in-flight queries\n"
        "  /explain?query=<id> one query's sharing explain\n"
        "  /trace?ms=<n>       Chrome trace, last n ms\n"
        "  /healthz            watchdog verdict\n"
        "  /faults             fault-injection registry; ?arm=<spec> /\n"
        "                      ?disarm=1 change the schedule\n");
  });

  server->Handle("/metrics", [metrics](const HttpRequest&) {
    HttpResponse r =
        HttpResponse::Text(MetricsPrometheusText(metrics->SnapshotTyped()));
    r.content_type = "text/plain; version=0.0.4; charset=utf-8";
    return r;
  });

  server->Handle("/metrics.json", [metrics, start_micros](const HttpRequest&) {
    const int64_t uptime_ms = (Trace::NowMicros() - start_micros) / 1000;
    return HttpResponse::Json(
        MetricsJsonLine(metrics->Snapshot(), uptime_ms));
  });

  if (inspector.channels) {
    auto channels = inspector.channels;
    server->Handle("/channels", [channels](const HttpRequest&) {
      return HttpResponse::Json(ChannelsJson(channels()));
    });
  }

  if (inspector.queries) {
    auto queries = inspector.queries;
    server->Handle("/queries", [queries](const HttpRequest&) {
      return HttpResponse::Json(QueriesJson(queries()));
    });
  }

  if (inspector.cost_models) {
    auto cost_models = inspector.cost_models;
    server->Handle("/cost_model", [cost_models](const HttpRequest&) {
      return HttpResponse::Json(CostModelJson(cost_models()));
    });
  }

  if (inspector.explain) {
    auto explain = inspector.explain;
    server->Handle("/explain", [explain](const HttpRequest& request) {
      auto it = request.params.find("query");
      const int64_t id =
          it == request.params.end() ? -1 : ParseInt64(it->second, -1);
      if (id < 0) {
        return HttpResponse::Text("usage: /explain?query=<id>\n", 400);
      }
      std::optional<QueryExplain> report = explain(static_cast<uint64_t>(id));
      if (!report.has_value()) {
        return HttpResponse::Text("unknown query\n", 404);
      }
      return HttpResponse::Json(report->ToJson());
    });
  }

  server->Handle("/trace", [](const HttpRequest& request) {
    auto it = request.params.find("ms");
    // Default and cap keep the export bounded: a scrape returns a recent
    // window, never an unbounded dump of a long-lived process's rings.
    int64_t ms = it == request.params.end() ? 1000 : ParseInt64(it->second, -1);
    if (ms < 0) return HttpResponse::Text("usage: /trace?ms=<n>\n", 400);
    ms = std::min<int64_t>(ms, 600000);
    const int64_t since = ms == 0 ? 0 : Trace::NowMicros() - ms * 1000;
    return HttpResponse::Json(Trace::ExportChromeJson(since));
  });

  // Fault-injection control surface: GET /faults dumps the registry,
  // ?arm=<spec> replaces the schedule (the spec grammar of
  // FaultRegistry::Arm — the query-string parser splits on the FIRST
  // '=', so specs like "disk.read=p0.5,seed=7" pass through intact),
  // ?disarm=1 clears it. GET with side effects is a deliberate trade:
  // the admin surface is loopback-only and curl-from-a-shell is the
  // operator workflow it exists for.
  server->Handle("/faults", [](const HttpRequest& request) {
    auto arm = request.params.find("arm");
    if (arm != request.params.end()) {
      const Status st = FaultRegistry::Global().Arm(arm->second);
      if (!st.ok()) {
        return HttpResponse::Text("bad fault spec: " + st.ToString() + "\n",
                                  400);
      }
    } else if (request.params.count("disarm") > 0) {
      FaultRegistry::Global().Disarm();
    }
    return HttpResponse::Json(FaultRegistry::Global().DescribeJson());
  });

  server->Handle("/healthz", [watchdog](const HttpRequest&) {
    if (watchdog == nullptr) {
      return HttpResponse::Json("{\"healthy\":true,\"reasons\":[]}");
    }
    const Watchdog::Health health = watchdog->GetHealth();
    return HttpResponse::Json(HealthJson(health), health.healthy ? 200 : 503);
  });
}

// ---------------------------------------------------------------------------
// Client side.
// ---------------------------------------------------------------------------

namespace {

StatusOr<HttpFetch> FetchFromFd(int fd, const std::string& target) {
  SetSocketTimeout(fd, 10000);
  const std::string request =
      "GET " + target + " HTTP/1.0\r\nHost: localhost\r\n\r\n";
  if (!WriteAll(fd, request.data(), request.size())) {
    close(fd);
    return Status::IoError("admin fetch: send failed");
  }
  std::string raw;
  char buf[4096];
  for (;;) {
    ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      close(fd);
      return Status::IoError("admin fetch: recv failed");
    }
    if (n == 0) break;
    raw.append(buf, static_cast<std::size_t>(n));
  }
  close(fd);
  const std::size_t head_end = raw.find("\r\n\r\n");
  if (head_end == std::string::npos || raw.rfind("HTTP/", 0) != 0) {
    return Status::IoError("admin fetch: malformed response");
  }
  HttpFetch fetch;
  const std::size_t sp = raw.find(' ');
  fetch.status = static_cast<int>(ParseInt64(raw.substr(sp + 1, 3), 0));
  fetch.body = raw.substr(head_end + 4);
  return fetch;
}

}  // namespace

StatusOr<HttpFetch> AdminHttpGet(int port, const std::string& target) {
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Status::IoError("admin fetch: socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return Status::IoError("admin fetch: cannot connect to 127.0.0.1:" +
                           std::to_string(port));
  }
  return FetchFromFd(fd, target);
}

StatusOr<HttpFetch> AdminHttpGetUds(const std::string& uds_path,
                                    const std::string& target) {
  sockaddr_un addr{};
  if (uds_path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("admin fetch: uds path too long");
  }
  int fd = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Status::IoError("admin fetch: socket failed");
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, uds_path.c_str(), sizeof(addr.sun_path) - 1);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return Status::IoError("admin fetch: cannot connect to " + uds_path);
  }
  return FetchFromFd(fd, target);
}

}  // namespace sharing
