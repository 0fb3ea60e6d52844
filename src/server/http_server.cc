#include "server/http_server.h"

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <mutex>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "common/fault_injection.h"
#include "common/symbol_table.h"
#include "precis/json_export.h"
#include "server/request_parse.h"

namespace precis {

namespace server_internal {

using Clock = std::chrono::steady_clock;

/// Shared by the server object, its loops, and every in-flight completion
/// callback, so a late callback (service still draining after Stop) never
/// touches freed memory.
struct ServerStats {
  std::atomic<uint64_t> connections_accepted{0};
  std::atomic<uint64_t> connections_rejected{0};
  std::atomic<uint64_t> connections_open{0};
  std::atomic<uint64_t> requests_total{0};
  std::atomic<uint64_t> parse_errors{0};
  std::atomic<uint64_t> responses_2xx{0};
  std::atomic<uint64_t> responses_4xx{0};
  std::atomic<uint64_t> responses_503{0};
  std::atomic<uint64_t> responses_504{0};
  std::atomic<uint64_t> responses_5xx{0};
  std::atomic<uint64_t> bytes_read{0};
  std::atomic<uint64_t> bytes_written{0};
  std::atomic<uint64_t> slow_client_timeouts{0};

  /// Socket-chaos ledgers (ServerChaosConfig): per-boundary decision
  /// counters (the deterministic FaultMix stream index) and injections.
  std::atomic<uint64_t> chaos_accept_checks{0};
  std::atomic<uint64_t> chaos_read_checks{0};
  std::atomic<uint64_t> chaos_write_checks{0};
  std::atomic<uint64_t> chaos_short_checks{0};
  std::atomic<uint64_t> chaos_accept_errors{0};
  std::atomic<uint64_t> chaos_read_errors{0};
  std::atomic<uint64_t> chaos_write_errors{0};
  std::atomic<uint64_t> chaos_short_writes{0};

  void CountResponse(int status) {
    if (status < 400) {
      responses_2xx.fetch_add(1, std::memory_order_relaxed);
    } else if (status == 503) {
      responses_503.fetch_add(1, std::memory_order_relaxed);
    } else if (status == 504) {
      responses_504.fetch_add(1, std::memory_order_relaxed);
    } else if (status < 500) {
      responses_4xx.fetch_add(1, std::memory_order_relaxed);
    } else {
      responses_5xx.fetch_add(1, std::memory_order_relaxed);
    }
  }
};

struct Connection;

/// One seeded chaos decision: a pure function of (seed, stream, index),
/// the index drawn from the stream's check counter. Streams: 0 = accept,
/// 1 = read, 2 = write, 3 = short-write.
bool ChaosFire(const ServerChaosConfig& chaos, double probability,
               uint64_t stream, std::atomic<uint64_t>* counter) {
  if (probability <= 0.0) return false;
  uint64_t idx = counter->fetch_add(1, std::memory_order_relaxed) + 1;
  uint64_t h = FaultMix(chaos.seed ^ (stream * 0x9e3779b97f4a7c15ULL) ^
                        (idx * 0xbf58476d1ce4e5b9ULL));
  return static_cast<double>(h >> 11) * 0x1.0p-53 < probability;
}

/// One poll loop's inbox. Callbacks running on service worker threads
/// reach their loop exclusively through this: push under the mutex, then
/// Notify() the self-pipe. `alive` flips false only after the loop thread
/// has been joined, so a late callback degrades to a silent drop.
struct Mailbox {
  std::mutex mu;
  bool alive = true;
  WakeupPipe wake;
  std::vector<int> incoming;
  std::vector<std::shared_ptr<Connection>> ready;
};

/// One pending slice of output. Either `bytes` owns the data (headers,
/// error bodies) or `shared` aliases an immutable string held elsewhere —
/// the engine's memoized JSON render — which the loop writes straight to
/// the wire without ever copying it into a per-connection buffer
/// (DESIGN.md §16). `off` tracks how much of this chunk has been written.
struct OutChunk {
  std::string bytes;
  std::shared_ptr<const std::string> shared;
  size_t off = 0;

  const char* data() const {
    return (shared != nullptr ? *shared : bytes).data() + off;
  }
  size_t size() const {
    return (shared != nullptr ? *shared : bytes).size() - off;
  }
};

/// Per-connection state machine. The owning loop thread drives all state
/// transitions except response delivery: QueueResponse (any thread)
/// appends chunks to `outq` under `mu` and clears `in_flight`.
struct Connection {
  Connection(int fd_in, std::shared_ptr<Mailbox> mailbox_in,
             std::shared_ptr<ServerStats> stats_in, HttpParserLimits limits)
      : fd(fd_in),
        mailbox(std::move(mailbox_in)),
        stats(std::move(stats_in)),
        parser(limits),
        last_activity(Clock::now()) {}

  const int fd;
  const std::shared_ptr<Mailbox> mailbox;
  const std::shared_ptr<ServerStats> stats;
  HttpRequestParser parser;  // loop thread only

  std::mutex mu;  // guards everything below
  std::deque<OutChunk> outq;
  bool in_flight = false;
  bool close_after_write = false;
  bool closed = false;
  bool error_sent = false;

  Clock::time_point last_activity;  // loop thread only
  /// When the currently-buffered partial request began (loop thread only).
  /// Bounds *total* request receive time — a slowloris client trickling
  /// bytes refreshes last_activity but never this.
  Clock::time_point request_start;
  bool request_started = false;
};

namespace {

HttpResponse JsonError(int status, const std::string& message) {
  HttpResponse response;
  response.status = status;
  response.SetHeader("Content-Type", "application/json");
  response.body = "{\"error\":\"" + JsonEscape(message) + "\"}\n";
  return response;
}

/// Maps a finished ServiceResponse onto the wire (DESIGN.md §14): the
/// body of a successful answer is *exactly* AnswerToJson(answer) — byte-
/// identical to what an in-process caller would serialize — with the
/// execution meta-data in X-Precis-* headers so the body stays pristine.
HttpResponse BuildQueryResponse(const ServiceResponse& response) {
  HttpResponse http;
  if (!response.status.ok()) {
    int status;
    switch (response.status.code()) {
      case StatusCode::kOverloaded:
        status = 503;  // admission shedding -> backpressure
        break;
      case StatusCode::kInvalidArgument:
        status = 400;
        break;
      case StatusCode::kNotFound:
        status = 404;
        break;
      default:
        status = 500;
    }
    http = JsonError(status, response.status.ToString());
    if (status == 503) http.SetHeader("Retry-After", "1");
    return http;
  }
  // A deadline-cut query yields a well-formed *partial* answer; serve it
  // under 504 so open-loop clients can separate timeouts from full
  // answers without parsing the report.
  http.status =
      response.stop_reason == StopReason::kDeadlineExceeded ? 504 : 200;
  http.SetHeader("Content-Type", "application/json");
  http.SetHeader("X-Precis-Stop-Reason",
                 StopReasonToString(response.stop_reason));
  http.SetHeader("X-Precis-Degraded", response.degraded ? "true" : "false");
  http.SetHeader("X-Precis-Latency-Us",
                 std::to_string(static_cast<uint64_t>(
                     response.latency_seconds * 1e6)));
  http.SetHeader("X-Precis-Retries", std::to_string(response.retries));
  if (response.body_json != nullptr) {
    // Fast path: the service already rendered (or recalled the memoized)
    // JSON body; share the bytes all the way to the socket.
    http.shared_body = response.body_json;
  } else {
    http.body = AnswerToJson(*response.answer);
  }
  return http;
}

/// Thread-safe response delivery: serializes the header block, enqueues it
/// plus the body chunk (shared bytes alias the memoized render; owned
/// bytes move), and wakes the owning poll loop. Safe to call from service
/// worker threads, the shed path (synchronous), and the loop thread
/// itself. Takes the response by value so an owned body can be moved into
/// the queue instead of copied.
void QueueResponse(const std::shared_ptr<Connection>& conn,
                   HttpResponse response, bool keep_alive,
                   bool head_only = false) {
  conn->stats->CountResponse(response.status);
  OutChunk header;
  header.bytes = SerializeHttpHeaders(response, keep_alive);
  OutChunk body;
  if (!head_only) {
    if (response.shared_body != nullptr) {
      body.shared = std::move(response.shared_body);
    } else {
      body.bytes = std::move(response.body);
    }
  }
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->closed) return;  // peer went away while the query ran
    conn->outq.push_back(std::move(header));
    if (body.size() > 0) conn->outq.push_back(std::move(body));
    conn->in_flight = false;
    if (!keep_alive) conn->close_after_write = true;
  }
  std::lock_guard<std::mutex> lock(conn->mailbox->mu);
  if (!conn->mailbox->alive) return;
  conn->mailbox->ready.push_back(conn);
  conn->mailbox->wake.Notify();
}

}  // namespace

/// One poll()-driven I/O thread owning a disjoint set of connections.
class IoLoop {
 public:
  IoLoop(HttpServer* server, const std::map<std::string, PrecisService*>* services,
         const HttpServer::Options* options, const ServerChaosConfig* chaos,
         std::shared_ptr<ServerStats> stats, const std::atomic<bool>* stopping)
      : server_(server),
        services_(services),
        options_(options),
        chaos_(chaos),
        stats_(std::move(stats)),
        stopping_(stopping),
        mailbox_(std::make_shared<Mailbox>()) {}

  void Start() {
    thread_ = std::thread([this] { Run(); });
  }

  void Notify() {
    std::lock_guard<std::mutex> lock(mailbox_->mu);
    mailbox_->wake.Notify();
  }

  /// Hands a freshly accepted socket to this loop (acceptor thread).
  void Adopt(int fd) {
    std::lock_guard<std::mutex> lock(mailbox_->mu);
    mailbox_->incoming.push_back(fd);
    mailbox_->wake.Notify();
  }

  void Join() {
    if (thread_.joinable()) thread_.join();
  }

  /// After Join(): late service callbacks must drop instead of notifying.
  void SealMailbox() {
    std::lock_guard<std::mutex> lock(mailbox_->mu);
    mailbox_->alive = false;
  }

 private:
  void Run() {
    std::vector<pollfd> pfds;
    std::vector<std::shared_ptr<Connection>> polled;
    bool draining = false;
    Clock::time_point drain_deadline{};
    for (;;) {
      pfds.clear();
      polled.clear();
      pfds.push_back({mailbox_->wake.read_fd(), POLLIN, 0});
      for (auto& [fd, conn] : connections_) {
        pfds.push_back({fd, Interest(conn), 0});
        polled.push_back(conn);
      }
      (void)poll(pfds.data(), static_cast<nfds_t>(pfds.size()), 250);
      mailbox_->wake.Drain();

      // Read the stop flag *after* the wakeup so the very poll round that
      // Stop() interrupts already tears down idle connections (instead of
      // burning one more 250 ms tick).
      const bool stopping = stopping_->load(std::memory_order_relaxed);
      if (stopping && !draining) {
        draining = true;
        drain_deadline =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(
                                   options_->drain_timeout_seconds));
      }

      std::vector<int> incoming;
      std::vector<std::shared_ptr<Connection>> ready;
      {
        std::lock_guard<std::mutex> lock(mailbox_->mu);
        incoming.swap(mailbox_->incoming);
        ready.swap(mailbox_->ready);
      }
      for (int fd : incoming) {
        if (stopping) {
          CloseFd(fd);
          stats_->connections_open.fetch_sub(1, std::memory_order_relaxed);
          continue;
        }
        (void)SetNonBlocking(fd);
        (void)SetTcpNoDelay(fd);
        auto conn = std::make_shared<Connection>(
            fd, mailbox_, stats_, options_->parser_limits);
        connections_.emplace(fd, std::move(conn));
      }
      for (const auto& conn : ready) Pump(conn);

      for (size_t i = 0; i < polled.size(); ++i) {
        const auto& conn = polled[i];
        short revents = pfds[i + 1].revents;
        if (revents == 0) continue;
        if (IsClosed(conn)) continue;  // closed by an earlier event
        if (revents & POLLIN) {
          OnReadable(conn);
        } else if (revents & POLLOUT) {
          Pump(conn);
        } else if (revents & (POLLERR | POLLHUP | POLLNVAL)) {
          Close(conn);  // peer reset with nothing to read/write
        }
      }

      Sweep(stopping);
      if (stopping && connections_.empty()) return;
      if (draining && Clock::now() > drain_deadline) {
        // Give up on stragglers (e.g. a peer that never drains its
        // receive buffer); in-flight callbacks see `closed` and drop.
        std::vector<std::shared_ptr<Connection>> all;
        for (auto& [fd, conn] : connections_) all.push_back(conn);
        for (const auto& conn : all) Close(conn);
        return;
      }
    }
  }

  short Interest(const std::shared_ptr<Connection>& conn) {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (!conn->outq.empty()) return POLLOUT;
    // While a query is in flight nothing is read: pipelined bytes wait in
    // the kernel buffer — natural per-connection backpressure.
    if (!conn->in_flight && !conn->close_after_write) return POLLIN;
    return 0;
  }

  bool IsClosed(const std::shared_ptr<Connection>& conn) {
    std::lock_guard<std::mutex> lock(conn->mu);
    return conn->closed;
  }

  void OnReadable(const std::shared_ptr<Connection>& conn) {
    if (ChaosFire(*chaos_, chaos_->read_error, /*stream=*/1,
                  &stats_->chaos_read_checks)) {
      stats_->chaos_read_errors.fetch_add(1, std::memory_order_relaxed);
      Close(conn);  // injected recv failure: same teardown as ECONNRESET
      return;
    }
    char buf[16384];
    for (;;) {
      ssize_t n = read(conn->fd, buf, sizeof(buf));
      if (n > 0) {
        stats_->bytes_read.fetch_add(static_cast<uint64_t>(n),
                                     std::memory_order_relaxed);
        conn->last_activity = Clock::now();
        conn->parser.Feed(buf, static_cast<size_t>(n));
        if (!conn->request_started && conn->parser.mid_request()) {
          conn->request_started = true;
          conn->request_start = conn->last_activity;
        }
        if (conn->parser.complete() || conn->parser.failed()) break;
        continue;
      }
      if (n == 0) {  // EOF: peer is gone
        Close(conn);
        return;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      Close(conn);
      return;
    }
    Pump(conn);
  }

  /// Advances the connection state machine as far as it can go without
  /// more I/O readiness: flush writes, finish closes, answer parse
  /// errors, and start the next buffered request.
  void Pump(const std::shared_ptr<Connection>& conn) {
    for (;;) {
      if (!TryWrite(conn)) return;  // connection died mid-write
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        if (conn->closed) return;
        if (!conn->outq.empty()) return;     // wait POLLOUT
        if (conn->close_after_write) break;               // close below
        if (conn->in_flight) return;  // wait for the service callback
      }
      if (conn->parser.failed()) {
        if (conn->error_sent) return;
        conn->error_sent = true;
        stats_->parse_errors.fetch_add(1, std::memory_order_relaxed);
        QueueResponse(conn,
                      JsonError(conn->parser.error_status(),
                                conn->parser.error_detail()),
                      /*keep_alive=*/false);
        continue;  // loop flushes the error, then closes
      }
      if (!conn->parser.complete()) return;  // need more bytes
      HandleRequest(conn);
      conn->parser.ResetForNext();
      conn->last_activity = Clock::now();
      // Pipelined surplus may already be a partial next request; restart
      // its receive-time clock here so the slowloris bound covers it too.
      conn->request_started = conn->parser.mid_request();
      conn->request_start = conn->last_activity;
    }
    Close(conn);
  }

  /// Routes one complete request. Inline endpoints answer immediately;
  /// /query dispatches to the profile's PrecisService and answers from
  /// the worker's completion callback.
  void HandleRequest(const std::shared_ptr<Connection>& conn) {
    stats_->requests_total.fetch_add(1, std::memory_order_relaxed);
    const HttpRequest& req = conn->parser.request();
    const bool keep_alive =
        req.keep_alive && !stopping_->load(std::memory_order_relaxed);
    const bool head = req.method == "HEAD";

    if (req.target == "/healthz") {
      if (req.method != "GET" && !head) {
        QueueResponse(conn, JsonError(405, "use GET /healthz"), keep_alive);
        return;
      }
      if (server_->draining()) {
        // Drain mode: still serving, but tell the load balancer to pull
        // this instance (and close so it re-resolves immediately).
        HttpResponse response;
        response.status = 503;
        response.SetHeader("Content-Type", "text/plain");
        response.SetHeader("Retry-After", "1");
        response.body = "draining\n";
        QueueResponse(conn, response, /*keep_alive=*/false, head);
        return;
      }
      HttpResponse response;
      response.SetHeader("Content-Type", "text/plain");
      response.body = "ok\n";
      QueueResponse(conn, response, keep_alive, head);
      return;
    }
    if (req.target == "/metrics") {
      if (req.method != "GET" && !head) {
        QueueResponse(conn, JsonError(405, "use GET /metrics"), keep_alive);
        return;
      }
      HttpResponse response;
      response.SetHeader("Content-Type", "application/json");
      response.body = server_->MetricsJson();
      QueueResponse(conn, response, keep_alive, head);
      return;
    }
    if (req.target == "/query") {
      if (req.method != "POST") {
        QueueResponse(conn, JsonError(405, "use POST /query"), keep_alive);
        return;
      }
      auto parsed = ParseQueryRequest(req.body);
      if (!parsed.ok()) {
        QueueResponse(conn, JsonError(400, parsed.status().message()),
                      keep_alive);
        return;
      }
      const std::string& profile =
          parsed->profile.empty() ? "default" : parsed->profile;
      auto it = services_->find(profile);
      if (it == services_->end()) {
        QueueResponse(conn,
                      JsonError(404, "unknown profile '" + profile + "'"),
                      keep_alive);
        return;
      }
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        conn->in_flight = true;
      }
      // Ask the service for the rendered body alongside the answer so a
      // cached render is shared to the socket with zero copies.
      parsed->request.render_body = true;
      // The callback runs on a service worker (or synchronously when
      // shed); it owns the connection via shared_ptr and re-enters the
      // loop through the mailbox only.
      it->second->SubmitAsync(
          std::move(parsed->request),
          [conn, keep_alive](ServiceResponse response) {
            QueueResponse(conn, BuildQueryResponse(response), keep_alive);
          });
      return;
    }
    QueueResponse(conn, JsonError(404, "no such endpoint '" + req.target +
                                           "' (try /query, /metrics, "
                                           "/healthz)"),
                  keep_alive);
  }

  /// Flushes queued chunks with scatter-gather writev — header and shared
  /// body leave in one syscall without ever being concatenated. Returns
  /// false if the connection was closed.
  bool TryWrite(const std::shared_ptr<Connection>& conn) {
    bool dead = false;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      if (conn->closed) return false;
      while (!conn->outq.empty()) {
        constexpr size_t kMaxIov = 8;
        iovec iov[kMaxIov];
        size_t niov = 0;
        for (const OutChunk& chunk : conn->outq) {
          if (niov == kMaxIov) break;
          iov[niov].iov_base = const_cast<char*>(chunk.data());
          iov[niov].iov_len = chunk.size();
          ++niov;
        }
        if (ChaosFire(*chaos_, chaos_->write_error, /*stream=*/2,
                      &stats_->chaos_write_checks)) {
          stats_->chaos_write_errors.fetch_add(1, std::memory_order_relaxed);
          dead = true;  // injected send failure: same teardown as EPIPE
          break;
        }
        if (ChaosFire(*chaos_, chaos_->short_write, /*stream=*/3,
                      &stats_->chaos_short_checks)) {
          // Short write: flush only a small prefix this round, forcing the
          // chunk-offset resume path that real sockets exercise rarely.
          stats_->chaos_short_writes.fetch_add(1, std::memory_order_relaxed);
          niov = 1;
          iov[0].iov_len = std::max<size_t>(1, std::min<size_t>(iov[0].iov_len, 64));
        }
        ssize_t n = writev(conn->fd, iov, static_cast<int>(niov));
        if (n > 0) {
          stats_->bytes_written.fetch_add(static_cast<uint64_t>(n),
                                          std::memory_order_relaxed);
          size_t remaining = static_cast<size_t>(n);
          while (remaining > 0) {
            OutChunk& front = conn->outq.front();
            size_t take = std::min(remaining, front.size());
            front.off += take;
            remaining -= take;
            if (front.size() == 0) conn->outq.pop_front();
          }
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        dead = true;  // EPIPE/ECONNRESET: peer is gone
        break;
      }
    }
    if (dead) {
      Close(conn);
      return false;
    }
    return true;
  }

  /// Loop-thread-only teardown; flips `closed` so in-flight callbacks
  /// drop their response instead of touching a dead fd.
  void Close(const std::shared_ptr<Connection>& conn) {
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      if (conn->closed) return;
      conn->closed = true;
      CloseFd(conn->fd);
      conn->outq.clear();
    }
    stats_->connections_open.fetch_sub(1, std::memory_order_relaxed);
    connections_.erase(conn->fd);
  }

  /// Periodic maintenance: idle-timeout enforcement, and on shutdown the
  /// proactive close of connections with no work left.
  void Sweep(bool stopping) {
    std::vector<std::shared_ptr<Connection>> to_close;
    Clock::time_point now = Clock::now();
    for (auto& [fd, conn] : connections_) {
      bool idle;
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        idle = !conn->in_flight && conn->outq.empty();
      }
      if (!idle) continue;
      if (conn->parser.complete()) continue;  // request pending dispatch
      if (stopping) {
        to_close.push_back(conn);
      } else if (!conn->error_sent && conn->request_started &&
                 conn->parser.mid_request() &&
                 options_->idle_timeout_seconds > 0 &&
                 std::chrono::duration<double>(now - conn->request_start)
                         .count() > options_->idle_timeout_seconds) {
        // Slowloris defense: the request has been trickling in longer than
        // the idle bound *in total* (per-byte activity refreshes
        // last_activity, never request_start). Answer 431 and close.
        conn->error_sent = true;
        stats_->slow_client_timeouts.fetch_add(1, std::memory_order_relaxed);
        QueueResponse(conn,
                      JsonError(431, "request incomplete after " +
                                         std::to_string(
                                             options_->idle_timeout_seconds) +
                                         "s"),
                      /*keep_alive=*/false);
      } else if (options_->idle_timeout_seconds > 0 &&
                 std::chrono::duration<double>(now - conn->last_activity)
                         .count() > options_->idle_timeout_seconds) {
        to_close.push_back(conn);
      }
    }
    for (const auto& conn : to_close) Close(conn);
  }

  HttpServer* const server_;
  const std::map<std::string, PrecisService*>* const services_;
  const HttpServer::Options* const options_;
  const ServerChaosConfig* const chaos_;
  const std::shared_ptr<ServerStats> stats_;
  const std::atomic<bool>* const stopping_;

  std::shared_ptr<Mailbox> mailbox_;
  std::unordered_map<int, std::shared_ptr<Connection>> connections_;
  std::thread thread_;
};

}  // namespace server_internal

using server_internal::IoLoop;
using server_internal::ServerStats;

Result<std::unique_ptr<HttpServer>> HttpServer::Create(
    std::map<std::string, PrecisService*> services, Options options) {
  if (services.find("default") == services.end()) {
    return Status::InvalidArgument(
        "services must contain a 'default' profile");
  }
  for (const auto& [name, service] : services) {
    if (service == nullptr) {
      return Status::InvalidArgument("profile '" + name +
                                     "' has a null service");
    }
  }
  if (options.io_threads == 0) options.io_threads = 1;
  std::unique_ptr<HttpServer> server(
      new HttpServer(std::move(services), std::move(options)));

  std::string chaos_spec = server->options_.chaos_spec;
  if (chaos_spec.empty()) {
    if (const char* env = std::getenv("PRECIS_SERVER_CHAOS")) {
      chaos_spec = env;
    }
  }
  if (!chaos_spec.empty()) {
    auto chaos = ServerChaosConfig::Parse(chaos_spec);
    if (!chaos.ok()) return chaos.status();
    server->chaos_ = *chaos;
  }

  auto listen = ListenTcp(server->options_.bind_address,
                          server->options_.port);
  if (!listen.ok()) return listen.status();
  server->listen_fd_ = *listen;
  PRECIS_RETURN_NOT_OK(SetNonBlocking(server->listen_fd_));
  auto port = LocalPort(server->listen_fd_);
  if (!port.ok()) return port.status();
  server->port_ = *port;

  for (size_t i = 0; i < server->options_.io_threads; ++i) {
    server->loops_.push_back(std::make_unique<IoLoop>(
        server.get(), &server->services_, &server->options_, &server->chaos_,
        server->stats_, &server->stopping_));
  }
  for (auto& loop : server->loops_) loop->Start();
  server->accept_thread_ = std::thread([s = server.get()] { s->AcceptLoop(); });
  return server;
}

HttpServer::HttpServer(std::map<std::string, PrecisService*> services,
                       Options options)
    : services_(std::move(services)),
      options_(std::move(options)),
      stats_(std::make_shared<ServerStats>()) {}

HttpServer::~HttpServer() { Stop(); }

void HttpServer::AcceptLoop() {
  pollfd pfds[2] = {{listen_fd_, POLLIN, 0},
                    {stop_pipe_.read_fd(), POLLIN, 0}};
  while (!stopping_.load(std::memory_order_relaxed)) {
    int rc = poll(pfds, 2, -1);
    if (rc < 0 && errno != EINTR) break;
    if (stopping_.load(std::memory_order_relaxed)) break;
    if (rc <= 0 || (pfds[0].revents & POLLIN) == 0) continue;
    for (;;) {
      int fd = accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        break;  // EAGAIN (drained) or transient accept failure
      }
      uint64_t open = stats_->connections_open.load(std::memory_order_relaxed);
      if (open >= options_.max_connections) {
        // Over the cap: a canned 503 on the still-blocking socket (it
        // fits any socket buffer), then close — bounded fds, loud signal.
        stats_->connections_rejected.fetch_add(1, std::memory_order_relaxed);
        stats_->CountResponse(503);
        HttpResponse response;
        response.status = 503;
        response.SetHeader("Content-Type", "application/json");
        response.SetHeader("Retry-After", "1");
        response.body = "{\"error\":\"connection limit reached\"}\n";
        std::string bytes =
            SerializeHttpResponse(response, /*keep_alive=*/false);
        (void)WriteAll(fd, bytes.data(), bytes.size());
        CloseFd(fd);
        continue;
      }
      if (server_internal::ChaosFire(chaos_, chaos_.accept_error,
                                     /*stream=*/0,
                                     &stats_->chaos_accept_checks)) {
        // Injected accept-path failure: drop before adoption, exactly like
        // a peer that vanished between accept() and the first byte.
        stats_->chaos_accept_errors.fetch_add(1, std::memory_order_relaxed);
        CloseFd(fd);
        continue;
      }
      stats_->connections_accepted.fetch_add(1, std::memory_order_relaxed);
      stats_->connections_open.fetch_add(1, std::memory_order_relaxed);
      size_t loop = next_loop_.fetch_add(1, std::memory_order_relaxed) %
                    loops_.size();
      loops_[loop]->Adopt(fd);
    }
  }
}

void HttpServer::BeginDrain() {
  draining_.store(true, std::memory_order_relaxed);
}

void HttpServer::Stop() {
  if (stopped_.exchange(true)) return;
  stopping_.store(true, std::memory_order_relaxed);
  stop_pipe_.Notify();
  if (accept_thread_.joinable()) accept_thread_.join();
  CloseFd(listen_fd_);
  listen_fd_ = -1;
  for (auto& loop : loops_) loop->Notify();
  for (auto& loop : loops_) loop->Join();
  for (auto& loop : loops_) loop->SealMailbox();
}

HttpServer::Metrics HttpServer::metrics() const {
  Metrics m;
  m.connections_accepted =
      stats_->connections_accepted.load(std::memory_order_relaxed);
  m.connections_rejected =
      stats_->connections_rejected.load(std::memory_order_relaxed);
  m.connections_open =
      stats_->connections_open.load(std::memory_order_relaxed);
  m.requests_total = stats_->requests_total.load(std::memory_order_relaxed);
  m.parse_errors = stats_->parse_errors.load(std::memory_order_relaxed);
  m.responses_2xx = stats_->responses_2xx.load(std::memory_order_relaxed);
  m.responses_4xx = stats_->responses_4xx.load(std::memory_order_relaxed);
  m.responses_503 = stats_->responses_503.load(std::memory_order_relaxed);
  m.responses_504 = stats_->responses_504.load(std::memory_order_relaxed);
  m.responses_5xx = stats_->responses_5xx.load(std::memory_order_relaxed);
  m.bytes_read = stats_->bytes_read.load(std::memory_order_relaxed);
  m.bytes_written = stats_->bytes_written.load(std::memory_order_relaxed);
  m.slow_client_timeouts =
      stats_->slow_client_timeouts.load(std::memory_order_relaxed);
  m.chaos_accept_errors =
      stats_->chaos_accept_errors.load(std::memory_order_relaxed);
  m.chaos_read_errors =
      stats_->chaos_read_errors.load(std::memory_order_relaxed);
  m.chaos_write_errors =
      stats_->chaos_write_errors.load(std::memory_order_relaxed);
  m.chaos_short_writes =
      stats_->chaos_short_writes.load(std::memory_order_relaxed);
  return m;
}

Result<ServerChaosConfig> ServerChaosConfig::Parse(const std::string& spec) {
  ServerChaosConfig config;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    std::string field = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (field.empty()) continue;
    size_t eq = field.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("chaos spec field '" + field +
                                     "' is not key=value");
    }
    std::string key = field.substr(0, eq);
    std::string value = field.substr(eq + 1);
    errno = 0;
    char* end = nullptr;
    if (key == "seed") {
      unsigned long long v = std::strtoull(value.c_str(), &end, 10);
      if (errno != 0 || end == value.c_str() || *end != '\0') {
        return Status::InvalidArgument("chaos seed '" + value +
                                       "' is not an unsigned integer");
      }
      config.seed = v;
      continue;
    }
    double p = std::strtod(value.c_str(), &end);
    if (errno != 0 || end == value.c_str() || *end != '\0') {
      return Status::InvalidArgument("chaos probability '" + value +
                                     "' is not a number");
    }
    p = std::max(0.0, std::min(1.0, p));
    if (key == "accept") {
      config.accept_error = p;
    } else if (key == "read") {
      config.read_error = p;
    } else if (key == "write") {
      config.write_error = p;
    } else if (key == "short") {
      config.short_write = p;
    } else {
      return Status::InvalidArgument(
          "unknown chaos key '" + key +
          "' (want seed, accept, read, write, short)");
    }
  }
  return config;
}

namespace {

void AppendCacheStats(std::ostringstream* os, const char* level,
                      const LruCacheStats& s) {
  *os << "\"" << level << "\":{\"hits\":" << s.hits
      << ",\"misses\":" << s.misses << ",\"evictions\":" << s.evictions
      << ",\"entries\":" << s.entries << ",\"bytes\":" << s.charge_bytes
      << ",\"rejected\":" << s.rejected
      << ",\"doorkeeper_bytes\":" << s.doorkeeper_bytes << "}";
}

}  // namespace

std::string HttpServer::MetricsJson() const {
  Metrics m = metrics();
  std::ostringstream os;
  os << "{\"server\":{"
     << "\"connections_accepted\":" << m.connections_accepted
     << ",\"connections_rejected\":" << m.connections_rejected
     << ",\"connections_open\":" << m.connections_open
     << ",\"requests_total\":" << m.requests_total
     << ",\"parse_errors\":" << m.parse_errors
     << ",\"responses_2xx\":" << m.responses_2xx
     << ",\"responses_4xx\":" << m.responses_4xx
     << ",\"responses_503\":" << m.responses_503
     << ",\"responses_504\":" << m.responses_504
     << ",\"responses_5xx\":" << m.responses_5xx
     << ",\"bytes_read\":" << m.bytes_read
     << ",\"bytes_written\":" << m.bytes_written
     << ",\"slow_client_timeouts\":" << m.slow_client_timeouts
     << ",\"draining\":" << (draining() ? "true" : "false")
     << ",\"chaos\":{\"accept_errors\":" << m.chaos_accept_errors
     << ",\"read_errors\":" << m.chaos_read_errors
     << ",\"write_errors\":" << m.chaos_write_errors
     << ",\"short_writes\":" << m.chaos_short_writes
     << "}},\"profiles\":{";
  bool first = true;
  for (const auto& [name, service] : services_) {
    if (!first) os << ",";
    first = false;
    PrecisService::Metrics sm = service->metrics();
    os << "\"" << JsonEscape(name) << "\":{"
       << "\"queries_served\":" << sm.queries_served
       << ",\"failures\":" << sm.failures
       << ",\"queries_shed\":" << sm.queries_shed
       << ",\"deadline_hits\":" << sm.deadline_hits
       << ",\"budget_truncations\":" << sm.budget_truncations
       << ",\"degraded_answers\":" << sm.degraded_answers
       << ",\"retries_total\":" << sm.retries_total
       << ",\"dropped_tuples_total\":" << sm.dropped_tuples_total
       << ",\"p50_latency_ms\":" << sm.p50_latency_seconds * 1e3
       << ",\"p99_latency_ms\":" << sm.p99_latency_seconds * 1e3
       << ",\"total_latency_seconds\":" << sm.total_latency_seconds
       << ",\"span_seconds\":{";
    // The engine's stages, summed over every query; a stage that never ran
    // (answer_cache with the caches off) reads 0.
    const char* sep = "";
    for (const char* stage :
         {"answer_cache", "db_gen", "match_tokens", "schema_gen"}) {
      auto it = sm.span_seconds.find(stage);
      os << sep << "\"" << stage << "\":"
         << (it != sm.span_seconds.end() ? it->second : 0.0);
      sep = ",";
    }
    os << "},\"caches\":{";
    AppendCacheStats(&os, "token", sm.token_cache);
    os << ",";
    AppendCacheStats(&os, "schema", sm.schema_cache);
    os << ",";
    AppendCacheStats(&os, "answer", sm.answer_cache);
    os << ",";
    AppendCacheStats(&os, "body", sm.body_cache);
    os << "},\"symbols\":{\"count\":" << sm.symbol_table.symbols
       << ",\"bytes\":" << sm.symbol_table.bytes
       << ",\"reserved_bytes\":" << sm.symbol_table.reserved_bytes
       << "},\"arena\":{\"peak_bytes_max\":" << sm.arena_peak_bytes_max
       << ",\"peak_bytes_total\":" << sm.arena_peak_bytes_total << "}";
    if (!sm.shards.empty()) {
      // Partitioned serving (DESIGN.md §15, §17): the fault-domain totals,
      // then each partition's tuples and breaker.
      os << ",\"shards\":{\"count\":" << sm.shards.size()
         << ",\"degraded_queries\":" << sm.shard_degraded_queries
         << ",\"shard_skips\":" << sm.shard_skips_total
         << ",\"probe_retries\":" << sm.shard_probe_retries_total
         << ",\"breaker_rejects\":" << sm.shard_breaker_rejects_total
         << ",\"hedged_subqueries\":" << sm.hedged_subqueries_total
         << ",\"hedge_wins\":" << sm.hedge_wins_total << ",\"per_shard\":[";
      for (size_t s = 0; s < sm.shards.size(); ++s) {
        if (s > 0) os << ",";
        const PrecisService::ShardMetricsEntry& shard = sm.shards[s];
        os << "{\"tuples\":" << shard.tuples
           << ",\"breaker\":{\"state\":\"" << shard.breaker_state
           << "\",\"opened\":" << shard.breaker_opened
           << ",\"rejected\":" << shard.breaker_rejected
           << ",\"half_open_probes\":" << shard.breaker_half_open_probes
           << ",\"failures\":" << shard.breaker_failures << "}}";
      }
      os << "]}";
    }
    os << "}";
  }
  os << "}}\n";
  return os.str();
}

}  // namespace precis
