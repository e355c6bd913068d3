// Minimal dependency-free HTTP/1.1 server for the embedded admin
// endpoints. Deliberately small: GET/HEAD only, one request per
// connection (Connection: close), bounded request size, bounded
// concurrent connections, blocking sockets with I/O timeouts.
//
// Threading model: one accept thread plus a small fixed pool of handler
// workers fed by a bounded queue. When the queue is full the accept
// thread answers 503 immediately and closes — an admin server must shed
// load, never amplify it. Stop() shuts the listener down, drains queued
// connections with 503 and joins every thread (graceful: an in-flight
// handler finishes its response first).
//
// Observable: obs.http.requests / obs.http.errors (4xx/5xx responses) /
// obs.http.rejected (shed at accept) counters, obs.http.active_connections
// gauge.

#ifndef EXEARTH_OBS_HTTP_H_
#define EXEARTH_OBS_HTTP_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/status.h"

namespace exearth::obs {

struct HttpRequest {
  std::string method;  // "GET", "HEAD"
  std::string path;    // decoded, no query string
  std::map<std::string, std::string> query;  // decoded k=v params

  /// Query parameter or `def` when absent.
  std::string QueryOr(const std::string& key, const std::string& def) const {
    auto it = query.find(key);
    return it != query.end() ? it->second : def;
  }
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

/// A decoded request head: the request, or the status of the error to
/// answer with instead (400 for a malformed request line, 405 for a
/// method other than GET and HEAD).
struct DecodedRequest {
  int status = 200;
  HttpRequest request;  // meaningful only when status == 200
};

/// Decodes the request line of a received request head (the bytes up to
/// its blank line): method, %-decoded path, and the query string's k=v
/// parameters ('+' is a space; a malformed %xx escape stays literal; a
/// field without '=' maps to ""; the last of repeated keys wins). Pure,
/// so hostile heads can be tested without a socket.
DecodedRequest DecodeRequestHead(std::string_view head);

struct HttpServerOptions {
  /// Port to bind; 0 picks an ephemeral port (see HttpServer::port()).
  uint16_t port = 0;
  /// Bind address. Admin endpoints default to loopback only.
  std::string bind_address = "127.0.0.1";
  /// Handler worker threads.
  size_t num_workers = 2;
  /// Accepted connections waiting for a worker; overflow is answered 503
  /// by the accept thread.
  size_t max_pending = 16;
  /// Cap on request head size (request line + headers).
  size_t max_request_bytes = 8192;
  /// Socket read/write timeout, milliseconds (a stalled client cannot
  /// wedge a worker forever).
  int io_timeout_ms = 5000;
};

class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  explicit HttpServer(HttpServerOptions options = {});
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Registers `handler` for exact path `path`. Must be called before
  /// Start().
  void Handle(std::string path, Handler handler);

  /// Binds, listens and spawns the accept + worker threads.
  common::Status Start();

  /// Graceful shutdown: stops accepting, drains the queue with 503,
  /// joins all threads. Idempotent; called by the destructor.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// The actually bound port (useful with options.port == 0).
  uint16_t port() const { return port_; }

 private:
  void AcceptLoop();
  void WorkerLoop();
  void ServeConnection(int fd);

  HttpServerOptions options_;
  std::map<std::string, Handler> handlers_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<int> pending_;

  std::thread accept_thread_;
  std::vector<std::thread> workers_;
};

}  // namespace exearth::obs

#endif  // EXEARTH_OBS_HTTP_H_
