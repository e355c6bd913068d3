#include "obs/http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/metrics.h"
#include "common/string_util.h"

namespace exearth::obs {

using common::Status;

namespace {

struct HttpMetrics {
  common::Counter* requests;
  common::Counter* errors;
  common::Counter* rejected;
  common::Gauge* active;

  static const HttpMetrics& Get() {
    static HttpMetrics m = [] {
      auto& reg = common::MetricsRegistry::Default();
      return HttpMetrics{
          reg.GetCounter("obs.http.requests"),
          reg.GetCounter("obs.http.errors"),
          reg.GetCounter("obs.http.rejected"),
          reg.GetGauge("obs.http.active_connections"),
      };
    }();
    return m;
  }
};

const char* ReasonPhrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 431: return "Request Header Fields Too Large";
    case 503: return "Service Unavailable";
    default: return status >= 500 ? "Internal Server Error" : "Error";
  }
}

// %xx and '+' decoding for paths and query params.
std::string UrlDecode(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '+') {
      out.push_back(' ');
    } else if (s[i] == '%' && i + 2 < s.size()) {
      auto hex = [](char c) -> int {
        if (c >= '0' && c <= '9') return c - '0';
        if (c >= 'a' && c <= 'f') return c - 'a' + 10;
        if (c >= 'A' && c <= 'F') return c - 'A' + 10;
        return -1;
      };
      const int hi = hex(s[i + 1]), lo = hex(s[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out.push_back(static_cast<char>(hi * 16 + lo));
        i += 2;
      } else {
        out.push_back('%');
      }
    } else {
      out.push_back(s[i]);
    }
  }
  return out;
}

void SetSocketTimeouts(int fd, int timeout_ms) {
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

bool SendAll(int fd, const char* data, size_t len) {
  size_t sent = 0;
  while (sent < len) {
    const ssize_t n = ::send(fd, data + sent, len - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

void WriteResponse(int fd, const HttpResponse& resp, bool head_only) {
  std::string head = common::StrFormat(
      "HTTP/1.1 %d %s\r\n"
      "Content-Type: %s\r\n"
      "Content-Length: %zu\r\n"
      "Connection: close\r\n"
      "\r\n",
      resp.status, ReasonPhrase(resp.status), resp.content_type.c_str(),
      resp.body.size());
  if (!SendAll(fd, head.data(), head.size())) return;
  if (!head_only && !resp.body.empty()) {
    SendAll(fd, resp.body.data(), resp.body.size());
  }
}

}  // namespace

DecodedRequest DecodeRequestHead(std::string_view head) {
  DecodedRequest out;
  // Request line: METHOD SP target SP HTTP/1.x
  const std::string_view line = head.substr(0, head.find_first_of("\r\n"));
  const size_t sp1 = line.find(' ');
  const size_t sp2 = line.rfind(' ');
  if (sp1 == std::string_view::npos || sp2 == sp1 ||
      line.compare(sp2 + 1, 5, "HTTP/") != 0) {
    out.status = 400;
    return out;
  }
  HttpRequest& req = out.request;
  req.method = line.substr(0, sp1);
  if (req.method != "GET" && req.method != "HEAD") {
    out.status = 405;
    return out;
  }
  const std::string_view target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const size_t qpos = target.find('?');
  req.path = UrlDecode(target.substr(0, qpos));
  if (qpos == std::string_view::npos) return out;
  // Every '&'-separated field, empty ones included.
  std::string_view q = target.substr(qpos + 1);
  while (!q.empty()) {
    const size_t amp = q.find('&');
    const std::string_view kv = q.substr(0, amp);
    const size_t eq = kv.find('=');
    if (eq == std::string_view::npos) {
      req.query[UrlDecode(kv)] = "";
    } else {
      req.query[UrlDecode(kv.substr(0, eq))] = UrlDecode(kv.substr(eq + 1));
    }
    if (amp == std::string_view::npos) break;
    q.remove_prefix(amp + 1);
  }
  return out;
}

HttpServer::HttpServer(HttpServerOptions options)
    : options_(std::move(options)) {
  if (options_.num_workers == 0) options_.num_workers = 1;
  if (options_.max_pending == 0) options_.max_pending = 1;
}

HttpServer::~HttpServer() { Stop(); }

void HttpServer::Handle(std::string path, Handler handler) {
  handlers_[std::move(path)] = std::move(handler);
}

Status HttpServer::Start() {
  if (running()) return Status::FailedPrecondition("http: already started");
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("http: socket: ") +
                            std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("http: bad bind address '" +
                                   options_.bind_address + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Unavailable(
        common::StrFormat("http: bind %s:%u: %s",
                          options_.bind_address.c_str(),
                          static_cast<unsigned>(options_.port), err.c_str()));
  }
  if (::listen(listen_fd_, 16) < 0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal("http: listen: " + err);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
      0) {
    port_ = ntohs(bound.sin_port);
  }
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  workers_.reserve(options_.num_workers);
  for (size_t i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void HttpServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);
  // Unblock accept(): shutdown makes a blocked accept return on Linux.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  queue_cv_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  // Drain anything still queued with a 503.
  std::deque<int> left;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    left.swap(pending_);
  }
  for (int fd : left) {
    WriteResponse(fd, {503, "text/plain; charset=utf-8", "shutting down\n"},
                  false);
    ::close(fd);
  }
}

void HttpServer::AcceptLoop() {
  const HttpMetrics& metrics = HttpMetrics::Get();
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_acquire)) break;
      if (errno == EINTR) continue;
      break;  // listener broken; nothing sane to do
    }
    SetSocketTimeouts(fd, options_.io_timeout_ms);
    bool enqueued = false;
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      if (pending_.size() < options_.max_pending) {
        pending_.push_back(fd);
        enqueued = true;
      }
    }
    if (enqueued) {
      queue_cv_.notify_one();
    } else {
      // Bounded connections: shed at the door rather than queue without
      // limit — the admin plane must not amplify an overload.
      metrics.rejected->Increment();
      WriteResponse(fd, {503, "text/plain; charset=utf-8", "busy\n"}, false);
      ::close(fd);
    }
  }
}

void HttpServer::WorkerLoop() {
  const HttpMetrics& metrics = HttpMetrics::Get();
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] {
        return !pending_.empty() || stopping_.load(std::memory_order_acquire);
      });
      if (pending_.empty()) return;  // stopping
      fd = pending_.front();
      pending_.pop_front();
    }
    metrics.active->Add(1.0);
    ServeConnection(fd);
    metrics.active->Add(-1.0);
    ::close(fd);
  }
}

void HttpServer::ServeConnection(int fd) {
  const HttpMetrics& metrics = HttpMetrics::Get();
  metrics.requests->Increment();
  std::string head;
  head.reserve(512);
  char buf[1024];
  bool complete = false;
  while (head.size() < options_.max_request_bytes) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;  // timeout, reset or close
    head.append(buf, static_cast<size_t>(n));
    if (head.find("\r\n\r\n") != std::string::npos ||
        head.find("\n\n") != std::string::npos) {
      complete = true;
      break;
    }
  }
  if (!complete) {
    metrics.errors->Increment();
    const int status =
        head.size() >= options_.max_request_bytes ? 431 : 400;
    WriteResponse(fd, {status, "text/plain; charset=utf-8",
                       status == 431 ? "request too large\n"
                                     : "malformed request\n"},
                  false);
    return;
  }
  const DecodedRequest decoded = DecodeRequestHead(head);
  if (decoded.status != 200) {
    metrics.errors->Increment();
    WriteResponse(fd, {decoded.status, "text/plain; charset=utf-8",
                       decoded.status == 405
                           ? "only GET and HEAD are supported\n"
                           : "malformed request line\n"},
                  false);
    return;
  }
  const HttpRequest& req = decoded.request;
  HttpResponse resp;
  auto it = handlers_.find(req.path);
  if (it == handlers_.end()) {
    resp.status = 404;
    resp.body = "not found: " + req.path + "\n";
  } else {
    resp = it->second(req);
  }
  if (resp.status >= 400) metrics.errors->Increment();
  WriteResponse(fd, resp, req.method == "HEAD");
}

}  // namespace exearth::obs
