#include "http/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <climits>
#include <cstring>

#include "obs/metrics.hpp"

namespace wdoc::http {

namespace {

// A pipelining client can put hundreds of requests in one read (one 16 KiB
// read of `GET /metrics` queues that many large bodies). These bounds cap
// what it can make a worker hold; a response takes two of the IOV_MAX
// iovec entries that one sendmsg accepts.
constexpr std::size_t kFlushBytes = 64 << 10;
constexpr std::size_t kFlushResponses = IOV_MAX / 2;

constexpr int kListenBacklog = 128;
constexpr std::size_t kPendingConnections = 64;  // user-space queue; beyond -> 503

// A connection's answers awaiting their write, in order: the heads rendered
// back to back into one buffer, each body written from its own Payload.
class ResponseBatch {
 public:
  // Returns true once the batch has reached a flush bound.
  bool add(Response rsp) {
    serialize_headers(rsp, heads_);
    bytes_ += rsp.body.size();
    queued_.emplace_back(heads_.size(), std::move(rsp.body));
    return heads_.size() + bytes_ >= kFlushBytes || queued_.size() >= kFlushResponses;
  }

  // Writes and empties the batch (a partial sendmsg resumes); false on error.
  bool flush(int fd, obs::Counter& writes, obs::Counter& bytes_out) {
    if (queued_.empty()) return true;
    iov_.clear();
    std::size_t head = 0;
    for (const auto& [head_end, body] : queued_) {
      iov_.push_back({heads_.data() + head, head_end - head});
      iov_.push_back({const_cast<std::uint8_t*>(body.data()), body.size()});
      head = head_end;
    }
    bytes_out.inc(heads_.size() + bytes_);
    msghdr msg{};
    msg.msg_iov = iov_.data();
    msg.msg_iovlen = iov_.size();
    while (msg.msg_iovlen > 0) {
      writes.inc();
      const ssize_t sent = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
      if (sent < 0 && errno == EINTR) continue;
      if (sent < 0) break;
      auto left = static_cast<std::size_t>(sent);
      while (msg.msg_iovlen > 0 && left >= msg.msg_iov->iov_len) {
        left -= msg.msg_iov->iov_len;
        ++msg.msg_iov;
        --msg.msg_iovlen;
      }
      if (left > 0) {
        msg.msg_iov->iov_base = static_cast<char*>(msg.msg_iov->iov_base) + left;
        msg.msg_iov->iov_len -= left;
      }
    }
    heads_.clear();
    queued_.clear();
    bytes_ = 0;
    return msg.msg_iovlen == 0;
  }

 private:
  std::string heads_;
  std::vector<std::pair<std::size_t, net::Payload>> queued_;  // (end in heads_, body)
  std::size_t bytes_ = 0;                                      // body bytes queued
  std::vector<iovec> iov_;
};

// An answer after which the connection closes.
Response closing(int status, std::string text) {
  Response rsp = Response::text(status, std::move(text));
  rsp.keep_alive = false;
  return rsp;
}

}  // namespace

HttpServer::HttpServer(ServerConfig cfg, Handler handler)
    : cfg_(std::move(cfg)),
      handler_(std::move(handler)),
      obs_{obs::MetricsRegistry::global().counter("http.bytes_in"),
           obs::MetricsRegistry::global().counter("http.bytes_out"),
           obs::MetricsRegistry::global().counter("http.writes"),
           obs::MetricsRegistry::global().counter("http.parse_errors"),
           obs::MetricsRegistry::global().counter("http.connections_opened"),
           obs::MetricsRegistry::global().counter("http.overload_rejects"),
           obs::MetricsRegistry::global().gauge("http.connections_open")} {}

HttpServer::~HttpServer() { stop(); }

Status HttpServer::start() {
  if (running_.load(std::memory_order_acquire)) {
    return {Errc::already_exists, "server already started"};
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return {Errc::io_error, std::string("socket: ") + std::strerror(errno)};
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(cfg_.port);
  if (::inet_pton(AF_INET, cfg_.bind_address.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return {Errc::invalid_argument, "bad bind address: " + cfg_.bind_address};
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status s{Errc::io_error, std::string("bind: ") + std::strerror(errno)};
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  if (::listen(listen_fd_, kListenBacklog) != 0) {
    Status s{Errc::io_error, std::string("listen: ") + std::strerror(errno)};
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port_ = ntohs(addr.sin_port);
  }

  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  acceptor_ = std::thread(&HttpServer::accept_loop, this);
  workers_.reserve(cfg_.workers);
  for (std::size_t i = 0; i < cfg_.workers; ++i) {
    workers_.emplace_back(&HttpServer::worker_loop, this);
  }
  return Status::ok();
}

void HttpServer::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  // Set under queue_mu_, so no worker misses the notify_all below.
  std::unique_lock queue_lock(queue_mu_);
  stopping_.store(true, std::memory_order_release);
  queue_lock.unlock();
  // Wake the acceptor out of accept().
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  // Wake workers blocked in recv() on live connections.
  {
    std::lock_guard lock(conns_mu_);
    for (int fd : open_conns_) ::shutdown(fd, SHUT_RDWR);
  }
  queue_cv_.notify_all();
  if (acceptor_.joinable()) acceptor_.join();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  // Queued-but-unserved connections are dropped on the floor at shutdown.
  {
    std::lock_guard lock(queue_mu_);
    for (int fd : pending_) ::close(fd);
    pending_.clear();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  running_.store(false, std::memory_order_release);
}

void HttpServer::track(int fd, bool add) {
  std::lock_guard lock(conns_mu_);
  if (add) {
    open_conns_.insert(fd);
    // A worker racing past stop()'s sweep self-shuts here: the sweep holds
    // conns_mu_, so either the sweep sees this fd or this sees stopping_.
    if (stopping_.load(std::memory_order_acquire)) ::shutdown(fd, SHUT_RDWR);
  } else {
    open_conns_.erase(fd);
  }
}

void HttpServer::accept_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (stopping_.load(std::memory_order_acquire)) break;
      continue;  // transient (EMFILE, ECONNABORTED): keep serving
    }
    obs_.connections_opened.inc();
    std::unique_lock lock(queue_mu_);
    if (pending_.size() >= kPendingConnections) {
      lock.unlock();
      // Overload: refuse crisply instead of queueing without bound.
      obs_.overload_rejects.inc();
      ResponseBatch refusal;
      (void)refusal.add(closing(503, "overloaded\n"));
      (void)refusal.flush(fd, obs_.writes, obs_.bytes_out);
      ::close(fd);
      continue;
    }
    pending_.push_back(fd);
    lock.unlock();
    queue_cv_.notify_one();
  }
}

void HttpServer::worker_loop() {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock lock(queue_mu_);
      queue_cv_.wait(lock, [&] {
        return stopping_.load(std::memory_order_acquire) || !pending_.empty();
      });
      if (stopping_.load(std::memory_order_acquire)) return;
      fd = pending_.front();
      pending_.pop_front();
    }
    serve_connection(fd);
  }
}

void HttpServer::serve_connection(int fd) {
  obs_.connections_open.add(1);
  track(fd, true);

  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  timeval tv{};
  tv.tv_sec = cfg_.idle_timeout_ms / 1000;
  tv.tv_usec = (cfg_.idle_timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));

  RequestParser parser(cfg_.limits);
  ResponseBatch out;
  char buf[16 << 10];
  bool open = true;
  while (open && !stopping_.load(std::memory_order_acquire)) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n == 0) break;  // peer closed
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // timeout (EAGAIN) or error: close the connection
    }
    obs_.bytes_in.inc(static_cast<std::uint64_t>(n));
    if (!parser.feed(std::string_view(buf, static_cast<std::size_t>(n)))) {
      obs_.parse_errors.inc();
      (void)out.add(closing(431, "request buffer limit exceeded\n"));
      open = false;
    }
    // Answer every request already buffered, in order, then write them all.
    while (open) {
      Request req;
      const ParseStatus st = parser.next(req);
      if (st == ParseStatus::need_more) break;
      if (st == ParseStatus::error) obs_.parse_errors.inc();
      Response rsp = st == ParseStatus::ready
                         ? handler_(req)
                         : closing(parser.error_status(), parser.error_detail() + "\n");
      open = rsp.keep_alive;
      const bool full = out.add(std::move(rsp));
      if (full && !out.flush(fd, obs_.writes, obs_.bytes_out)) open = false;
    }
    if (!out.flush(fd, obs_.writes, obs_.bytes_out)) break;
  }

  track(fd, false);
  ::close(fd);
  obs_.connections_open.sub(1);
}

}  // namespace wdoc::http
