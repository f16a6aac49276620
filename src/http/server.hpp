// Thread-pool HTTP/1.1 server: one acceptor thread, a bounded connection
// queue, and N workers that each own a connection for its keep-alive
// lifetime. Pipelined requests are answered in order, all those one read
// brought in with one sendmsg (http.writes; flush bounds in server.cpp).
//
// Backpressure is explicit and two-layered: connections beyond the kernel
// listen backlog queue in the kernel; once the user-space queue is full the
// acceptor answers `503 Service Unavailable` and closes instead of letting
// the queue grow without bound (counted in http.overload_rejects). Parse
// errors answer with the parser's suggested status (400/413/414/431/501)
// and close the connection.
//
// stop() is graceful: the listen socket and every open connection are shut
// down, so workers blocked in recv()/accept() wake immediately and join.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/result.hpp"
#include "http/message.hpp"
#include "http/parser.hpp"
#include "obs/metrics.hpp"

namespace wdoc::http {

struct ServerConfig {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;       // 0 = ephemeral; see HttpServer::port()
  std::size_t workers = 8;
  ParserLimits limits;
  // recv() timeout on idle keep-alive connections; expiry closes them.
  int idle_timeout_ms = 5000;
};

class HttpServer {
 public:
  using Handler = std::function<Response(const Request&)>;

  HttpServer(ServerConfig cfg, Handler handler);
  ~HttpServer();
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  // Binds, listens, and spawns the acceptor + workers.
  [[nodiscard]] Status start();
  // Idempotent; joins every thread before returning.
  void stop();

  // The bound port (after start(); resolves port 0 to the real one).
  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] bool running() const { return running_.load(std::memory_order_acquire); }

 private:
  void accept_loop();
  void worker_loop();
  void serve_connection(int fd);
  void track(int fd, bool add);

  ServerConfig cfg_;
  Handler handler_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<int> pending_;

  std::mutex conns_mu_;
  std::set<int> open_conns_;

  std::thread acceptor_;
  std::vector<std::thread> workers_;

  // Registry references are stable (obs/metrics.hpp), so the per-request
  // instruments are resolved once instead of per recv/send.
  struct Instruments {
    obs::Counter& bytes_in;
    obs::Counter& bytes_out;
    obs::Counter& writes;
    obs::Counter& parse_errors;
    obs::Counter& connections_opened;
    obs::Counter& overload_rejects;
    obs::Gauge& connections_open;
  };
  Instruments obs_;
};

}  // namespace wdoc::http
