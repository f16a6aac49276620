// HTTP gateway workloads: claim C8, library search and check-in/out at the
// web edge. A real HttpServer with 3 workers fronts the Gateway over three
// federated library shards (500 courses, 20% replicated) and a
// storage-backed document table. 10^5 users, Zipf s=1 course popularity;
// 55% search, 20% check-out, 7% check-in, 18% fetch (2% of fetches name an
// unknown course and expect 404).
//
// One generator thread multiplexes 3 keep-alive pipelined connections with
// poll(); each user is pinned to one connection so its ledger operations
// stay ordered, and every request carries an X-Bench-Seq header naming it.
//
// One trace, sent in two phases of opt.seconds / 2 each:
//   latency   Poisson arrivals at 30,000 req/s, about a fifth of capacity:
//             per-request path cost (p50_us, p90_us). Latency runs from the
//             scheduled send time to the parsed response, so a stall also
//             delays the requests queued behind it.
//   capacity  the rest of the trace closed-loop, 32 requests in flight per
//             connection: responses per second (ops_per_s) is CPU per
//             request, which unloaded latency does not show. Each user's
//             operations still go out in trace order, so every ledger
//             operation succeeds.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>

#include "common/hash.hpp"
#include "http/gateway.hpp"
#include "http/parser.hpp"
#include "http/server.hpp"
#include "obs/metrics.hpp"
#include "storage/database.hpp"
#include "suite.hpp"
#include "workload/library_corpus.hpp"
#include "workload/patterns.hpp"

namespace wdoc::suite {
namespace {

using workload::HttpOp;
using workload::HttpOpKind;

constexpr std::size_t kConnections = 3;
constexpr std::size_t kWorkers = 3;
constexpr double kRateQps = 30'000;
// The capacity phase's share of the trace: more than the server answers.
constexpr double kCapacityCeilingQps = 200'000;
constexpr std::size_t kClosedLoopWindow = 32;
constexpr std::size_t kWarmupRequests = 2'000;
constexpr std::size_t kQueries = 64;
constexpr std::int64_t kLateNs = 1'000'000;  // a send this late counts as late

// Per-request timestamps, indexed by the request's X-Bench-Seq. `due` is
// kept by the open loop only, and the server side (entry to and exit from
// Gateway::handle) by traced runs only.
struct Timeline {
  Timeline(std::size_t n, bool open_loop, bool traced)
      : due(open_loop ? n : 0, 0),
        write(n, 0),
        enter(traced ? n : 0, 0),
        exit(traced ? n : 0, 0),
        done(n, 0) {}
  std::vector<std::int64_t> due;  // scheduled send time
  std::vector<std::int64_t> write;
  std::vector<std::int64_t> enter;
  std::vector<std::int64_t> exit;
  std::vector<std::int64_t> done;  // response parsed
};

// DocumentSource wrapper timing every fetch; installed in traced runs.
class TimedDocs final : public http::DocumentSource {
 public:
  explicit TimedDocs(http::DocumentSource& inner) : inner_(&inner) {}

  Result<std::string> fetch(const std::string& course_number) override {
    const std::int64_t t0 = now_ns();
    Result<std::string> r = inner_->fetch(course_number);
    const double us = static_cast<double>(now_ns() - t0) / 1e3;
    std::lock_guard lock(mu_);
    fetch_us_.push_back(us);
    return r;
  }

  [[nodiscard]] std::vector<double> fetch_us() {
    std::lock_guard lock(mu_);
    return fetch_us_;
  }

 private:
  http::DocumentSource* inner_;
  std::mutex mu_;
  std::vector<double> fetch_us_;
};

std::string render(const HttpOp& op, std::uint64_t seq, const std::vector<std::string>& courses,
                   const std::vector<std::string>& queries) {
  std::string target;
  const char* method = "GET";
  switch (op.kind) {
    case HttpOpKind::search: {
      target = "/search?q=";
      for (char c : queries[op.course_index % queries.size()]) target += c == ' ' ? '+' : c;
      target += "&limit=10";
      break;
    }
    case HttpOpKind::check_out:
    case HttpOpKind::check_in:
      method = "POST";
      target = std::string(op.kind == HttpOpKind::check_out ? "/check-out" : "/check-in") +
               "?course=" + courses[op.course_index] + "&student=" + std::to_string(op.user);
      break;
    case HttpOpKind::fetch:
      target = "/doc?course=" + (op.bogus ? "XX" + std::to_string(op.course_index)
                                          : courses[op.course_index]);
      break;
  }
  std::string req = std::string(method) + " " + target +
                    " HTTP/1.1\r\nHost: wdoc\r\nX-Bench-Seq: " + std::to_string(seq) + "\r\n";
  if (op.kind == HttpOpKind::check_out || op.kind == HttpOpKind::check_in) {
    req += "Content-Length: 0\r\n";
  }
  return req + "\r\n";
}

// A client socket connected to the server, closed on destruction.
class Socket {
 public:
  explicit Socket(std::uint16_t port) : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    int one = 1;
    if (fd_ < 0 || ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one) != 0 ||
        ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
      std::fprintf(stderr, "connect: %s\n", std::strerror(errno));
      std::abort();
    }
  }
  ~Socket() { ::close(fd_); }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  [[nodiscard]] int fd() const { return fd_; }

 private:
  int fd_;
};

// One server with its catalog, documents and three open client sockets.
// Members are declared so that sockets close and the server stops before
// the gateway and the stores it uses are destroyed.
struct Env {
  std::vector<library::VirtualLibrary> shards;
  std::unique_ptr<storage::Database> db;
  std::unique_ptr<http::StorageDocumentSource> docs;
  std::unique_ptr<TimedDocs> timed_docs;  // traced runs only
  std::unique_ptr<http::Gateway> gateway;
  // Where the server-side handler wrapper records; set for the measured
  // phase of a traced run only.
  std::atomic<Timeline*> timeline{nullptr};
  std::unique_ptr<http::HttpServer> server;
  std::vector<std::unique_ptr<Socket>> sockets;
  std::vector<std::uint64_t> search_ref;  // body hash per query index
  std::vector<std::uint64_t> doc_ref;     // body hash per course index
};

struct Input {
  workload::LibraryCorpusConfig corpus;
  std::vector<library::LibraryEntry> entries;
  std::vector<std::string> courses;
  std::vector<std::string> queries;
};

std::uint64_t body_hash(const http::Response& rsp) {
  return fnv1a64(std::span<const std::uint8_t>(rsp.body.data(), rsp.body.size()));
}

// Answer of Gateway::handle for the request `op` renders to, called
// directly without the socket path.
http::Response handle_directly(http::Gateway& gw, const HttpOp& op, const Input& in) {
  http::RequestParser parser;
  http::Request req;
  if (!parser.feed(render(op, 0, in.courses, in.queries)) ||
      parser.next(req) != http::ParseStatus::ready) {
    std::fprintf(stderr, "benchmark rendered an unparsable request\n");
    std::abort();
  }
  return gw.handle(req);
}

std::unique_ptr<Env> make_env(const Input& in, bool traced) {
  auto env = std::make_unique<Env>();
  env->shards.resize(in.corpus.shards);
  workload::populate_shards(env->shards, in.entries, in.corpus);
  env->db = storage::Database::in_memory();
  env->docs = std::make_unique<http::StorageDocumentSource>(*env->db);
  for (const auto& e : in.entries) {
    env->docs->put(e.course_number, workload::course_document(e)).expect("put document");
  }
  http::DocumentSource* docs = env->docs.get();
  if (traced) {
    env->timed_docs = std::make_unique<TimedDocs>(*env->docs);
    docs = env->timed_docs.get();
  }
  std::vector<library::VirtualLibrary*> shard_ptrs;
  for (auto& s : env->shards) shard_ptrs.push_back(&s);
  env->gateway = std::make_unique<http::Gateway>(http::GatewayConfig{}, shard_ptrs, docs);

  // References for the body checks: what the gateway answers when called
  // directly, for every query and every course.
  for (std::size_t q = 0; q < in.queries.size(); ++q) {
    HttpOp op;
    op.kind = HttpOpKind::search;
    op.course_index = q;
    env->search_ref.push_back(body_hash(handle_directly(*env->gateway, op, in)));
  }
  for (std::size_t c = 0; c < in.courses.size(); ++c) {
    HttpOp op;
    op.kind = HttpOpKind::fetch;
    op.course_index = c;
    env->doc_ref.push_back(body_hash(handle_directly(*env->gateway, op, in)));
  }

  http::ServerConfig server_cfg;
  server_cfg.workers = kWorkers;
  http::Gateway* gw = env->gateway.get();
  std::atomic<Timeline*>* probe = &env->timeline;
  env->server = std::make_unique<http::HttpServer>(
      server_cfg, [gw, probe](const http::Request& req) {
        Timeline* timeline = probe->load(std::memory_order_acquire);
        if (timeline == nullptr) return gw->handle(req);
        const std::int64_t t0 = now_ns();
        http::Response rsp = gw->handle(req);
        const std::int64_t t1 = now_ns();
        if (const std::string* seq = req.header("x-bench-seq")) {
          const std::uint64_t i = std::strtoull(seq->c_str(), nullptr, 10);
          if (i < timeline->enter.size()) {
            timeline->enter[i] = t0;
            timeline->exit[i] = t1;
          }
        }
        return rsp;
      });
  env->server->start().expect("server start");
  for (std::size_t c = 0; c < kConnections; ++c) {
    env->sockets.push_back(std::make_unique<Socket>(env->server->port()));
  }
  return env;
}

// A response read off the wire: status and body hash.
struct Reply {
  int status = 0;
  std::uint64_t hash = 0;
};

// Extracts the next complete response from `buf` starting at `pos`.
bool next_reply(const std::string& buf, std::size_t& pos, Reply& out) {
  const std::size_t head_end = buf.find("\r\n\r\n", pos);
  if (head_end == std::string::npos) return false;
  const std::string_view head(buf.data() + pos, head_end - pos);
  std::size_t length = 0;
  if (const std::size_t cl = head.find("Content-Length: "); cl != std::string_view::npos) {
    length = std::strtoull(head.data() + cl + 16, nullptr, 10);
  }
  const std::size_t body = head_end + 4;
  if (buf.size() - body < length) return false;
  out.status = std::atoi(head.data() + 9);  // "HTTP/1.1 200 ..."
  out.hash = fnv1a64(std::string_view(buf.data() + body, length));
  pos = body + length;
  return true;
}

struct Conn {
  int fd = -1;
  std::vector<std::uint32_t> ops;  // this connection's operations, in order
  std::size_t next = 0;            // closed loop: next of `ops` to send
  std::string out;                 // rendered, not yet written
  std::deque<std::pair<std::size_t, std::uint32_t>> unsent;  // (end in out, seq)
  std::string in;
  std::deque<std::uint32_t> inflight;  // written or queued, awaiting reply
};

// Per-run outcome of drive().
struct Drive {
  std::size_t sent = 0;
  std::size_t answered = 0;
  std::size_t failed = 0;
  std::array<std::size_t, 4> sent_by_kind{};
  std::int64_t first_write = 0;
  std::int64_t last_done = 0;
};

// Sends ops[first, last) over the connections and checks every reply. Open
// loop when `window` is 0 (op i is due at start + at_micros); otherwise
// closed loop: each connection keeps `window` requests in flight until
// `stop_ns`.
Drive drive(Env& env, const Input& in, const std::vector<HttpOp>& ops, std::size_t first,
            std::size_t last, Timeline& tl, std::size_t window, std::int64_t start_ns,
            std::int64_t stop_ns) {
  std::array<Conn, kConnections> conns;
  for (std::size_t c = 0; c < kConnections; ++c) conns[c].fd = env.sockets[c]->fd();
  for (auto i = static_cast<std::uint32_t>(first); i < last; ++i) {
    conns[ops[i].user % kConnections].ops.push_back(i);
  }
  Drive d;
  auto enqueue = [&](Conn& c, std::uint32_t seq) {
    c.out += render(ops[seq], seq, in.courses, in.queries);
    c.unsent.emplace_back(c.out.size(), seq);
    c.inflight.push_back(seq);
    ++d.sent;
    ++d.sent_by_kind[static_cast<std::size_t>(ops[seq].kind)];
  };
  auto flush = [&](Conn& c) {
    while (!c.out.empty()) {
      const ssize_t n = ::send(c.fd, c.out.data(), c.out.size(), MSG_DONTWAIT | MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        std::fprintf(stderr, "send: %s\n", std::strerror(errno));
        std::abort();
      }
      const std::int64_t now = now_ns();
      if (d.first_write == 0) d.first_write = now;
      const auto sent = static_cast<std::size_t>(n);
      c.out.erase(0, sent);
      while (!c.unsent.empty() && c.unsent.front().first <= sent) {
        tl.write[c.unsent.front().second] = now;
        c.unsent.pop_front();
      }
      for (auto& u : c.unsent) u.first -= sent;
    }
  };
  auto check = [&](std::uint32_t seq, const Reply& r) {
    const HttpOp& op = ops[seq];
    bool ok = false;
    switch (op.kind) {
      case HttpOpKind::search:
        ok = r.status == 200 && r.hash == env.search_ref[op.course_index % in.queries.size()];
        break;
      case HttpOpKind::fetch:
        ok = op.bogus ? r.status == 404
                      : r.status == 200 && r.hash == env.doc_ref[op.course_index];
        break;
      case HttpOpKind::check_out:
      case HttpOpKind::check_in:
        ok = r.status == 200;
        break;
    }
    if (!ok) ++d.failed;
  };

  std::size_t due = first;  // open loop: next op in schedule order
  std::int64_t last_progress = now_ns();
  for (;;) {
    const std::int64_t now = now_ns();
    if (window == 0) {
      while (due < last && start_ns + ops[due].at_micros * 1000 <= now) {
        tl.due[due] = start_ns + ops[due].at_micros * 1000;
        enqueue(conns[ops[due].user % kConnections], static_cast<std::uint32_t>(due));
        ++due;
      }
    } else if (now < stop_ns) {
      for (Conn& c : conns) {
        while (c.inflight.size() < window && c.next < c.ops.size()) enqueue(c, c.ops[c.next++]);
      }
    }
    for (Conn& c : conns) flush(c);

    bool sending = window == 0 ? due < last : now < stop_ns;
    if (window != 0 && sending) {
      sending = false;
      for (const Conn& c : conns) sending = sending || c.next < c.ops.size();
    }
    if (!sending && d.answered == d.sent) break;
    if (d.answered < d.sent && now - last_progress > 10'000'000'000) {
      std::fprintf(stderr, "no response for 10 s; %zu of %zu answered\n", d.answered, d.sent);
      d.failed += d.sent - d.answered;
      break;
    }

    std::array<pollfd, kConnections> fds{};
    for (std::size_t c = 0; c < kConnections; ++c) {
      fds[c].fd = conns[c].fd;
      fds[c].events = static_cast<short>(POLLIN | (conns[c].out.empty() ? 0 : POLLOUT));
    }
    std::int64_t wait_ns = 100'000'000;
    if (window == 0 && due < last) {
      wait_ns = std::max<std::int64_t>(0, start_ns + ops[due].at_micros * 1000 - now);
    } else if (window != 0 && now < stop_ns) {
      wait_ns = std::min(wait_ns, stop_ns - now);
    }
    const timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                      static_cast<long>(wait_ns % 1'000'000'000)};
    if (::ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0) continue;

    for (std::size_t ci = 0; ci < kConnections; ++ci) {
      if ((fds[ci].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      Conn& c = conns[ci];
      char buf[64 << 10];
      for (;;) {
        const ssize_t n = ::recv(c.fd, buf, sizeof buf, MSG_DONTWAIT);
        if (n > 0) {
          c.in.append(buf, static_cast<std::size_t>(n));
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        break;
      }
      const std::int64_t t = now_ns();
      std::size_t pos = 0;
      Reply r;
      while (!c.inflight.empty() && next_reply(c.in, pos, r)) {
        const std::uint32_t seq = c.inflight.front();
        c.inflight.pop_front();
        tl.done[seq] = t;
        check(seq, r);
        ++d.answered;
        last_progress = t;
        d.last_done = t;
      }
      c.in.erase(0, pos);
    }
  }
  return d;
}

std::uint64_t counter(const char* name, obs::Labels labels = {}) {
  return obs::MetricsRegistry::global().counter(name, labels).value();
}

const char* const kEndpoints[4] = {"search", "check-out", "check-in", "doc"};

}  // namespace

Report run_gateway(const Options& opt) {
  Input in;
  in.corpus.courses = 500;
  in.corpus.shards = 3;
  in.corpus.seed = opt.seed;
  in.entries = workload::library_corpus(in.corpus);
  for (const auto& e : in.entries) in.courses.push_back(e.course_number);
  in.queries = workload::query_pool(in.corpus, kQueries);

  std::vector<HttpOp> warmup;
  for (std::size_t i = 0; i < kWarmupRequests; ++i) {
    HttpOp op;
    op.kind = i % 2 == 0 ? HttpOpKind::search : HttpOpKind::fetch;
    op.course_index = i % in.courses.size();
    op.user = i;
    warmup.push_back(op);
  }

  Report r;
  double setup_s = 0;
  auto env = timed_setup(
      [&] {
        auto e = make_env(in, opt.traced());
        Timeline scratch(warmup.size(), false, false);
        const Drive w =
            drive(*e, in, warmup, 0, warmup.size(), scratch, kClosedLoopWindow, 0, INT64_MAX);
        r.check(w.failed == 0, "warm-up request failed");
        return e;
      },
      setup_s);
  r.metrics["setup_s"] = {setup_s, "s"};
  if (opt.setup_only) return r;

  // The latency phase sends the trace's first phase_s seconds at kRateQps;
  // the capacity phase gets the rest, sized past what the server answers.
  const double phase_s = opt.seconds / 2;
  workload::HttpTraceConfig trace_cfg;
  trace_cfg.users = 100'000;
  trace_cfg.courses = in.corpus.courses;
  trace_cfg.rate_qps = kRateQps;
  trace_cfg.seed = opt.seed;
  trace_cfg.ops = static_cast<std::size_t>((kRateQps + kCapacityCeilingQps) * phase_s);
  const std::vector<HttpOp> ops = workload::open_loop_http_trace(trace_cfg);
  const auto phase_ns = static_cast<std::int64_t>(phase_s * 1e9);
  const auto open_ops = static_cast<std::size_t>(
      std::partition_point(ops.begin(), ops.end(),
                           [&](const HttpOp& op) { return op.at_micros * 1000 < phase_ns; }) -
      ops.begin());
  // Both phases are cut into windows of about a second for their medians.
  const std::int64_t windows = std::max<std::int64_t>(1, phase_ns / 1'000'000'000);
  const std::int64_t window_ns = phase_ns / windows;

  std::array<std::uint64_t, 4> requests_before{};
  for (std::size_t k = 0; k < 4; ++k) {
    requests_before[k] = counter("http.requests", {{"endpoint", kEndpoints[k]}});
  }
  const std::uint64_t bytes_in = counter("http.bytes_in");
  const std::uint64_t bytes_out = counter("http.bytes_out");
  const std::uint64_t rejects = counter("http.overload_rejects");
  const std::uint64_t parse_errors = counter("http.parse_errors");
  const std::uint64_t results = counter("http.search.results");

  Timeline tl(ops.size(), true, opt.traced());
  if (opt.traced()) env->timeline.store(&tl, std::memory_order_release);
  const std::int64_t start = now_ns() + 10'000'000;
  const Drive open = drive(*env, in, ops, 0, open_ops, tl, 0, start, 0);
  const std::int64_t closed_start = now_ns();
  const Drive closed = drive(*env, in, ops, open_ops, ops.size(), tl, kClosedLoopWindow,
                             closed_start, closed_start + phase_ns);
  const std::vector<double> fetch_us =
      env->timed_docs ? env->timed_docs->fetch_us() : std::vector<double>{};
  env.reset();

  r.attempted = open.sent + closed.sent;
  r.failed = open.failed + closed.failed;
  for (std::size_t k = 0; k < 4; ++k) {
    const std::uint64_t served =
        counter("http.requests", {{"endpoint", kEndpoints[k]}}) - requests_before[k];
    r.check(served == open.sent_by_kind[k] + closed.sent_by_kind[k],
            std::string("server counted a different number of ") + kEndpoints[k] + " requests");
  }

  // Answered requests in trace order. In the capacity phase they are a
  // prefix of each connection's share, not of the trace.
  std::vector<std::uint32_t> answered_open, answered_closed;
  for (std::uint32_t i = 0; i < ops.size(); ++i) {
    if (tl.done[i] != 0) (i < open_ops ? answered_open : answered_closed).push_back(i);
  }
  auto us = [](std::int64_t to, std::int64_t from) {
    return static_cast<double>(to - from) / 1e3;
  };

  // Latency phase: from the scheduled send. The tail reported is the median
  // of the per-window p90s. On a shared host the whole-run p99 moved by an
  // order of magnitude between runs (150 us to 4.8 ms) and even the median of
  // per-window p99s spread by 17-31% over ten runs; the p90 spread by 3%.
  std::vector<double> latency;
  std::vector<std::vector<double>> by_window(static_cast<std::size_t>(windows));
  for (std::uint32_t i : answered_open) {
    latency.push_back(us(tl.done[i], tl.due[i]));
    const std::int64_t w = std::min(ops[i].at_micros * 1000 / window_ns, windows - 1);
    by_window[static_cast<std::size_t>(w)].push_back(latency.back());
  }
  // Capacity phase: responses per window, over the windows that ended
  // before sending stopped (at the phase's end, or when the trace ran out).
  std::int64_t sending_until = closed_start + phase_ns;
  if (closed.sent == ops.size() - open_ops) {
    sending_until = 0;
    for (std::uint32_t i : answered_closed) sending_until = std::max(sending_until, tl.write[i]);
  }
  std::vector<double> per_window(static_cast<std::size_t>(windows), 0);
  for (std::uint32_t i : answered_closed) {
    const std::int64_t w = (tl.done[i] - closed_start) / window_ns;
    if (w < windows) per_window[static_cast<std::size_t>(w)] += 1;
  }
  std::vector<double> rates;
  for (std::int64_t w = 0; w < windows; ++w) {
    if (closed_start + (w + 1) * window_ns <= sending_until || w == 0) {
      rates.push_back(per_window[static_cast<std::size_t>(w)] * 1e9 /
                      static_cast<double>(window_ns));
    }
  }
  r.metrics["p50_us"] = {percentile(latency, 0.50), "us"};
  r.metrics["p90_us"] = {median_of_percentiles(std::move(by_window), 0.90), "us"};
  r.metrics["ops_per_s"] = {median(std::move(rates)), "1/s"};
  r.metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  if (!opt.traced()) return r;

  // Each latency-phase request's stages: scheduled -> written (generator
  // lag) -> handler entry -> handler exit -> response parsed. They explain
  // p50_us and p90_us; the handlers' busy share in the capacity phase
  // explains ops_per_s.
  std::vector<double> total;
  std::vector<std::vector<double>> stages(4);
  const char* const names[4] = {"search", "check_out", "check_in", "doc"};
  std::array<std::vector<double>, 4> by_endpoint;
  std::size_t late = 0;
  for (std::uint32_t i : answered_open) {
    if (tl.enter[i] == 0) continue;
    total.push_back(us(tl.done[i], tl.due[i]));
    stages[0].push_back(us(tl.write[i], tl.due[i]));
    stages[1].push_back(us(tl.enter[i], tl.write[i]));
    stages[2].push_back(us(tl.exit[i], tl.enter[i]));
    stages[3].push_back(us(tl.done[i], tl.exit[i]));
    by_endpoint[static_cast<std::size_t>(ops[i].kind)].push_back(stages[2].back());
    if (tl.write[i] - tl.due[i] > kLateNs) ++late;
  }
  double closed_handle_s = 0;
  std::size_t reached = total.size();
  for (std::uint32_t i : answered_closed) {
    if (tl.enter[i] == 0) continue;
    closed_handle_s += static_cast<double>(tl.exit[i] - tl.enter[i]) * 1e-9;
    ++reached;
  }
  r.check(reached == answered_open.size() + answered_closed.size(),
          "a request reached the handler without X-Bench-Seq");
  const double count = static_cast<double>(answered_open.size() + answered_closed.size());
  const double closed_s = static_cast<double>(closed.last_done - closed.first_write) * 1e-9;
  r.layers["gen.lag_p99_us"] = {percentile(stages[0], 0.99), "us"};
  r.layers["gen.late_share"] = {
      static_cast<double>(late) / static_cast<double>(answered_open.size()), "ratio"};
  r.layers["http.ingress_p50_us"] = {percentile(stages[1], 0.5), "us"};
  r.layers["http.egress_p50_us"] = {percentile(stages[3], 0.5), "us"};
  r.layers["http.bytes_in_per_req"] = {
      static_cast<double>(counter("http.bytes_in") - bytes_in) / count, "bytes"};
  r.layers["http.bytes_out_per_req"] = {
      static_cast<double>(counter("http.bytes_out") - bytes_out) / count, "bytes"};
  r.layers["http.overload_rejects"] = {
      static_cast<double>(counter("http.overload_rejects") - rejects), "count"};
  r.layers["http.parse_errors"] = {
      static_cast<double>(counter("http.parse_errors") - parse_errors), "count"};
  for (std::size_t k = 0; k < 4; ++k) {
    r.layers[std::string("gateway.handle_p50_us.") + names[k]] = {
        percentile(by_endpoint[k], 0.5), "us"};
    r.layers[std::string("gateway.handle_p99_us.") + names[k]] = {
        percentile(by_endpoint[k], 0.99), "us"};
  }
  r.layers["gateway.busy_share"] = {closed_handle_s / (closed_s * kWorkers), "ratio"};
  r.layers["search.results_per_query"] = {
      static_cast<double>(counter("http.search.results") - results) /
          static_cast<double>(open.sent_by_kind[0] + closed.sent_by_kind[0]),
      "count"};
  r.layers["storage.fetch_p50_us"] = {percentile(fetch_us, 0.5), "us"};
  r.layers["layer_sum_ratio"] = {layer_sum_ratio(total, stages), "ratio"};

  // A 1% sample of requests of both phases.
  std::vector<TraceEvent> events;
  for (const auto* answered : {&answered_open, &answered_closed}) {
    for (std::size_t k = 0; k < answered->size(); k += 100) {
      const std::uint32_t i = (*answered)[k];
      const std::uint64_t tid = ops[i].user % kConnections + 1;
      if (i < open_ops) events.push_back({"gen.lag", tl.due[i], tl.write[i] - tl.due[i], tid});
      events.push_back({"http.ingress", tl.write[i], tl.enter[i] - tl.write[i], tid});
      events.push_back({std::string("gateway.handle.") + names[static_cast<int>(ops[i].kind)],
                        tl.enter[i], tl.exit[i] - tl.enter[i], tid});
      events.push_back({"http.egress", tl.exit[i], tl.done[i] - tl.exit[i], tid});
    }
  }
  r.check(write_chrome_trace(opt.trace_dir + "/" + opt.workload + ".trace.json", events, {}),
          "could not write the trace file");
  return r;
}

}  // namespace wdoc::suite
