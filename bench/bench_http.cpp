// E-http: the gateway under production load.
//
// A real HttpServer fronts three federated library shards (500 courses,
// 20% replicated) and a storage-backed document table. An *open-loop*
// Zipfian workload simulating 10^5 users (search / check-out / check-in /
// document-fetch, Poisson arrivals at the offered rate) is driven over
// `--conns` keep-alive pipelined connections; each simulated user is routed
// to one connection so its ledger ops stay FIFO. Latency is measured
// open-loop style — completion time minus *scheduled* arrival — so
// queueing delay counts against the server instead of throttling load.
//
// Reported: per-endpoint p50/p99 and sustained QPS on stdout, and the full
// metrics registry via --metrics-json (baselined in BENCH_http.json).
// Request/response/byte counters are deterministic for a given seed and CI
// drift-checks them; latency is host-dependent and ungated here (the repo
// benchmark's `gateway` workload, bench/suite, owns the gated figures).
//
// Tracing drill: --stall-micros=N --stall-every=K injects an N-microsecond
// stall into every K-th document fetch. The bench then self-checks the
// observability acceptance path: every stalled request must be tail-promoted
// with its full gateway→storage span chain, the fattest doc-latency bucket's
// exemplar must resolve to a captured trace, and the http.doc.latency
// fast-burn SLO alert must fire. GET /debug/slo is printed either way.
//
// Flags: --users= --courses= --ops= --rate= --conns= --seed= --workers=
//        --stall-micros= --stall-every=
#include <algorithm>
#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <unordered_map>
#include <vector>

#include "http/client.hpp"
#include "http/gateway.hpp"
#include "http/server.hpp"
#include "obs/request_trace.hpp"
#include "obs/trace.hpp"
#include "sim_cluster.hpp"
#include "storage/database.hpp"
#include "workload/library_corpus.hpp"
#include "workload/patterns.hpp"

using namespace wdoc;
using namespace wdoc::bench;

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t flag_u64(int argc, char** argv, const char* name, std::uint64_t fallback) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::strtoull(argv[i] + prefix.size(), nullptr, 10);
    }
  }
  return fallback;
}

std::string encode_query(const std::string& q) {
  std::string out;
  for (char c : q) out += (c == ' ') ? '+' : c;
  return out;
}

struct PendingOp {
  std::int64_t scheduled_us = 0;  // absolute, from bench start
  workload::HttpOpKind kind = workload::HttpOpKind::search;
  bool bogus = false;
};

struct ConnResult {
  std::vector<std::int64_t> latency_us;  // per completed request, open-loop
  std::array<std::vector<std::int64_t>, 4> by_kind;
  std::int64_t last_completion_us = 0;
  std::uint64_t wrong_status = 0;
};

// One keep-alive pipelined connection: a writer thread paces requests on
// the open-loop schedule while a reader drains responses in FIFO order.
ConnResult drive_connection(const std::string& host, std::uint16_t port,
                            const std::vector<workload::HttpOp>& ops,
                            const std::vector<std::string>& courses,
                            const std::vector<std::string>& queries,
                            Clock::time_point start) {
  ConnResult result;
  http::HttpClient client;
  client.connect(host, port).expect("bench connect");
  (void)client.get("/healthz").expect("warmup");

  std::mutex mu;
  std::deque<PendingOp> inflight;
  std::condition_variable cv;

  std::thread writer([&] {
    for (const workload::HttpOp& op : ops) {
      std::this_thread::sleep_until(start + std::chrono::microseconds(op.at_micros));
      std::string target;
      std::string method = "GET";
      switch (op.kind) {
        case workload::HttpOpKind::search:
          target = "/search?q=" +
                   encode_query(queries[op.course_index % queries.size()]) +
                   "&limit=10";
          break;
        case workload::HttpOpKind::check_out:
          method = "POST";
          target = "/check-out?course=" + courses[op.course_index] +
                   "&student=" + std::to_string(op.user);
          break;
        case workload::HttpOpKind::check_in:
          method = "POST";
          target = "/check-in?course=" + courses[op.course_index] +
                   "&student=" + std::to_string(op.user);
          break;
        case workload::HttpOpKind::fetch:
          target = "/doc?course=" + (op.bogus ? "XX" + std::to_string(op.course_index)
                                              : courses[op.course_index]);
          break;
      }
      {
        std::lock_guard lock(mu);
        inflight.push_back(PendingOp{op.at_micros, op.kind, op.bogus});
      }
      cv.notify_one();
      client.send_request(method, target).expect("bench send");
    }
  });

  for (std::size_t done = 0; done < ops.size(); ++done) {
    PendingOp pending;
    {
      std::unique_lock lock(mu);
      cv.wait(lock, [&] { return !inflight.empty(); });
      pending = inflight.front();
      inflight.pop_front();
    }
    http::ClientResponse rsp = client.read_response().expect("bench read");
    const std::int64_t now_us = std::chrono::duration_cast<std::chrono::microseconds>(
                                    Clock::now() - start)
                                    .count();
    const int want = pending.bogus ? 404 : 200;
    if (rsp.status != want) ++result.wrong_status;
    const std::int64_t latency = now_us - pending.scheduled_us;
    result.latency_us.push_back(latency);
    result.by_kind[static_cast<std::size_t>(pending.kind)].push_back(latency);
    result.last_completion_us = now_us;
  }
  writer.join();
  return result;
}

// DocumentSource wrapper that stalls every K-th fetch and remembers which
// traces it stalled (the ambient per-thread context names the request).
class StallingDocs final : public http::DocumentSource {
 public:
  StallingDocs(http::DocumentSource& inner, std::int64_t stall_micros,
               std::uint64_t every)
      : inner_(&inner), stall_micros_(stall_micros), every_(every) {}

  Result<std::string> fetch(const std::string& course_number) override {
    const std::uint64_t n = calls_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (stall_micros_ > 0 && every_ != 0 && n % every_ == 0) {
      obs::SpanScope span("storage.stall");
      std::this_thread::sleep_for(std::chrono::microseconds(stall_micros_));
      const std::uint64_t trace = obs::RequestTracer::current().trace_id;
      if (trace != 0) {
        std::lock_guard lock(mu_);
        stalled_.push_back(trace);
      }
    }
    return inner_->fetch(course_number);
  }

  [[nodiscard]] std::vector<std::uint64_t> stalled() const {
    std::lock_guard lock(mu_);
    return stalled_;
  }

 private:
  http::DocumentSource* inner_;
  std::int64_t stall_micros_;
  std::uint64_t every_;
  std::atomic<std::uint64_t> calls_{0};
  mutable std::mutex mu_;
  std::vector<std::uint64_t> stalled_;
};

std::int64_t percentile(std::vector<std::int64_t>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t idx = static_cast<std::size_t>(p * static_cast<double>(v.size() - 1));
  return v[idx];
}

}  // namespace

int main(int argc, char** argv) {
  MetricsDump metrics(argc, argv);

  workload::HttpTraceConfig trace_cfg;
  trace_cfg.users = flag_u64(argc, argv, "users", 100'000);
  trace_cfg.courses = flag_u64(argc, argv, "courses", 500);
  trace_cfg.ops = flag_u64(argc, argv, "ops", 40'000);
  // The default offered rate is sized so a single CI core sustains it with
  // headroom (the gateway saturates one core around 45k req/s); push --rate
  // up to find the saturation point on bigger machines.
  trace_cfg.rate_qps = static_cast<double>(flag_u64(argc, argv, "rate", 30'000));
  trace_cfg.seed = flag_u64(argc, argv, "seed", 4242);
  const std::size_t conns = flag_u64(argc, argv, "conns", 8);
  const std::size_t workers = flag_u64(argc, argv, "workers", 8);
  const auto stall_micros =
      static_cast<std::int64_t>(flag_u64(argc, argv, "stall-micros", 0));
  const std::uint64_t stall_every = flag_u64(argc, argv, "stall-every", 3);

  std::printf("=== E-http: gateway under an open-loop Zipfian workload ===\n");
  std::printf("%zu simulated users, %zu courses on 3 shards, %zu requests at "
              "%.0f req/s over %zu pipelined connections, %zu workers\n\n",
              trace_cfg.users, trace_cfg.courses, trace_cfg.ops, trace_cfg.rate_qps,
              conns, workers);

  // --- catalog + documents + gateway ---------------------------------------
  workload::LibraryCorpusConfig corpus_cfg;
  corpus_cfg.courses = trace_cfg.courses;
  corpus_cfg.shards = 3;
  corpus_cfg.seed = trace_cfg.seed;
  auto entries = workload::library_corpus(corpus_cfg);
  std::vector<library::VirtualLibrary> shards(corpus_cfg.shards);
  workload::populate_shards(shards, entries, corpus_cfg);
  auto db = storage::Database::in_memory();
  http::StorageDocumentSource docs(*db);
  std::vector<std::string> courses;
  for (const auto& e : entries) {
    docs.put(e.course_number, workload::course_document(e)).expect("put doc");
    courses.push_back(e.course_number);
  }
  std::vector<library::VirtualLibrary*> shard_ptrs;
  for (auto& s : shards) shard_ptrs.push_back(&s);
  StallingDocs stalling(docs, stall_micros, stall_every);
  http::GatewayConfig gw_cfg;
  // Evaluate the SLO engine every 250 ms: short enough that a stall drill
  // fires its fast-burn alert within the bench run, long enough to be
  // negligible per request.
  gw_cfg.slo_eval_period_micros = 250'000;
  http::Gateway gateway(gw_cfg, shard_ptrs, &stalling);

  http::ServerConfig server_cfg;
  server_cfg.workers = workers;
  http::HttpServer server(server_cfg,
                          [&](const http::Request& req) { return gateway.handle(req); });
  server.start().expect("server start");

  // --- schedule ------------------------------------------------------------
  auto trace = workload::open_loop_http_trace(trace_cfg);
  auto queries = workload::query_pool(corpus_cfg, 64);
  // Route each user to one connection so its ledger ops stay ordered.
  std::vector<std::vector<workload::HttpOp>> per_conn(conns);
  for (const auto& op : trace) per_conn[op.user % conns].push_back(op);

  // --- drive ---------------------------------------------------------------
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(50);
  std::vector<ConnResult> results(conns);
  std::vector<std::thread> drivers;
  drivers.reserve(conns);
  for (std::size_t c = 0; c < conns; ++c) {
    drivers.emplace_back([&, c] {
      results[c] = drive_connection("127.0.0.1", server.port(), per_conn[c], courses,
                                    queries, start);
    });
  }
  for (auto& d : drivers) d.join();

  // SLO status as the server saw it, after a forced evaluation.
  std::string slo_json;
  {
    http::HttpClient probe;
    probe.connect("127.0.0.1", server.port()).expect("slo probe connect");
    http::ClientResponse rsp = probe.get("/debug/slo").expect("slo probe");
    slo_json = rsp.body;
  }
  server.stop();

  // --- report --------------------------------------------------------------
  std::vector<std::int64_t> all;
  std::array<std::vector<std::int64_t>, 4> by_kind;
  std::int64_t makespan_us = 0;
  std::uint64_t wrong = 0;
  for (auto& r : results) {
    all.insert(all.end(), r.latency_us.begin(), r.latency_us.end());
    for (std::size_t k = 0; k < 4; ++k) {
      by_kind[k].insert(by_kind[k].end(), r.by_kind[k].begin(), r.by_kind[k].end());
    }
    makespan_us = std::max(makespan_us, r.last_completion_us);
    wrong += r.wrong_status;
  }
  const double qps =
      static_cast<double>(all.size()) / (static_cast<double>(makespan_us) / 1e6);
  const std::int64_t p50 = percentile(all, 0.50);
  const std::int64_t p99 = percentile(all, 0.99);

  std::printf("  %-10s %10s %12s %12s\n", "endpoint", "requests", "p50(us)", "p99(us)");
  auto& reg = obs::MetricsRegistry::global();
  for (std::size_t k = 0; k < 4; ++k) {
    auto kind = static_cast<workload::HttpOpKind>(k);
    std::printf("  %-10s %10zu %12lld %12lld\n", workload::http_op_kind_name(kind),
                by_kind[k].size(),
                static_cast<long long>(percentile(by_kind[k], 0.50)),
                static_cast<long long>(percentile(by_kind[k], 0.99)));
    reg.counter("http_bench.ops", {{"kind", workload::http_op_kind_name(kind)}})
        .inc(by_kind[k].size());
  }
  std::printf("\n  overall: %zu requests in %.2f s -> %.0f req/s sustained\n",
              all.size(), static_cast<double>(makespan_us) / 1e6, qps);
  std::printf("  open-loop latency: p50 %lld us, p99 %lld us\n",
              static_cast<long long>(p50), static_cast<long long>(p99));
  if (wrong != 0) {
    std::printf("  UNEXPECTED STATUSES: %llu\n", static_cast<unsigned long long>(wrong));
  }

  reg.gauge("http_bench.simulated_users").set(static_cast<std::int64_t>(trace_cfg.users));
  reg.counter("http_bench.wrong_status").inc(wrong);

  std::printf("\n  tracing: %llu requests, promoted head=%llu error=%llu "
              "tail=%llu, discarded=%llu\n",
              static_cast<unsigned long long>(reg.counter("obs.trace.requests").value()),
              static_cast<unsigned long long>(
                  reg.counter("obs.trace.promoted", {{"reason", "head"}}).value()),
              static_cast<unsigned long long>(
                  reg.counter("obs.trace.promoted", {{"reason", "error"}}).value()),
              static_cast<unsigned long long>(
                  reg.counter("obs.trace.promoted", {{"reason", "tail_latency"}}).value()),
              static_cast<unsigned long long>(reg.counter("obs.trace.discarded").value()));
  std::printf("  slo: %s\n", slo_json.c_str());

  // --- stall-drill self-check ----------------------------------------------
  bool drill_ok = true;
  if (stall_micros > 0) {
    // (a) every stalled request was tail-promoted with its complete
    // gateway -> storage span chain.
    const std::vector<obs::SpanRecord> spans = obs::Tracer::global().spans();
    std::unordered_map<std::uint64_t, std::set<std::string>> names_by_trace;
    for (const obs::SpanRecord& s : spans) {
      if (s.trace_id != 0) names_by_trace[s.trace_id].insert(s.name);
    }
    const std::vector<std::uint64_t> stalled = stalling.stalled();
    std::size_t incomplete = 0;
    for (std::uint64_t t : stalled) {
      auto it = names_by_trace.find(t);
      if (it == names_by_trace.end() || it->second.count("GET /doc") == 0 ||
          it->second.count("gateway.doc") == 0 ||
          it->second.count("storage.stall") == 0 ||
          it->second.count("storage.doc.fetch") == 0) {
        ++incomplete;
      }
    }
    std::printf("  drill: %zu stalled requests, %zu missing full span chains\n",
                stalled.size(), incomplete);
    if (stalled.empty() || incomplete != 0) drill_ok = false;

    // (b) the fattest doc-latency bucket's exemplar resolves to a captured
    // trace.
    auto& doc_hist = reg.histogram("http.request_micros", {{"endpoint", "doc"}});
    std::uint64_t exemplar = 0;
    for (std::size_t i = obs::Histogram::kBuckets; i-- > 0;) {
      if (doc_hist.bucket_count(i) != 0) {
        exemplar = doc_hist.exemplar(i);
        break;
      }
    }
    const bool exemplar_ok = exemplar != 0 && names_by_trace.count(exemplar) != 0;
    std::printf("  drill: top doc bucket exemplar trace=%llu resolvable=%s\n",
                static_cast<unsigned long long>(exemplar), exemplar_ok ? "yes" : "NO");
    if (!exemplar_ok) drill_ok = false;

    // (c) the fast-burn alert on http.doc.latency fired.
    const std::uint64_t fast_alerts =
        reg.counter("obs.slo.alerts",
                    {{"slo", "http.doc.latency"}, {"severity", "fast"}})
            .value();
    std::printf("  drill: http.doc.latency fast-burn alerts fired=%llu\n",
                static_cast<unsigned long long>(fast_alerts));
    if (fast_alerts == 0) drill_ok = false;
    std::printf("  drill: %s\n", drill_ok ? "PASS" : "FAIL");
  }

  return (wrong == 0 && drill_ok) ? 0 : 1;
}
