// The request/response edge of the reproduction: HTTP/1.1 command surface
// over the virtual library (paper §5) and the document store.
//
// Endpoints (pazpar2's http_command.c is the exemplar for the shape):
//   GET  /search?q=<query>&limit=<n>   ranked, merged, deduplicated hits
//   POST /check-out?course=<c>&student=<id>
//   POST /check-in?course=<c>&student=<id>
//   GET  /doc?course=<c>               document fetch via wdoc::storage
//   GET  /metrics                      obs registry snapshot (JSON, with
//                                      histogram bucket boundaries)
//   GET  /debug/slo                    SLO burn-rate status (JSON)
//   GET  /healthz                      liveness probe
//   POST /admin/quit                   graceful shutdown handshake
//
// The gateway composes *on top of* the library/storage layers (the HCA
// layering argument in PAPERS.md): it owns no protocol state of theirs. The
// catalogs do not change while a gateway lives, so /search and /doc read
// them without a lock, and the constructor does their string work once: one
// row per course holds the shards carrying it and its /search hit as JSON,
// escaped once, around the score. One mutex orders the check-out/check-in
// ledger.
// Check-out/check-in timestamps come from a logical clock (one tick per
// mutation) so same-seed workloads leave byte-identical ledgers behind.
//
// Observability: every request increments http.requests{endpoint=...},
// http.responses{status=...}, feeds the http.request_micros{endpoint=...}
// log2 histogram, and slow or 5xx requests leave a flight-recorder event.
// The gateway is also the tracing edge: each request gets a TraceContext
// (1% deterministic head sampling + capture of every request that errors or
// takes 20 ms or more, obs/request_trace.hpp), promoted requests stamp
// histogram exemplars, and an SloEngine evaluates burn-rate alerts once per
// period, the one setting in GatewayConfig.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "http/message.hpp"
#include "library/virtual_library.hpp"
#include "obs/metrics.hpp"
#include "obs/request_trace.hpp"
#include "obs/slo.hpp"

namespace wdoc::storage {
class Database;
}

namespace wdoc::http {

// Where /doc bodies come from. The production implementation reads the
// wd_document table of a storage::Database; tests may stub it.
class DocumentSource {
 public:
  virtual ~DocumentSource() = default;
  [[nodiscard]] virtual Result<std::string> fetch(const std::string& course_number) = 0;
};

// DocumentSource over a wdoc::storage Database table
// wd_document(course_number TEXT PRIMARY KEY, body TEXT): fetch is an
// index-driven point query, put an autocommit upsert.
class StorageDocumentSource final : public DocumentSource {
 public:
  explicit StorageDocumentSource(storage::Database& db);
  [[nodiscard]] Status put(const std::string& course_number, const std::string& body);
  [[nodiscard]] Result<std::string> fetch(const std::string& course_number) override;

 private:
  storage::Database* db_;
  mutable std::mutex mu_;  // Database autocommit DML is not thread-safe
};

struct GatewayConfig {
  // How often the request path evaluates the SLOs (obs/slo.hpp). The
  // objectives are constants in gateway.cpp, the window shape in slo.cpp,
  // and the tracing policy in request_trace.cpp.
  std::int64_t slo_eval_period_micros = 1'000'000;
};

class Gateway {
 public:
  // `shards` are the library instances federated behind /search: one index
  // over all their entries, where a course on several shards is one hit
  // whose `instances` counts them. The index points into the shards'
  // catalogs, which must not change while the gateway lives; ledger
  // mutations route to the shard(s) actually holding the course. `docs` may
  // be null (then /doc answers 404). Neither is owned.
  Gateway(GatewayConfig cfg, std::vector<library::VirtualLibrary*> shards,
          DocumentSource* docs);

  // Thread-safe: any server worker may call concurrently.
  [[nodiscard]] Response handle(const Request& req);

  // Set once POST /admin/quit has been accepted; the serving loop polls it.
  [[nodiscard]] bool quit_requested() const {
    return quit_.load(std::memory_order_acquire);
  }

  [[nodiscard]] std::int64_t logical_now() const {
    return clock_.load(std::memory_order_relaxed);
  }

 private:
  // Registry instrument references are stable for the registry's lifetime
  // (see obs/metrics.hpp), so the per-endpoint instruments are resolved once
  // at construction instead of per request — registry lookups build a
  // composite string key and take a shard lock, which is measurable at
  // gateway request rates.
  struct EndpointStats {
    obs::Counter* requests = nullptr;
    obs::Histogram* micros = nullptr;
  };
  // Indexes the route table in gateway.cpp, which names each endpoint.
  enum class Endpoint : std::uint8_t {
    search, check_out, check_in, doc, metrics, debug_slo, healthz, admin_quit, other
  };
  static constexpr std::size_t kEndpoints = static_cast<std::size_t>(Endpoint::other) + 1;

  // One per course id of index_, built by the constructor.
  struct CourseRow {
    std::vector<library::VirtualLibrary*> shards;  // holding the course, in shard order
    std::string hit_head;  // {"course":…,"title":…,"instructor":…,"score":
    std::string hit_tail;  // ,"instances":N}
  };

  [[nodiscard]] const CourseRow* row_of(const std::string& course_number) const;
  [[nodiscard]] Response route(const Request& req, const EndpointStats*& stats);
  [[nodiscard]] Response do_search(const Request& req);
  [[nodiscard]] Response do_ledger(const Request& req, bool check_out);
  [[nodiscard]] Response do_doc(const Request& req);
  [[nodiscard]] Response do_debug_slo();
  [[nodiscard]] obs::Counter& status_counter(int status);
  // Runs SloEngine::evaluate at most once per eval period; any worker may
  // hit the gate, a single CAS winner pays the evaluation.
  void maybe_evaluate_slo(std::int64_t now);

  library::SearchIndex index_;      // every shard's entries
  std::vector<CourseRow> courses_;  // indexed by course id
  std::string corpus_field_;        // ","corpus":N,"hits":[ of every /search body
  DocumentSource* docs_;
  // Held only by do_ledger. The read endpoints take no lock: index_ and
  // courses_ are written only by the constructor, the shards' catalogs must
  // not change while the gateway lives (see the constructor), and
  // check-out/check-in touch only each shard's open loans and ledger, which
  // no read endpoint reads. The logical clock ticks under it, so same-seed
  // ledgers match.
  std::mutex ledger_mu_;
  std::atomic<std::int64_t> clock_{0};
  std::atomic<bool> quit_{false};
  std::array<EndpointStats, kEndpoints> endpoint_stats_;  // fixed after ctor
  std::map<int, obs::Counter*> status_counters_;          // fixed after ctor
  obs::Counter* search_results_ = nullptr;
  // Aggregates feeding the availability objective.
  obs::Counter* requests_total_ = nullptr;   // http.requests_total
  obs::Counter* responses_5xx_ = nullptr;    // http.responses_5xx
  obs::SloEngine slo_;
  std::atomic<std::int64_t> next_slo_eval_{0};
};

}  // namespace wdoc::http
