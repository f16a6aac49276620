#include "http/gateway.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <limits>

#include "common/json.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "storage/database.hpp"
#include "storage/query.hpp"

namespace wdoc::http {

namespace {

constexpr const char* kDocTable = "wd_document";

constexpr std::size_t kDefaultSearchLimit = 10;
constexpr std::size_t kMaxSearchLimit = 100;
// Requests slower than this leave a flight-recorder event.
constexpr std::int64_t kSlowRequestMicros = 50'000;
// SLO objectives: /search and /doc p99 within kLatencySloMicros, and 99.9%
// of all requests answered without a 5xx.
constexpr std::int64_t kLatencySloMicros = 5'000;
constexpr double kLatencySloTarget = 0.99;
constexpr double kAvailabilityTarget = 0.999;

int status_of(const Status& s) {
  if (s.is_ok()) return 200;
  switch (s.error().code) {
    case Errc::not_found: return 404;
    case Errc::already_exists:
    case Errc::conflict: return 409;
    case Errc::invalid_argument: return 400;
    case Errc::unsupported: return 501;
    default: return 500;
  }
}

Response error_json(int status, std::string_view detail) {
  std::string body = "{\"error\":\"";
  json_escape(body, detail);
  body += "\"}";
  return Response::json(status, std::move(body));
}

// Scores are doubles; render with six fixed decimals (as printf's "%.6f"
// does) so identical rankings serialize byte-identically across runs and
// platforms. The buffer holds any finite double in that form.
void append_score(std::string& out, double v) {
  char buf[std::numeric_limits<double>::max_exponent10 + 10];
  const std::to_chars_result r =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::fixed, 6);
  out.append(buf, r.ptr);
}

bool parse_u64(const std::string& s, std::uint64_t& out) {
  if (s.empty() || s.size() > 19) return false;
  std::uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  out = v;
  return true;
}

std::int64_t now_micros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

// --- StorageDocumentSource --------------------------------------------------

StorageDocumentSource::StorageDocumentSource(storage::Database& db) : db_(&db) {
  if (!db.catalog().has_table(kDocTable)) {
    using storage::Column;
    using storage::ValueType;
    storage::Schema schema(kDocTable,
                           {Column{"course_number", ValueType::text, false, false, false},
                            Column{"body", ValueType::text}},
                           /*primary_key=*/"course_number");
    db.create_table(std::move(schema)).expect("create wd_document");
  }
}

Status StorageDocumentSource::put(const std::string& course_number,
                                  const std::string& body) {
  using storage::Value;
  obs::SpanScope span("storage.doc.put");
  std::lock_guard lock(mu_);
  auto existing = db_->query(kDocTable).where_eq("course_number", Value(course_number)).first();
  WDOC_TRY(existing.status());
  if (existing.value().has_value()) {
    return db_->update(kDocTable, existing.value()->id,
                       {Value(course_number), Value(body)});
  }
  return db_->insert(kDocTable, {Value(course_number), Value(body)}).status();
}

Result<std::string> StorageDocumentSource::fetch(const std::string& course_number) {
  using storage::Value;
  obs::SpanScope span("storage.doc.fetch");
  std::lock_guard lock(mu_);
  auto row = db_->query(kDocTable).where_eq("course_number", Value(course_number)).first();
  WDOC_TRY(row.status());
  if (!row.value().has_value()) {
    return Error{Errc::not_found, "no document for " + course_number};
  }
  const auto& values = row.value()->values;
  return values[1].is_null() ? std::string{} : values[1].as_text();
}

// --- Gateway ----------------------------------------------------------------

Gateway::Gateway(GatewayConfig cfg, std::vector<library::VirtualLibrary*> shards,
                 DocumentSource* docs)
    : shards_(std::move(shards)),
      docs_(docs),
      slo_(cfg.slo_eval_period_micros) {
  for (const auto* shard : shards_) {
    for (const auto& [_, entry] : shard->entries()) index_.add_entry(entry);
  }
  auto& reg = obs::MetricsRegistry::global();
  for (const char* endpoint : {"search", "check-out", "check-in", "doc", "metrics",
                               "debug", "healthz", "admin", "other"}) {
    endpoint_stats_[endpoint] = EndpointStats{
        &reg.counter("http.requests", {{"endpoint", endpoint}}),
        &reg.histogram("http.request_micros", {{"endpoint", endpoint}})};
  }
  for (int status : {200, 400, 404, 405, 409, 500, 501}) {
    status_counters_[status] =
        &reg.counter("http.responses", {{"status", std::to_string(status)}});
  }
  search_results_ = &reg.counter("http.search.results");
  requests_total_ = &reg.counter("http.requests_total");
  responses_5xx_ = &reg.counter("http.responses_5xx");

  // The gateway is the tracing edge: trace ids restart from zero here, so
  // same-seed runs mint the same ids and promote the same head-sampled set.
  obs::RequestTracer::global().restart_trace_ids();

  for (const char* endpoint : {"search", "doc"}) {
    obs::SloObjective latency;
    latency.name = std::string("http.") + endpoint + ".latency";
    latency.target = kLatencySloTarget;
    latency.kind = obs::SloObjective::Kind::latency;
    latency.histogram = endpoint_stats_[endpoint].micros;
    latency.threshold_micros = kLatencySloMicros;
    slo_.add(std::move(latency));
  }

  obs::SloObjective avail;
  avail.name = "http.availability";
  avail.target = kAvailabilityTarget;
  avail.kind = obs::SloObjective::Kind::availability;
  avail.total = requests_total_;
  avail.bad = responses_5xx_;
  slo_.add(std::move(avail));
}

obs::Counter& Gateway::status_counter(int status) {
  if (auto it = status_counters_.find(status); it != status_counters_.end()) {
    return *it->second;
  }
  return obs::MetricsRegistry::global().counter("http.responses",
                                                {{"status", std::to_string(status)}});
}

Response Gateway::do_search(const Request& req) {
  auto q = req.param("q");
  if (!q.has_value() || q->empty()) return error_json(400, "missing query parameter q");
  std::size_t limit = kDefaultSearchLimit;
  if (auto l = req.param("limit")) {
    std::uint64_t parsed = 0;
    if (!parse_u64(*l, parsed) || parsed == 0) {
      return error_json(400, "limit must be a positive integer");
    }
    limit = std::min<std::size_t>(parsed, kMaxSearchLimit);
  }

  obs::SpanScope span("gateway.search");
  std::vector<library::SearchHit> hits;
  {
    obs::SpanScope federated("search.federated");
    hits = index_.search(*q, limit);
  }
  span.end(obs::SpanScope::wall_now());

  search_results_->inc(hits.size());

  // One buffer, sized for the body unless escapes grow it.
  std::string body;
  std::size_t size = 64 + q->size();
  for (const library::SearchHit& h : hits) {
    size += 96 + h.course_number.size() + h.title.size() + h.instructor.size();
  }
  body.reserve(size);
  body += "{\"query\":\"";
  json_escape(body, *q);
  body += "\",\"corpus\":";
  body += std::to_string(index_.size());
  body += ",\"hits\":[";
  for (std::size_t i = 0; i < hits.size(); ++i) {
    const library::SearchHit& h = hits[i];
    if (i > 0) body += ',';
    body += "{\"course\":\"";
    json_escape(body, h.course_number);
    body += "\",\"title\":\"";
    json_escape(body, h.title);
    body += "\",\"instructor\":\"";
    json_escape(body, h.instructor);
    body += "\",\"score\":";
    append_score(body, h.score);
    body += ",\"instances\":";
    body += std::to_string(h.instances);
    body += '}';
  }
  body += "]}";
  return Response::json(200, std::move(body));
}

Response Gateway::do_ledger(const Request& req, bool check_out) {
  auto course = req.param("course");
  auto student = req.param("student");
  if (!course.has_value() || course->empty()) {
    return error_json(400, "missing parameter course");
  }
  std::uint64_t student_id = 0;
  if (!student.has_value() || !parse_u64(*student, student_id) || student_id == 0) {
    return error_json(400, "student must be a positive integer");
  }

  obs::SpanScope span("gateway.ledger");
  std::unique_lock lock(ledger_mu_);
  const std::int64_t at = clock_.fetch_add(1, std::memory_order_relaxed) + 1;
  // The mutation applies to every shard replicating the course so replicas
  // stay in lockstep; replicas are consistent, so each returns the same
  // status and reporting the last one is faithful.
  bool found = false;
  Status status = Status::ok();
  for (auto* shard : shards_) {
    if (!shard->entries().contains(*course)) continue;
    found = true;
    status = check_out ? shard->check_out(*course, UserId{student_id}, at)
                       : shard->check_in(*course, UserId{student_id}, at);
  }
  lock.unlock();

  if (!found) return error_json(404, "no course: " + *course);
  if (!status.is_ok()) return error_json(status_of(status), status.error().message);
  std::string body = "{\"ok\":true,\"course\":\"";
  json_escape(body, *course);
  body += "\",\"student\":" + std::to_string(student_id) + ",\"at\":" +
          std::to_string(at) + "}";
  return Response::json(200, std::move(body));
}

Response Gateway::do_doc(const Request& req) {
  auto course = req.param("course");
  if (!course.has_value() || course->empty()) {
    return error_json(400, "missing parameter course");
  }
  const bool known = std::any_of(shards_.begin(), shards_.end(), [&](const auto* shard) {
    return shard->entries().contains(*course);
  });
  if (!known) return error_json(404, "no course: " + *course);
  if (docs_ == nullptr) return error_json(404, "no document store attached");
  obs::SpanScope span("gateway.doc");
  Result<std::string> body = docs_->fetch(*course);
  if (!body.is_ok()) {
    return error_json(status_of(body.status()), body.error().message);
  }
  return Response::html(200, std::move(body).value());
}

Response Gateway::do_debug_slo() {
  // Force a fresh evaluation so the answer reflects the instruments as of
  // this request, not the last periodic tick.
  (void)slo_.evaluate(SimTime::micros(now_micros()));
  return Response::json(200, slo_.to_json());
}

void Gateway::maybe_evaluate_slo(std::int64_t now) {
  std::int64_t due = next_slo_eval_.load(std::memory_order_relaxed);
  if (now < due) return;
  // One winner per period; losers skip rather than queueing behind the
  // engine mutex.
  if (!next_slo_eval_.compare_exchange_strong(due, now + slo_.eval_period_micros(),
                                              std::memory_order_relaxed)) {
    return;
  }
  (void)slo_.evaluate(SimTime::micros(now));
}

Response Gateway::route(const Request& req, const EndpointStats*& stats) {
  const bool is_get = req.method == Method::get;
  const bool is_post = req.method == Method::post;
  if (req.path == "/search") {
    stats = &endpoint_stats_.at("search");
    if (!is_get) return error_json(405, "use GET /search");
    return do_search(req);
  }
  if (req.path == "/check-out") {
    stats = &endpoint_stats_.at("check-out");
    if (!is_post) return error_json(405, "use POST /check-out");
    return do_ledger(req, /*check_out=*/true);
  }
  if (req.path == "/check-in") {
    stats = &endpoint_stats_.at("check-in");
    if (!is_post) return error_json(405, "use POST /check-in");
    return do_ledger(req, /*check_out=*/false);
  }
  if (req.path == "/doc") {
    stats = &endpoint_stats_.at("doc");
    if (!is_get) return error_json(405, "use GET /doc");
    return do_doc(req);
  }
  if (req.path == "/metrics") {
    stats = &endpoint_stats_.at("metrics");
    if (!is_get) return error_json(405, "use GET /metrics");
    // JSON (not the text table): scrapers get machine-readable samples with
    // explicit histogram bucket boundaries and exemplar trace ids.
    return Response::json(200, obs::to_json(obs::MetricsRegistry::global().snapshot()));
  }
  if (req.path == "/debug/slo") {
    stats = &endpoint_stats_.at("debug");
    if (!is_get) return error_json(405, "use GET /debug/slo");
    return do_debug_slo();
  }
  if (req.path == "/healthz") {
    stats = &endpoint_stats_.at("healthz");
    if (!is_get) return error_json(405, "use GET /healthz");
    return Response::text(200, "ok\n");
  }
  if (req.path == "/admin/quit") {
    stats = &endpoint_stats_.at("admin");
    if (!is_post) return error_json(405, "use POST /admin/quit");
    quit_.store(true, std::memory_order_release);
    Response r = Response::json(200, "{\"ok\":true,\"quitting\":true}");
    r.keep_alive = false;
    return r;
  }
  stats = &endpoint_stats_.at("other");
  return error_json(404, "no such endpoint: " + req.path);
}

Response Gateway::handle(const Request& req) {
  const std::int64_t t0 = now_micros();
  // Mint the request's TraceContext; spans opened anywhere below (federated
  // search, the storage path, rpcs) buffer provisionally under it.
  obs::TraceContext ctx = obs::RequestTracer::global().start_request(
      std::string(method_name(req.method)) + " " + req.path, SimTime::micros(t0));
  const EndpointStats* stats = nullptr;
  Response rsp = route(req, stats);
  const std::int64_t t1 = now_micros();
  const std::int64_t micros = t1 - t0;

  const bool error = rsp.status >= 500;
  const bool promoted =
      obs::RequestTracer::global().finish_request(ctx, SimTime::micros(t1), error);

  stats->requests->inc();
  requests_total_->inc();
  status_counter(rsp.status).inc();
  if (error) responses_5xx_->inc();
  // Promoted requests stamp their bucket's exemplar: the p99 bucket in an
  // exported snapshot names a concrete trace id that was actually captured.
  stats->micros->observe(static_cast<double>(micros), promoted ? ctx.trace_id : 0);
  if (error || micros > kSlowRequestMicros) {
    obs::FlightRecorder::global().record(
        obs::FlightKind::custom,
        "http " + std::string(method_name(req.method)) + " " + req.target + " -> " +
            std::to_string(rsp.status) + " in " + std::to_string(micros) + "us" +
            (promoted ? " trace=" + std::to_string(ctx.trace_id) : ""));
  }
  maybe_evaluate_slo(t1);
  if (!req.keep_alive) rsp.keep_alive = false;
  return rsp;
}

}  // namespace wdoc::http
