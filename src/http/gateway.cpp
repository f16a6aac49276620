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
struct ScoreText {
  char buf[std::numeric_limits<double>::max_exponent10 + 10];
  std::size_t size = 0;

  void render(double v) {
    size = static_cast<std::size_t>(
        std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::fixed, 6).ptr - buf);
  }
};

// The routes, indexed by Gateway::Endpoint. A request whose path no row
// before `other` names is answered 404 and counted under "other".
struct Route {
  const char* name;  // the endpoint label of http.requests and http.request_micros
  std::string_view path;
  Method method;
};
constexpr Route kRoutes[] = {
    {"search", "/search", Method::get},      {"check-out", "/check-out", Method::post},
    {"check-in", "/check-in", Method::post}, {"doc", "/doc", Method::get},
    {"metrics", "/metrics", Method::get},    {"debug", "/debug/slo", Method::get},
    {"healthz", "/healthz", Method::get},    {"admin", "/admin/quit", Method::post},
    {"other", "", Method::get},
};

// A /search hit up to its score: the escaped catalog text.
std::string hit_head(const library::LibraryEntry& e) {
  std::string out = "{\"course\":\"";
  json_escape(out, e.course_number);
  out += "\",\"title\":\"";
  json_escape(out, e.title);
  out += "\",\"instructor\":\"";
  json_escape(out, e.instructor);
  out += "\",\"score\":";
  return out;
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
    : docs_(docs), slo_(cfg.slo_eval_period_micros) {
  for (const auto* shard : shards) {
    for (const auto& [_, entry] : shard->entries()) index_.add_entry(entry);
  }
  // The index keeps the first copy of a replicated course, so its row renders
  // that one too.
  courses_.resize(index_.id_bound());
  for (auto* shard : shards) {
    for (const auto& [number, entry] : shard->entries()) {
      CourseRow& row = courses_[*index_.id_of(number)];
      if (row.shards.empty()) row.hit_head = hit_head(entry);
      row.shards.push_back(shard);
    }
  }
  for (CourseRow& row : courses_) {
    row.hit_tail = ",\"instances\":" + std::to_string(row.shards.size()) + "}";
  }
  corpus_field_ = "\",\"corpus\":" + std::to_string(index_.size()) + ",\"hits\":[";

  auto& reg = obs::MetricsRegistry::global();
  static_assert(std::size(kRoutes) == kEndpoints);
  for (std::size_t e = 0; e < kEndpoints; ++e) {
    endpoint_stats_[e] = EndpointStats{
        &reg.counter("http.requests", {{"endpoint", kRoutes[e].name}}),
        &reg.histogram("http.request_micros", {{"endpoint", kRoutes[e].name}})};
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

  for (Endpoint endpoint : {Endpoint::search, Endpoint::doc}) {
    const auto e = static_cast<std::size_t>(endpoint);
    obs::SloObjective latency;
    latency.name = std::string("http.") + kRoutes[e].name + ".latency";
    latency.target = kLatencySloTarget;
    latency.kind = obs::SloObjective::Kind::latency;
    latency.histogram = endpoint_stats_[e].micros;
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

  // One buffer, sized for the body unless the query's escapes or a long
  // score grow it. Each hit is its row's two fragments around the score;
  // tied hits, which are common, reuse the score's text.
  constexpr std::size_t kScoreChars = 16;  // "123.456789" and some
  std::string body;
  std::size_t size = 16 + q->size() + corpus_field_.size();
  for (const library::SearchHit& h : hits) {
    const CourseRow& row = courses_[h.course_id];
    size += 1 + row.hit_head.size() + kScoreChars + row.hit_tail.size();
  }
  body.reserve(size);
  body += "{\"query\":\"";
  json_escape(body, *q);
  body += corpus_field_;
  ScoreText score;
  for (std::size_t i = 0; i < hits.size(); ++i) {
    const CourseRow& row = courses_[hits[i].course_id];
    if (i > 0) body += ',';
    body += row.hit_head;
    if (i == 0 || hits[i].score != hits[i - 1].score) score.render(hits[i].score);
    body.append(score.buf, score.size);
    body += row.hit_tail;
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

  const CourseRow* row = row_of(*course);
  obs::SpanScope span("gateway.ledger");
  std::unique_lock lock(ledger_mu_);
  // An unknown course ticks the clock too.
  const std::int64_t at = clock_.fetch_add(1, std::memory_order_relaxed) + 1;
  // The mutation applies to every shard replicating the course so replicas
  // stay in lockstep; replicas are consistent, so each returns the same
  // status and reporting the last one is faithful.
  Status status = Status::ok();
  if (row != nullptr) {
    for (auto* shard : row->shards) {
      status = check_out ? shard->check_out(*course, UserId{student_id}, at)
                         : shard->check_in(*course, UserId{student_id}, at);
    }
  }
  lock.unlock();

  if (row == nullptr) return error_json(404, "no course: " + *course);
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
  if (row_of(*course) == nullptr) return error_json(404, "no course: " + *course);
  if (docs_ == nullptr) return error_json(404, "no document store attached");
  obs::SpanScope span("gateway.doc");
  Result<std::string> body = docs_->fetch(*course);
  if (!body.is_ok()) {
    return error_json(status_of(body.status()), body.error().message);
  }
  return Response::html(200, std::move(body).value());
}

const Gateway::CourseRow* Gateway::row_of(const std::string& course_number) const {
  const std::optional<std::uint32_t> id = index_.id_of(course_number);
  return id ? &courses_[*id] : nullptr;
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
  std::size_t e = 0;
  while (e + 1 < kEndpoints && kRoutes[e].path != req.path) ++e;
  stats = &endpoint_stats_[e];
  const auto endpoint = static_cast<Endpoint>(e);
  if (endpoint != Endpoint::other && req.method != kRoutes[e].method) {
    return error_json(405, std::string("use ") + method_name(kRoutes[e].method) + " " +
                               std::string(kRoutes[e].path));
  }
  switch (endpoint) {
    case Endpoint::search:
      return do_search(req);
    case Endpoint::check_out:
      return do_ledger(req, /*check_out=*/true);
    case Endpoint::check_in:
      return do_ledger(req, /*check_out=*/false);
    case Endpoint::doc:
      return do_doc(req);
    case Endpoint::metrics:
      // JSON (not the text table): scrapers get machine-readable samples with
      // explicit histogram bucket boundaries and exemplar trace ids.
      return Response::json(200, obs::to_json(obs::MetricsRegistry::global().snapshot()));
    case Endpoint::debug_slo:
      return do_debug_slo();
    case Endpoint::healthz:
      return Response::text(200, "ok\n");
    case Endpoint::admin_quit: {
      quit_.store(true, std::memory_order_release);
      Response r = Response::json(200, "{\"ok\":true,\"quitting\":true}");
      r.keep_alive = false;
      return r;
    }
    case Endpoint::other:
      break;
  }
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
