// HTTP gateway subsystem: incremental parser (split reads, pipelining,
// limits), federated TF-IDF search (merge, dedup, determinism, the golden
// /search ranking, and federation ranking like one union library), gateway
// endpoints over VirtualLibrary + storage, and the real socket server.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include "common/rng.hpp"
#include "http/client.hpp"
#include "http/gateway.hpp"
#include "http/parser.hpp"
#include "http/server.hpp"
#include "obs/metrics.hpp"
#include "obs/request_trace.hpp"
#include "obs/trace.hpp"
#include "storage/database.hpp"
#include "workload/library_corpus.hpp"

namespace wdoc::http {
namespace {

// --- parser -----------------------------------------------------------------

Request parse_one(const std::string& wire) {
  RequestParser p;
  EXPECT_TRUE(p.feed(wire));
  Request req;
  EXPECT_EQ(p.next(req), ParseStatus::ready);
  return req;
}

TEST(Parser, SimpleGet) {
  Request req = parse_one("GET /search?q=btree+index&limit=5 HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_EQ(req.method, Method::get);
  EXPECT_EQ(req.path, "/search");
  EXPECT_EQ(req.param("q").value_or(""), "btree index");
  EXPECT_EQ(req.param("limit").value_or(""), "5");
  EXPECT_TRUE(req.keep_alive);
  ASSERT_NE(req.header("host"), nullptr);
  EXPECT_EQ(*req.header("Host"), "x");
}

TEST(Parser, PercentDecodingAndNoHeaders) {
  Request req = parse_one("GET /doc?course=CS%31%30%31&x=a%2Bb HTTP/1.1\r\n\r\n");
  EXPECT_EQ(req.param("course").value_or(""), "CS101");
  EXPECT_EQ(req.param("x").value_or(""), "a+b");
  // Malformed escapes pass through verbatim.
  Request req2 = parse_one("GET /doc?course=%ZZ%4 HTTP/1.1\r\n\r\n");
  EXPECT_EQ(req2.param("course").value_or(""), "%ZZ%4");
}

TEST(Parser, SplitAcrossReadsByteByByte) {
  const std::string wire =
      "POST /check-out?course=CS101&student=7 HTTP/1.1\r\n"
      "Host: wdoc\r\nContent-Length: 5\r\n\r\nhello";
  RequestParser p;
  Request req;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    ASSERT_TRUE(p.feed(std::string_view(&wire[i], 1)));
    ParseStatus st = p.next(req);
    if (i + 1 < wire.size()) {
      ASSERT_EQ(st, ParseStatus::need_more) << "at byte " << i;
    } else {
      ASSERT_EQ(st, ParseStatus::ready);
    }
  }
  EXPECT_EQ(req.method, Method::post);
  EXPECT_EQ(req.body, "hello");
  EXPECT_EQ(req.param("student").value_or(""), "7");
}

TEST(Parser, PipelinedRequestsDrainInOrder) {
  RequestParser p;
  ASSERT_TRUE(p.feed("GET /a HTTP/1.1\r\n\r\n"
                     "POST /b HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi"
                     "GET /c HTTP/1.1\r\nConnection: close\r\n\r\n"));
  Request req;
  ASSERT_EQ(p.next(req), ParseStatus::ready);
  EXPECT_EQ(req.path, "/a");
  ASSERT_EQ(p.next(req), ParseStatus::ready);
  EXPECT_EQ(req.path, "/b");
  EXPECT_EQ(req.body, "hi");
  ASSERT_EQ(p.next(req), ParseStatus::ready);
  EXPECT_EQ(req.path, "/c");
  EXPECT_FALSE(req.keep_alive);
  EXPECT_EQ(p.next(req), ParseStatus::need_more);
  EXPECT_EQ(p.buffered_bytes(), 0u);
}

TEST(Parser, Http10DefaultsToClose) {
  Request req = parse_one("GET / HTTP/1.0\r\n\r\n");
  EXPECT_FALSE(req.keep_alive);
  Request req2 = parse_one("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
  EXPECT_TRUE(req2.keep_alive);
}

TEST(Parser, RejectsOversizedBodyDeclaration) {
  ParserLimits limits;
  limits.max_body = 64;
  RequestParser p(limits);
  ASSERT_TRUE(p.feed("POST /x HTTP/1.1\r\nContent-Length: 65\r\n\r\n"));
  Request req;
  EXPECT_EQ(p.next(req), ParseStatus::error);
  EXPECT_EQ(p.error_status(), 413);
  // Poisoned: stays in error.
  EXPECT_EQ(p.next(req), ParseStatus::error);
}

TEST(Parser, RejectsOverlongRequestLine) {
  ParserLimits limits;
  limits.max_request_line = 128;
  RequestParser p(limits);
  std::string wire = "GET /" + std::string(200, 'a');
  ASSERT_TRUE(p.feed(wire));  // no CRLF yet: length check still trips
  Request req;
  EXPECT_EQ(p.next(req), ParseStatus::error);
  EXPECT_EQ(p.error_status(), 414);
}

TEST(Parser, RejectsTooManyHeaders) {
  ParserLimits limits;
  limits.max_headers = 4;
  RequestParser p(limits);
  std::string wire = "GET / HTTP/1.1\r\n";
  for (int i = 0; i < 6; ++i) wire += "h" + std::to_string(i) + ": v\r\n";
  wire += "\r\n";
  ASSERT_TRUE(p.feed(wire));
  Request req;
  EXPECT_EQ(p.next(req), ParseStatus::error);
  EXPECT_EQ(p.error_status(), 431);
}

TEST(Parser, RejectsGarbageAndUnsupported) {
  for (const char* wire : {
           "FLUB\r\n\r\n",                                // no spaces
           "GET  / HTTP/1.1\r\n\r\n",                     // double space
           "GET / HTTP/2.0\r\n\r\n",                      // bad version
           "GET / HTTP/1.1\r\nNoColonHere\r\n\r\n",       // bad header
           "GET / HTTP/1.1\r\nBad Name: v\r\n\r\n",       // ws in name
           "GET / HTTP/1.1\r\nContent-Length: -1\r\n\r\n",  // bad length
           "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
       }) {
    RequestParser p;
    ASSERT_TRUE(p.feed(wire));
    Request req;
    EXPECT_EQ(p.next(req), ParseStatus::error) << wire;
  }
}

TEST(Parser, FeedRefusesBeyondBufferCap) {
  ParserLimits limits;
  limits.max_request_line = 64;
  limits.max_header_bytes = 64;
  limits.max_body = 64;
  RequestParser p(limits);
  std::string blob(limits.max_buffer() + 1, 'x');
  EXPECT_FALSE(p.feed(blob));
}

Request make_request(Method m, const std::string& target) {
  Request req;
  req.method = m;
  req.target = target;
  split_target(target, req.path, req.query);
  return req;
}

// --- federated search -------------------------------------------------------

library::LibraryEntry make_entry(const std::string& course, const std::string& title,
                                 const std::string& instructor,
                                 std::vector<std::string> keywords) {
  library::LibraryEntry e;
  e.course_number = course;
  e.title = title;
  e.instructor = instructor;
  e.keywords = std::move(keywords);
  e.script_name = "script-" + course;
  e.starting_url = "http://mmu.edu/" + course;
  return e;
}

// The gateway's federation: one index over every shard's entries.
library::SearchIndex federate(const std::vector<library::VirtualLibrary>& libs) {
  library::SearchIndex index;
  for (const auto& lib : libs) {
    for (const auto& [_, entry] : lib.entries()) index.add_entry(entry);
  }
  return index;
}

struct Shards {
  Shards() : libs(2) {
    libs[0].add_entry(make_entry("CS101", "btree indexing", "knuth", {"btree", "storage"}))
        .expect("add");
    libs[0].add_entry(make_entry("CS201", "web documents", "codd", {"web", "hypertext"}))
        .expect("add");
    libs[1].add_entry(make_entry("CS301", "distributed systems", "gray", {"storage"}))
        .expect("add");
    // CS101 replicated on both shards: must merge to one hit.
    libs[1].add_entry(make_entry("CS101", "btree indexing", "knuth", {"btree", "storage"}))
        .expect("add");
  }
  [[nodiscard]] library::SearchIndex search() const { return federate(libs); }
  std::vector<library::VirtualLibrary> libs;
};

TEST(Federation, MergesAndDeduplicatesReplicas) {
  Shards s;
  auto hits = s.search().search("btree");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].entry->course_number, "CS101");
  EXPECT_EQ(hits[0].instances, 2u);  // held by both shards, scored once
}

TEST(Federation, GlobalDfRanksRareTokensHigher) {
  Shards s;
  // "storage" appears in 2 courses, "hypertext" in 1: a hypertext hit must
  // outscore a storage hit (equal tf=1).
  auto storage_hits = s.search().search("storage");
  auto hyper_hits = s.search().search("hypertext");
  ASSERT_EQ(storage_hits.size(), 2u);
  ASSERT_EQ(hyper_hits.size(), 1u);
  EXPECT_GT(hyper_hits[0].score, storage_hits[0].score);
}

TEST(Federation, TieBreaksByCourseAscending) {
  Shards s;
  auto hits = s.search().search("storage");
  ASSERT_EQ(hits.size(), 2u);
  // CS101 has tf("storage")=1 same as CS301; the tie resolves by course number.
  EXPECT_LT(hits[0].score - hits[1].score, 1e-12);
  EXPECT_EQ(hits[0].entry->course_number, "CS101");
  EXPECT_EQ(hits[1].entry->course_number, "CS301");
}

TEST(Federation, CourseNumberAndInstructorBoosts) {
  Shards s;
  auto by_course = s.search().search("CS301");
  ASSERT_FALSE(by_course.empty());
  EXPECT_EQ(by_course[0].entry->course_number, "CS301");
  EXPECT_GE(by_course[0].score, 100.0);

  auto by_instructor = s.search().search("knuth");
  ASSERT_EQ(by_instructor.size(), 1u);
  EXPECT_EQ(by_instructor[0].entry->course_number, "CS101");
  // Replica on both shards must be boosted exactly once.
  EXPECT_GE(by_instructor[0].score, 10.0);
  EXPECT_LT(by_instructor[0].score, 20.0);
}

TEST(Federation, RepeatedQueryTokensScoreOnce) {
  Shards s;
  auto once = s.search().search("btree");
  auto twice = s.search().search("btree btree");
  ASSERT_EQ(once.size(), twice.size());
  EXPECT_DOUBLE_EQ(once[0].score, twice[0].score);
}

TEST(Federation, DeterministicAcrossRebuilds) {
  workload::LibraryCorpusConfig cfg;
  cfg.courses = 60;
  cfg.shards = 3;
  auto entries = workload::library_corpus(cfg);
  auto queries = workload::query_pool(cfg, 20);

  auto run = [&] {
    std::vector<library::VirtualLibrary> libs(cfg.shards);
    workload::populate_shards(libs, entries, cfg);
    const library::SearchIndex index = federate(libs);
    std::string rendered;
    for (const auto& q : queries) {
      for (const auto& h : index.search(q, 10)) {
        rendered += h.entry->course_number + ":" + std::to_string(h.score) + ":" +
                    std::to_string(h.instances) + ";";
      }
      rendered += "|";
    }
    return rendered;
  };
  EXPECT_EQ(run(), run());  // byte-identical result lists
}

// Pool queries plus exact course-number and instructor queries.
std::vector<std::string> ranking_queries(const workload::LibraryCorpusConfig& cfg,
                                         const std::vector<library::LibraryEntry>& entries,
                                         std::size_t pool, std::size_t courses,
                                         std::size_t instructors) {
  std::vector<std::string> queries = workload::query_pool(cfg, pool);
  const std::size_t course_step = std::max<std::size_t>(1, entries.size() / courses);
  for (std::size_t i = 0; i < courses && i * course_step < entries.size(); ++i) {
    queries.push_back(entries[i * course_step].course_number);
  }
  const std::size_t prof_step = std::max<std::size_t>(1, cfg.instructors / instructors);
  for (std::size_t i = 0; i < instructors; ++i) {
    queries.push_back("prof" + std::to_string(i * prof_step));
  }
  return queries;
}

// One line per hit of a /search body: query, rank, course, score as
// rendered, instances (tab-separated).
std::string render_hits(const std::string& query, std::string_view body) {
  std::string out;
  std::size_t at = 0;
  auto field = [&](std::string_view key, char end) {
    at = body.find(key, at) + key.size();
    const std::size_t stop = body.find(end, at);
    const std::string value(body.substr(at, stop - at));
    at = stop;
    return value;
  };
  for (std::size_t rank = 1; body.find("{\"course\":\"", at) != std::string_view::npos;
       ++rank) {
    const std::string course = field("{\"course\":\"", '"');
    const std::string score = field("\"score\":", ',');
    const std::string instances = field("\"instances\":", '}');
    out += query + '\t' + std::to_string(rank) + '\t' + course + '\t' + score + '\t' +
           instances + '\n';
  }
  return out;
}

// GET /search's top 10 on the default corpus (500 courses, 3 shards, 20%
// replicated) for the first 200 pool queries, 20 course numbers and 10
// instructor names, pinned byte for byte in tests/golden/search_ranking.txt.
TEST(Federation, GoldenRanking) {
  workload::LibraryCorpusConfig cfg;
  auto entries = workload::library_corpus(cfg);
  std::vector<library::VirtualLibrary> libs(cfg.shards);
  workload::populate_shards(libs, entries, cfg);
  std::vector<library::VirtualLibrary*> ptrs;
  for (auto& lib : libs) ptrs.push_back(&lib);
  Gateway gateway(GatewayConfig{}, ptrs, nullptr);

  std::string rendered;
  for (const std::string& q : ranking_queries(cfg, entries, 200, 20, 10)) {
    std::string target = "/search?q=" + q + "&limit=10";
    std::replace(target.begin(), target.end(), ' ', '+');
    Response rsp = gateway.handle(make_request(Method::get, target));
    ASSERT_EQ(rsp.status, 200) << target;
    rendered += render_hits(q, rsp.body.text());
  }
  std::ifstream in(WDOC_GOLDEN_DIR "/search_ranking.txt");
  ASSERT_TRUE(in) << "missing " WDOC_GOLDEN_DIR "/search_ranking.txt";
  std::stringstream golden;
  golden << in.rdbuf();
  EXPECT_TRUE(rendered == golden.str()) << "rendered ranking:\n" << rendered;
}

// First difference between two rankings, or "" when they are the same
// courses in the same order with bit-identical scores.
std::string first_difference(const std::vector<library::SearchHit>& a,
                             const std::vector<library::SearchHit>& b) {
  if (a.size() != b.size()) {
    return std::to_string(a.size()) + " hits vs " + std::to_string(b.size());
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    const library::LibraryEntry& x = *a[i].entry;
    const library::LibraryEntry& y = *b[i].entry;
    if (x.course_number != y.course_number || x.title != y.title ||
        x.instructor != y.instructor || a[i].score != b[i].score) {
      std::ostringstream why;
      why.precision(17);
      why << "rank " << i << ": " << x.course_number << " " << a[i].score << " vs "
          << y.course_number << " " << b[i].score;
      return why.str();
    }
  }
  return "";
}

// A federation of shards ranks every query exactly like one library
// holding the union catalog, whatever the sharding and replication, and
// counts each course's shards in `instances`. Catalog 0 is the gateway's
// default corpus with its whole 1,000-query pool.
TEST(Federation, RanksLikeTheUnionCatalog) {
  Rng rng(20);
  for (std::uint64_t seed = 0; seed <= 200; ++seed) {
    workload::LibraryCorpusConfig cfg;
    std::size_t pool = 1000;
    if (seed > 0) {
      cfg.seed = seed;
      cfg.courses = 10 + rng.uniform(191);
      cfg.instructors = 1 + rng.uniform(30);
      cfg.shards = 1 + rng.uniform(5);
      cfg.replicate_fraction = static_cast<double>(rng.uniform(51)) / 100.0;
      pool = 40;
    }
    auto entries = workload::library_corpus(cfg);
    std::vector<library::VirtualLibrary> libs(cfg.shards);
    workload::populate_shards(libs, entries, cfg);
    const library::SearchIndex federated = federate(libs);
    library::VirtualLibrary whole;
    for (const auto& e : entries) whole.add_entry(e).expect("union add");
    ASSERT_EQ(federated.size(), whole.entry_count());

    for (const std::string& q : ranking_queries(cfg, entries, pool, 5, 3)) {
      const auto hits = federated.search(q);
      ASSERT_EQ(first_difference(hits, whole.search(q)), "")
          << "catalog " << seed << " (" << cfg.courses << " courses, " << cfg.shards
          << " shards, " << cfg.replicate_fraction << " replicated), query '" << q << "'";
      ASSERT_EQ(first_difference(federated.search(q, 10), whole.search(q, 10)), "");
      for (const auto& h : hits) {
        const auto held = std::count_if(libs.begin(), libs.end(), [&](const auto& lib) {
          return lib.entries().contains(h.entry->course_number);
        });
        ASSERT_EQ(h.instances, static_cast<std::uint32_t>(held))
            << h.entry->course_number;
      }
    }
  }
}

// --- gateway ----------------------------------------------------------------

struct GatewayHarness {
  GatewayHarness() : db(storage::Database::in_memory()), docs(*db) {
    workload::LibraryCorpusConfig cfg;
    cfg.courses = 30;
    cfg.shards = 2;
    auto entries = workload::library_corpus(cfg);
    libs.resize(cfg.shards);
    workload::populate_shards(libs, entries, cfg);
    for (const auto& e : entries) {
      docs.put(e.course_number, workload::course_document(e)).expect("put doc");
    }
    gateway = std::make_unique<Gateway>(GatewayConfig{},
                                        std::vector<library::VirtualLibrary*>{
                                            &libs[0], &libs[1]},
                                        &docs);
    for (const auto& e : entries) courses.push_back(e.course_number);
    first_course = courses[0];
  }
  std::unique_ptr<storage::Database> db;
  StorageDocumentSource docs;
  std::vector<library::VirtualLibrary> libs;
  std::unique_ptr<Gateway> gateway;
  std::vector<std::string> courses;
  std::string first_course;
};

TEST(Gateway, SearchReturnsRankedJson) {
  GatewayHarness h;
  Response rsp = h.gateway->handle(make_request(Method::get, "/search?q=storage"));
  EXPECT_EQ(rsp.status, 200);
  EXPECT_NE(rsp.body.text().find("\"hits\":["), std::string::npos);
  EXPECT_NE(rsp.body.text().find("\"corpus\":30"), std::string::npos);

  Response bad = h.gateway->handle(make_request(Method::get, "/search"));
  EXPECT_EQ(bad.status, 400);
  Response bad_limit =
      h.gateway->handle(make_request(Method::get, "/search?q=x&limit=zero"));
  EXPECT_EQ(bad_limit.status, 400);
}

TEST(Gateway, SearchResponsesByteIdenticalAcrossInstances) {
  GatewayHarness h1, h2;
  for (const char* target :
       {"/search?q=storage+indexing", "/search?q=web&limit=3", "/search?q=CS101"}) {
    Response r1 = h1.gateway->handle(make_request(Method::get, target));
    Response r2 = h2.gateway->handle(make_request(Method::get, target));
    EXPECT_EQ(serialize(r1), serialize(r2)) << target;
  }
}

TEST(Gateway, LedgerFlowAndConflicts) {
  GatewayHarness h;
  const std::string co = "/check-out?course=" + h.first_course + "&student=7";
  const std::string ci = "/check-in?course=" + h.first_course + "&student=7";
  EXPECT_EQ(h.gateway->handle(make_request(Method::post, co)).status, 200);
  // Double check-out conflicts; replicas answered consistently.
  EXPECT_EQ(h.gateway->handle(make_request(Method::post, co)).status, 409);
  EXPECT_EQ(h.gateway->handle(make_request(Method::post, ci)).status, 200);
  // Check-in with nothing out: not found.
  EXPECT_EQ(h.gateway->handle(make_request(Method::post, ci)).status, 404);
  // Unknown course / bad student / wrong verb.
  EXPECT_EQ(h.gateway->handle(make_request(Method::post, "/check-out?course=NOPE&student=7"))
                .status,
            404);
  EXPECT_EQ(h.gateway->handle(make_request(Method::post,
                                           "/check-out?course=CS100&student=abc"))
                .status,
            400);
  EXPECT_EQ(h.gateway->handle(make_request(Method::get, co)).status, 405);
  // Logical clock ticked once per accepted mutation attempt.
  EXPECT_GT(h.gateway->logical_now(), 0);
}

TEST(Gateway, LedgerAppliesToEveryReplica) {
  GatewayHarness h;
  // Find a course present on both shards.
  std::string replicated;
  for (const auto& [course, _] : h.libs[0].entries()) {
    if (h.libs[1].entries().contains(course)) {
      replicated = course;
      break;
    }
  }
  ASSERT_FALSE(replicated.empty()) << "corpus must replicate something";
  Response rsp = h.gateway->handle(
      make_request(Method::post, "/check-out?course=" + replicated + "&student=9"));
  EXPECT_EQ(rsp.status, 200);
  EXPECT_EQ(h.libs[0].holders_of(replicated).size(), 1u);
  EXPECT_EQ(h.libs[1].holders_of(replicated).size(), 1u);
}

TEST(Gateway, DocumentFetchServesStorageBackedBody) {
  GatewayHarness h;
  Response rsp =
      h.gateway->handle(make_request(Method::get, "/doc?course=" + h.first_course));
  EXPECT_EQ(rsp.status, 200);
  EXPECT_NE(rsp.body.text().find("<html>"), std::string::npos);
  EXPECT_NE(rsp.body.text().find(h.first_course), std::string::npos);
  EXPECT_EQ(h.gateway->handle(make_request(Method::get, "/doc?course=GHOST")).status, 404);
}

TEST(Gateway, HealthMetricsAndQuit) {
  GatewayHarness h;
  EXPECT_EQ(h.gateway->handle(make_request(Method::get, "/healthz")).status, 200);
  Response metrics = h.gateway->handle(make_request(Method::get, "/metrics"));
  EXPECT_EQ(metrics.status, 200);
  EXPECT_FALSE(h.gateway->quit_requested());
  Response quit = h.gateway->handle(make_request(Method::post, "/admin/quit"));
  EXPECT_EQ(quit.status, 200);
  EXPECT_FALSE(quit.keep_alive);
  EXPECT_TRUE(h.gateway->quit_requested());
  EXPECT_EQ(h.gateway->handle(make_request(Method::get, "/nope")).status, 404);
}

TEST(Gateway, MetricsIsJsonWithBucketBounds) {
  GatewayHarness h;
  (void)h.gateway->handle(make_request(Method::get, "/search?q=storage"));
  Response metrics = h.gateway->handle(make_request(Method::get, "/metrics"));
  EXPECT_EQ(metrics.status, 200);
  ASSERT_TRUE(metrics.headers.count("Content-Type"));
  EXPECT_EQ(metrics.headers.at("Content-Type"), "application/json");
  // Histograms expose their bucket boundaries, not just aggregates.
  EXPECT_NE(metrics.body.text().find("http.request_micros"), std::string::npos);
  EXPECT_NE(metrics.body.text().find("\"buckets\":["), std::string::npos);
  EXPECT_NE(metrics.body.text().find("\"le\":"), std::string::npos);
}

TEST(Gateway, DebugSloSnapshotAndGating) {
  GatewayHarness h;
  (void)h.gateway->handle(make_request(Method::get, "/doc?course=" + h.first_course));
  Response slo = h.gateway->handle(make_request(Method::get, "/debug/slo"));
  EXPECT_EQ(slo.status, 200);
  EXPECT_EQ(slo.headers.at("Content-Type"), "application/json");
  for (const char* needle : {"http.search.latency", "http.doc.latency",
                             "http.availability", "\"windows\"", "\"fast_alert\""}) {
    EXPECT_NE(slo.body.text().find(needle), std::string::npos) << needle;
  }
  EXPECT_EQ(h.gateway->handle(make_request(Method::post, "/debug/slo")).status, 405);
}

// Serves every document 25 ms late: past the tracer's 20 ms tail threshold.
class SlowDocuments final : public DocumentSource {
 public:
  explicit SlowDocuments(DocumentSource& inner) : inner_(&inner) {}
  Result<std::string> fetch(const std::string& course_number) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    return inner_->fetch(course_number);
  }

 private:
  DocumentSource* inner_;
};

TEST(Gateway, SlowDocRequestIsTailPromotedWithExemplar) {
  GatewayHarness h;
  SlowDocuments slow(h.docs);
  Gateway gateway(GatewayConfig{}, {&h.libs[0], &h.libs[1]}, &slow);
  obs::Tracer::global().clear();
  auto& doc_hist = obs::MetricsRegistry::global().histogram(
      "http.request_micros", {{"endpoint", "doc"}});
  doc_hist.reset();  // drop exemplars left by earlier tests
  auto& tail = obs::MetricsRegistry::global().counter("obs.trace.promoted",
                                                      {{"reason", "tail_latency"}});
  const auto tail0 = tail.value();

  Response rsp =
      gateway.handle(make_request(Method::get, "/doc?course=" + h.first_course));
  EXPECT_EQ(rsp.status, 200);

  // The whole request tree was promoted: edge root, handler, storage fetch.
  auto spans = obs::Tracer::global().spans();
  std::uint64_t trace = 0;
  for (const auto& s : spans) {
    if (s.name == "GET /doc") trace = s.trace_id;
  }
  ASSERT_NE(trace, 0u) << "tail sampling must promote the slow request";
  // The constructor restarted the ids, so this is the first id of the
  // sequence, which the head coin does not pick: the tail path promoted it.
  ASSERT_FALSE(obs::RequestTracer::head_sampled(trace));
  EXPECT_EQ(tail.value(), tail0 + 1);
  std::set<std::string> names;
  for (const auto& s : spans) {
    if (s.trace_id == trace) names.insert(s.name);
  }
  EXPECT_TRUE(names.count("gateway.doc"));
  EXPECT_TRUE(names.count("storage.doc.fetch"));

  // The latency histogram's exemplar points back at that same trace.
  bool exemplar_found = false;
  for (std::size_t i = 0; i < obs::Histogram::kBuckets; ++i) {
    if (doc_hist.exemplar(i) == trace) exemplar_found = true;
  }
  EXPECT_TRUE(exemplar_found) << "p-bucket exemplar must resolve to the trace";
  obs::Tracer::global().clear();
}

// Once the durable span buffer is full, head-sampled requests still count
// under obs.trace.promoted{reason=head} but stamp no exemplar: an exemplar
// names only a trace the buffer kept.
TEST(Gateway, FullSpanBufferStampsNoExemplar) {
  GatewayHarness h;
  auto& hist = obs::MetricsRegistry::global().histogram("http.request_micros",
                                                        {{"endpoint", "healthz"}});
  auto& head = obs::MetricsRegistry::global().counter("obs.trace.promoted",
                                                      {{"reason", "head"}});
  auto exemplars = [&] {
    std::size_t n = 0;
    for (std::size_t i = 0; i < obs::Histogram::kBuckets; ++i) n += hist.exemplar(i) != 0;
    return n;
  };
  auto send = [&](int n) {
    for (int i = 0; i < n; ++i) {
      ASSERT_EQ(h.gateway->handle(make_request(Method::get, "/healthz")).status, 200);
    }
  };

  obs::Tracer::global().clear();
  std::vector<obs::SpanRecord> filler(obs::Tracer::kMaxSpans);
  for (auto& rec : filler) rec.id = obs::Tracer::allocate_id();
  ASSERT_EQ(obs::Tracer::global().adopt(std::move(filler)), obs::Tracer::kMaxSpans);
  hist.reset();
  const auto head0 = head.value();
  send(1'000);
  EXPECT_GT(head.value(), head0) << "some of the requests must win the head coin";
  EXPECT_EQ(exemplars(), 0u);

  // With room in the buffer the same traffic stamps exemplars again.
  obs::Tracer::global().clear();
  send(1'000);
  EXPECT_GT(exemplars(), 0u);
  obs::Tracer::global().clear();
}

// --- server round trip ------------------------------------------------------

struct ServerHarness {
  ServerHarness() {
    ServerConfig cfg;
    cfg.workers = 4;
    cfg.idle_timeout_ms = 2000;
    server = std::make_unique<HttpServer>(
        cfg, [this](const Request& req) { return harness.gateway->handle(req); });
    server->start().expect("server start");
  }
  ~ServerHarness() { server->stop(); }
  GatewayHarness harness;
  std::unique_ptr<HttpServer> server;
};

TEST(Server, RoundTripSearchLedgerAndDoc) {
  ServerHarness s;
  HttpClient client;
  client.connect("127.0.0.1", s.server->port()).expect("connect");

  auto health = client.get("/healthz").expect("healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body, "ok\n");

  auto search = client.get("/search?q=storage&limit=5").expect("search");
  EXPECT_EQ(search.status, 200);
  EXPECT_EQ(search.headers.at("content-type"), "application/json");

  const std::string course = s.harness.first_course;
  auto co = client.post("/check-out?course=" + course + "&student=11").expect("co");
  EXPECT_EQ(co.status, 200);
  auto ci = client.post("/check-in?course=" + course + "&student=11").expect("ci");
  EXPECT_EQ(ci.status, 200);

  auto doc = client.get("/doc?course=" + course).expect("doc");
  EXPECT_EQ(doc.status, 200);
  EXPECT_NE(doc.body.find("<html>"), std::string::npos);
}

// The wire form of one request, for batches sent in a single client write.
std::string wire(std::string_view method, std::string_view target,
                 std::string_view headers = "") {
  std::string req = std::string(method) + " " + std::string(target) +
                    " HTTP/1.1\r\nHost: wdoc\r\n" + std::string(headers);
  if (method == "POST") req += "Content-Length: 0\r\n";
  return req + "\r\n";
}

std::uint64_t http_writes() {
  return obs::MetricsRegistry::global().counter("http.writes").value();
}

TEST(Server, PipelinedBatchAnsweredInOrder) {
  ServerHarness s;
  HttpClient client;
  client.connect("127.0.0.1", s.server->port()).expect("connect");
  // Send 20 requests in one write before reading a single response. The
  // worker drains them from one read (two, if the kernel splits it) and
  // answers each read with one write, not two sends per response.
  std::string batch;
  for (int i = 0; i < 20; ++i) {
    batch += wire("GET", i % 2 == 0 ? "/healthz" : "/search?q=web");
  }
  const std::uint64_t writes_before = http_writes();
  client.send_raw(batch).expect("send");
  for (int i = 0; i < 20; ++i) {
    auto rsp = client.read_response().expect("read");
    EXPECT_EQ(rsp.status, 200);
    if (i % 2 == 0) {
      EXPECT_EQ(rsp.body, "ok\n");
    } else {
      EXPECT_NE(rsp.body.find("\"hits\""), std::string::npos);
    }
  }
  EXPECT_LE(http_writes() - writes_before, 2u);
}

TEST(Server, BatchPastTheFlushBoundAnsweredInOrder) {
  ServerHarness s;
  HttpClient client;
  client.connect("127.0.0.1", s.server->port()).expect("connect");
  // /metrics interleaved with /healthz in one write: the /metrics bodies
  // pass the 64 KiB flush bound, so the worker writes the batch in pieces.
  std::string batch;
  for (int i = 0; i < 120; ++i) {
    batch += wire("GET", i % 2 == 0 ? "/metrics" : "/healthz");
  }
  const std::uint64_t writes_before = http_writes();
  client.send_raw(batch).expect("send");
  std::size_t metrics_bytes = 0;
  for (int i = 0; i < 120; ++i) {
    auto rsp = client.read_response().expect("read");
    ASSERT_EQ(rsp.status, 200) << "response " << i;
    if (i % 2 == 0) {
      ASSERT_EQ(rsp.headers.at("content-type"), "application/json") << "response " << i;
      metrics_bytes += rsp.body.size();
    } else {
      ASSERT_EQ(rsp.body, "ok\n") << "response " << i;
    }
  }
  ASSERT_GT(metrics_bytes, 2u * (64u << 10));
  EXPECT_GE(http_writes() - writes_before, 2u);
}

TEST(Server, WorkerBlockedMidWriteResumesInOrder) {
  // 64 bodies of 256 KiB, each a slice of one shared buffer, are far more
  // than the socket buffers hold: while the client sleeps the worker blocks
  // mid-sendmsg, and it resumes once the client reads.
  constexpr std::size_t kBody = 256 << 10;
  constexpr int kBig = 64;
  std::string pattern(kBody + kBig, '\0');
  for (std::size_t k = 0; k < pattern.size(); ++k) {
    pattern[k] = static_cast<char>('a' + k % 26);
  }
  const net::Payload shared(std::string{pattern});
  ServerConfig cfg;
  cfg.workers = 1;
  HttpServer server(cfg, [&](const Request& req) {
    const std::size_t i = std::stoul(req.param("i").value_or("0"));
    Response rsp = Response::text(200, std::to_string(i));
    if (req.path == "/big") rsp.body = shared.slice(i, kBody);
    return rsp;
  });
  server.start().expect("server start");
  std::string batch;
  for (int i = 0; i < kBig; ++i) {
    batch += wire("GET", "/big?i=" + std::to_string(i)) +
             wire("GET", "/small?i=" + std::to_string(i));
  }
  HttpClient client;
  client.connect("127.0.0.1", server.port()).expect("connect");
  obs::Counter& bytes_out = obs::MetricsRegistry::global().counter("http.bytes_out");
  const std::uint64_t before = bytes_out.value();
  client.send_raw(batch).expect("send");
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const std::uint64_t handed_over_asleep = bytes_out.value() - before;
  for (int i = 0; i < kBig; ++i) {
    auto big = client.read_response().expect("big");
    ASSERT_TRUE(big.body == std::string_view(pattern).substr(i, kBody)) << "body " << i;
    ASSERT_EQ(client.read_response().expect("small").body, std::to_string(i));
  }
  // Bytes are counted as a batch is handed to sendmsg: the worker was still
  // blocked on an earlier batch when the client woke.
  EXPECT_LT(handed_over_asleep, bytes_out.value() - before);
  server.stop();
}

TEST(Server, CloseOrParseErrorMidBatchEndsTheConnection) {
  ServerHarness s;
  // Two requests are answered, then the closing one, then EOF: nothing after
  // it in the same read is served.
  for (const std::string& closer :
       {wire("GET", "/search?q=web", "Connection: close\r\n"),
        std::string("GET / HTTP/9.9\r\n\r\n")}) {
    HttpClient client;
    client.connect("127.0.0.1", s.server->port()).expect("connect");
    client.send_raw(wire("GET", "/healthz") + wire("GET", "/search?q=storage") + closer +
                    wire("GET", "/healthz"))
        .expect("send");
    auto first = client.read_response().expect("first");
    EXPECT_EQ(first.status, 200);
    EXPECT_EQ(first.body, "ok\n");
    auto second = client.read_response().expect("second");
    EXPECT_EQ(second.status, 200);
    EXPECT_TRUE(second.keep_alive);
    auto last = client.read_response().expect("closing response");
    EXPECT_FALSE(last.keep_alive);
    EXPECT_EQ(last.status, closer.starts_with("GET / ") ? 400 : 200) << closer;
    EXPECT_FALSE(client.read_response().is_ok()) << "expected EOF after " << closer;
  }
}

TEST(Server, ParseErrorAnswersAndCloses) {
  ServerHarness s;
  HttpClient client;
  client.connect("127.0.0.1", s.server->port()).expect("connect");
  client.send_raw("GET / HTTP/9.9\r\n\r\n").expect("send");
  auto rsp = client.read_response().expect("read");
  EXPECT_EQ(rsp.status, 400);
  EXPECT_FALSE(rsp.keep_alive);
}

TEST(Server, ConcurrentClientsStayConsistent) {
  ServerHarness s;
  GatewayHarness& h = s.harness;
  constexpr int kClients = 4;
  constexpr int kBursts = 25;
  const std::vector<std::string> searches = {"/search?q=distributed+storage",
                                             "/search?q=web&limit=3", "/search?q=CS101"};
  // What the gateway answers when called directly; read-only requests do
  // not tick the ledger clock.
  std::map<std::string, std::string> expected;
  auto direct = [&](const std::string& target) {
    expected[target] = h.gateway->handle(make_request(Method::get, target)).body.text();
  };
  for (const std::string& target : searches) direct(target);
  for (const std::string& course : h.courses) direct("/doc?course=" + course);

  // Every client pipelines bursts of check-out, search, doc and check-in,
  // so lock-free reads run beside ledger writes on the other workers.
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      HttpClient client;
      if (!client.connect("127.0.0.1", s.server->port()).is_ok()) {
        ++failures;
        return;
      }
      // Distinct students per client: ledger operations never conflict.
      const std::string student = "&student=" + std::to_string(100 + c);
      for (int i = 0; i < kBursts; ++i) {
        const std::string& course = h.courses[(c * kBursts + i) % h.courses.size()];
        const std::string& search = searches[i % searches.size()];
        const std::string doc = "/doc?course=" + course;
        const bool sent =
            client
                .send_raw(wire("POST", "/check-out?course=" + course + student) +
                          wire("GET", search) + wire("GET", doc) +
                          wire("POST", "/check-in?course=" + course + student))
                .is_ok();
        auto co = client.read_response();
        auto se = client.read_response();
        auto dc = client.read_response();
        auto ci = client.read_response();
        if (!sent || !co.is_ok() || co.value().status != 200 || !se.is_ok() ||
            se.value().status != 200 || se.value().body != expected.at(search) ||
            !dc.is_ok() || dc.value().status != 200 ||
            dc.value().body != expected.at(doc) || !ci.is_ok() ||
            ci.value().status != 200) {
          ++failures;
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  // The clock ticked once per ledger operation, and every loan, one per
  // shard holding its course, is back.
  EXPECT_EQ(h.gateway->logical_now(), 2 * kClients * kBursts);
  for (int c = 0; c < kClients; ++c) {
    std::size_t want = 0;
    for (int i = 0; i < kBursts; ++i) {
      const std::string& course = h.courses[(c * kBursts + i) % h.courses.size()];
      for (const auto& lib : h.libs) want += lib.entries().contains(course) ? 1 : 0;
    }
    std::size_t loans = 0;
    for (const auto& lib : h.libs) {
      for (const library::LedgerRecord& r : lib.ledger_of(UserId{100u + c})) {
        EXPECT_TRUE(r.checked_in_at.has_value()) << r.course_number << " still out";
        ++loans;
      }
    }
    EXPECT_EQ(loans, want) << "student " << 100 + c;
  }
}

TEST(Server, StopIsGracefulAndIdempotent) {
  auto s = std::make_unique<ServerHarness>();
  HttpClient client;
  client.connect("127.0.0.1", s->server->port()).expect("connect");
  EXPECT_EQ(client.get("/healthz").expect("get").status, 200);
  s->server->stop();
  s->server->stop();  // idempotent
  EXPECT_FALSE(s->server->running());
  // stop() right after start() finds workers between their wait predicate
  // and their wait; every one must still wake and join.
  for (int i = 0; i < 50; ++i) {
    HttpServer quick(ServerConfig{},
                     [](const Request&) { return Response::text(200, "ok\n"); });
    quick.start().expect("server start");
    quick.stop();
  }
}

}  // namespace
}  // namespace wdoc::http
