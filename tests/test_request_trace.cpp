// obs::RequestTracer: deterministic 1% head sampling, tail promotion at
// 20 ms, error promotion, SpanScope parent chains, the 128-span request cap,
// byte-identical exports of repeated runs, escaping of promoted names in
// the Perfetto export, exact head promotion under concurrent requests, and
// no promotion reported once the durable buffer is full.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/request_trace.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"

using namespace wdoc;
using namespace wdoc::obs;

namespace {

Counter& promoted(const char* reason) {
  return MetricsRegistry::global().counter("obs.trace.promoted", {{"reason", reason}});
}

// Opens a request whose trace id won (`sampled`) or lost the head coin.
// start_request discards the request still open on this thread, so the ids
// skipped on the way leave nothing behind.
TraceContext start_with_verdict(bool sampled, const std::string& name, SimTime at) {
  for (;;) {
    TraceContext ctx = RequestTracer::global().start_request(name, at);
    if (ctx.sampled == sampled) return ctx;
  }
}

// Runs `n` fast requests from a restarted id sequence and returns the
// promoted trace ids, in order.
std::vector<std::uint64_t> promoted_ids(int n) {
  auto& rt = RequestTracer::global();
  rt.restart_trace_ids();
  Tracer::global().clear();
  std::vector<std::uint64_t> out;
  for (int i = 0; i < n; ++i) {
    TraceContext ctx = rt.start_request("GET /x", SimTime::micros(i * 10));
    if (rt.finish_request(ctx, SimTime::micros(i * 10 + 1), /*error=*/false)) {
      EXPECT_TRUE(ctx.sampled);
      out.push_back(ctx.trace_id);
    }
  }
  Tracer::global().clear();
  return out;
}

TEST(RequestTracer, HeadSamplingIsDeterministicAndKeepsOnePercent) {
  auto a = promoted_ids(20'000);
  auto b = promoted_ids(20'000);
  EXPECT_EQ(a, b) << "a restarted id sequence must promote the identical trace set";
  EXPECT_GT(a.size(), 100u);  // ~200 expected at 1%
  EXPECT_LT(a.size(), 300u);
}

TEST(RequestTracer, HeadVerdictIsPureFunctionOfTraceId) {
  auto& rt = RequestTracer::global();
  rt.restart_trace_ids();
  int sampled = 0;
  for (int i = 0; i < 1'000; ++i) {
    TraceContext ctx = rt.start_request("GET /x", SimTime::micros(i));
    // Re-asking later (e.g. a remote station reproducing the coin) agrees.
    EXPECT_EQ(RequestTracer::head_sampled(ctx.trace_id), ctx.sampled);
    if (ctx.sampled) ++sampled;
    (void)rt.finish_request(ctx, SimTime::micros(i + 1), false);
  }
  EXPECT_GT(sampled, 0) << "the check must see both verdicts";
  EXPECT_LT(sampled, 1'000);
  Tracer::global().clear();
}

TEST(RequestTracer, TailLatencyPromotesRequestsOfTwentyMillisecondsOrMore) {
  auto& rt = RequestTracer::global();
  auto& tail = promoted("tail_latency");
  Tracer::global().clear();
  const auto tail0 = tail.value();

  TraceContext fast = start_with_verdict(false, "GET /fast", SimTime::micros(0));
  EXPECT_FALSE(rt.finish_request(fast, SimTime::micros(19'999), false));
  EXPECT_EQ(Tracer::global().span_count(), 0u);
  EXPECT_EQ(tail.value(), tail0);

  TraceContext slow = start_with_verdict(false, "GET /slow", SimTime::micros(0));
  EXPECT_TRUE(rt.finish_request(slow, SimTime::micros(20'000), false));
  EXPECT_EQ(tail.value(), tail0 + 1);
  auto spans = Tracer::global().spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].trace_id, slow.trace_id);
  EXPECT_EQ(spans[0].name, "GET /slow");
  EXPECT_TRUE(spans[0].finished);
  Tracer::global().clear();
}

TEST(RequestTracer, ErrorsArePromotedRegardlessOfLatency) {
  auto& rt = RequestTracer::global();
  auto& err = promoted("error");
  Tracer::global().clear();
  const auto err0 = err.value();
  TraceContext ctx = start_with_verdict(false, "GET /boom", SimTime::micros(0));
  EXPECT_TRUE(rt.finish_request(ctx, SimTime::micros(1), /*error=*/true));
  EXPECT_EQ(err.value(), err0 + 1);
  EXPECT_EQ(Tracer::global().span_count(), 1u);
  Tracer::global().clear();
}

TEST(RequestTracer, PromotionReasonPrecedenceIsHeadThenError) {
  // A head-sampled slow error counts once, as reason=head — that keeps the
  // head counter an exact function of the request count for CI. Without
  // the head coin, error wins over tail latency.
  auto& rt = RequestTracer::global();
  auto& head = promoted("head");
  auto& err = promoted("error");
  auto& tail = promoted("tail_latency");
  Tracer::global().clear();

  const auto head0 = head.value();
  const auto err0 = err.value();
  const auto tail0 = tail.value();
  TraceContext sampled = start_with_verdict(true, "GET /slow-error", SimTime::micros(0));
  EXPECT_TRUE(rt.finish_request(sampled, SimTime::micros(100'000), /*error=*/true));
  EXPECT_EQ(head.value(), head0 + 1);
  EXPECT_EQ(err.value(), err0);
  EXPECT_EQ(tail.value(), tail0);

  TraceContext unsampled = start_with_verdict(false, "GET /slow-error", SimTime::micros(0));
  EXPECT_TRUE(rt.finish_request(unsampled, SimTime::micros(100'000), /*error=*/true));
  EXPECT_EQ(head.value(), head0 + 1);
  EXPECT_EQ(err.value(), err0 + 1);
  EXPECT_EQ(tail.value(), tail0);
  Tracer::global().clear();
}

TEST(RequestTracer, FullDurableBufferPromotesNothing) {
  // The reason counter counts the decision; finish_request reports a
  // promotion only when the durable buffer kept the root span.
  auto& rt = RequestTracer::global();
  auto& head = promoted("head");
  Tracer::global().clear();
  std::vector<SpanRecord> filler(Tracer::kMaxSpans);
  for (auto& rec : filler) rec.id = Tracer::allocate_id();
  ASSERT_EQ(Tracer::global().adopt(std::move(filler)), Tracer::kMaxSpans);

  const auto head0 = head.value();
  TraceContext ctx = start_with_verdict(true, "GET /full", SimTime::micros(0));
  EXPECT_FALSE(rt.finish_request(ctx, SimTime::micros(1), /*error=*/false));
  EXPECT_EQ(head.value(), head0 + 1);
  EXPECT_EQ(Tracer::global().span_count(), Tracer::kMaxSpans);
  EXPECT_GE(Tracer::global().dropped(), 1u);
  Tracer::global().clear();
}

TEST(RequestTracer, SpanScopeNestsUnderAmbientContext) {
  auto& rt = RequestTracer::global();
  Tracer::global().clear();

  TraceContext ctx = rt.start_request("GET /nested", SimTime::micros(0));
  std::uint64_t outer_id = 0;
  std::uint64_t inner_id = 0;
  {
    SpanScope outer("outer", SimTime::micros(1));
    outer_id = RequestTracer::current().span_id;
    {
      SpanScope inner("inner", SimTime::micros(2));
      inner_id = RequestTracer::current().span_id;
      inner.end(SimTime::micros(3));
    }
    // Parent chain restored after the inner scope closed.
    EXPECT_EQ(RequestTracer::current().span_id, outer_id);
    outer.end(SimTime::micros(4));
  }
  EXPECT_EQ(RequestTracer::current().span_id, ctx.span_id);
  ASSERT_TRUE(rt.finish_request(ctx, SimTime::micros(5), /*error=*/true));

  auto spans = Tracer::global().spans();
  ASSERT_EQ(spans.size(), 3u);  // root + outer + inner
  EXPECT_EQ(spans[0].name, "GET /nested");
  EXPECT_EQ(spans[1].id, outer_id);
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[2].id, inner_id);
  EXPECT_EQ(spans[2].parent, outer_id);
  for (const auto& s : spans) {
    EXPECT_EQ(s.trace_id, ctx.trace_id);
    EXPECT_TRUE(s.finished);
  }
  Tracer::global().clear();
}

TEST(RequestTracer, SpanScopeIsNoopOutsideARequest) {
  Tracer::global().clear();
  EXPECT_FALSE(RequestTracer::current().active());
  SpanScope scope("orphan", SimTime::micros(1));
  EXPECT_FALSE(scope.active());
  scope.end(SimTime::micros(2));
  EXPECT_EQ(Tracer::global().span_count(), 0u);
}

TEST(RequestTracer, PerRequestSpanCapCountsProvisionalDrops) {
  auto& rt = RequestTracer::global();
  Tracer::global().clear();
  auto& dropped =
      MetricsRegistry::global().counter("obs.trace.provisional_dropped");
  const auto dropped0 = dropped.value();

  TraceContext ctx = rt.start_request("GET /fanout", SimTime::micros(0));
  int recorded = 0;
  for (int i = 0; i < 140; ++i) {
    SpanScope child("child", SimTime::micros(i + 1));
    if (child.active()) ++recorded;
    child.end(SimTime::micros(i + 2));
  }
  EXPECT_EQ(recorded, 127);  // 128 spans per request, the root included
  ASSERT_TRUE(rt.finish_request(ctx, SimTime::micros(500), /*error=*/true));
  EXPECT_EQ(Tracer::global().span_count(), 128u);
  EXPECT_EQ(dropped.value(), dropped0 + 13);
  Tracer::global().clear();
}

TEST(RequestTracer, SameSeedExportsAreByteIdentical) {
  auto run = [] {
    auto& rt = RequestTracer::global();
    rt.restart_trace_ids();
    Tracer::global().clear();
    for (int i = 0; i < 50; ++i) {
      TraceContext ctx =
          rt.start_request("GET /r" + std::to_string(i % 4), SimTime::micros(i * 100));
      SpanScope child("work", SimTime::micros(i * 100 + 10));
      child.end(SimTime::micros(i * 100 + 20));
      // Every 7th request is slow enough for tail promotion.
      const std::int64_t latency = (i % 7 == 0) ? 20'000 : 90;
      (void)rt.finish_request(ctx, SimTime::micros(i * 100 + latency), false);
    }
    return to_chrome_trace(Tracer::global().drain());
  };
  std::string a = run();
  EXPECT_EQ(a, run()) << "same seed, same explicit clock -> identical export";
  // Promoted trace ids appear in the export (raw, not rebased).
  EXPECT_NE(a.find("\"trace\":"), std::string::npos);
}

TEST(RequestTracer, LeakedRequestIsDiscardedByNextStart) {
  auto& rt = RequestTracer::global();
  Tracer::global().clear();
  TraceContext leaked = rt.start_request("GET /leaked", SimTime::micros(0));
  ASSERT_TRUE(leaked.active());
  // A new request on the same thread discards the stale buffer wholesale.
  TraceContext fresh = rt.start_request("GET /fresh", SimTime::micros(10));
  EXPECT_TRUE(rt.finish_request(fresh, SimTime::micros(11), /*error=*/true));
  // Only the fresh request's root was promoted.
  auto spans = Tracer::global().spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "GET /fresh");
  // Finishing the leaked context after the fact is a counted no-op.
  EXPECT_FALSE(rt.finish_request(leaked, SimTime::micros(20), false));
  Tracer::global().clear();
}

// The gateway names a request's root span after its percent-decoded path,
// so a client chooses every byte of it. Promoted, it must still export as
// JSON: each quote and control byte escaped, and the name never cut short.
TEST(RequestTracer, PromotedNameWithControlBytesExportsEscaped) {
  auto& rt = RequestTracer::global();
  Tracer::global().clear();
  const std::string rest(300, 'x');
  TraceContext ctx =
      rt.start_request("GET /a\nb\"c\x01" + rest, SimTime::micros(0));
  ASSERT_TRUE(rt.finish_request(ctx, SimTime::micros(1), /*error=*/true));
  const std::string json = to_chrome_trace(Tracer::global().drain());

  EXPECT_NE(json.find("\"name\":\"GET /a\\nb\\\"c\\u0001" + rest + "\""),
            std::string::npos)
      << json;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (!in_string) {
      in_string = c == '"';
      continue;
    }
    ASSERT_GE(static_cast<unsigned char>(c), 0x20) << "raw control byte at " << i;
    if (c == '"') {
      in_string = false;
    } else if (c == '\\') {
      ASSERT_LT(i + 1, json.size());
      ASSERT_NE(std::string("\"\\/bfnrtu").find(json[i + 1]), std::string::npos)
          << "bad escape at " << i;
      ++i;
    }
  }
  EXPECT_FALSE(in_string) << "unterminated string";
}

// Four threads run requests with nested spans at once. Whatever the
// interleaving, they mint the first 8,000 ids of the sequence, and exactly
// the head-sampled ones are promoted, each with its whole span tree.
TEST(RequestTracer, ConcurrentRequestsPromoteExactlyTheHeadSampledIds) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2'000;
  auto& rt = RequestTracer::global();
  auto& head = promoted("head");

  // The ids a restarted sequence mints, one request at a time.
  rt.restart_trace_ids();
  std::set<std::uint64_t> expected;
  for (int i = 0; i < kThreads * kPerThread; ++i) {
    TraceContext ctx = rt.start_request("GET /seq", SimTime::micros(0));
    expected.insert(ctx.trace_id);
    (void)rt.finish_request(ctx, SimTime::micros(1), false);
  }
  ASSERT_EQ(expected.size(), static_cast<std::size_t>(kThreads * kPerThread));

  rt.restart_trace_ids();
  Tracer::global().clear();
  const auto head0 = head.value();
  struct Outcome {
    TraceContext ctx;
    bool promoted = false;
  };
  std::vector<std::vector<Outcome>> outcomes(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rt, &outcomes, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::int64_t at = i * 100;
        Outcome o;
        o.ctx = rt.start_request("GET /t" + std::to_string(t), SimTime::micros(at));
        {
          SpanScope outer("outer", SimTime::micros(at + 1));
          SpanScope inner("inner", SimTime::micros(at + 2));
          inner.end(SimTime::micros(at + 3));
          outer.end(SimTime::micros(at + 4));
        }
        o.promoted = rt.finish_request(o.ctx, SimTime::micros(at + 5), false);
        outcomes[t].push_back(o);
      }
    });
  }
  for (auto& th : threads) th.join();

  std::set<std::uint64_t> ids;
  std::set<std::uint64_t> sampled;
  for (const auto& per_thread : outcomes) {
    for (const Outcome& o : per_thread) {
      ids.insert(o.ctx.trace_id);
      EXPECT_EQ(o.ctx.sampled, RequestTracer::head_sampled(o.ctx.trace_id));
      EXPECT_EQ(o.promoted, o.ctx.sampled);
      if (o.ctx.sampled) sampled.insert(o.ctx.trace_id);
    }
  }
  EXPECT_EQ(ids, expected) << "the threads must mint the first 8,000 ids";
  EXPECT_EQ(head.value() - head0, sampled.size());
  ASSERT_FALSE(sampled.empty());

  const auto spans = Tracer::global().spans();
  ASSERT_EQ(spans.size(), 3 * sampled.size());  // root, outer, inner
  std::map<std::uint64_t, const SpanRecord*> by_id;
  for (const SpanRecord& s : spans) by_id[s.id] = &s;
  for (const SpanRecord& s : spans) {
    EXPECT_TRUE(sampled.count(s.trace_id)) << s.name;
    EXPECT_TRUE(s.finished) << s.name;
    if (s.parent == 0) {
      EXPECT_EQ(s.name.rfind("GET /t", 0), 0u) << s.name;
      continue;
    }
    ASSERT_TRUE(by_id.count(s.parent)) << s.name;
    const SpanRecord& parent = *by_id.at(s.parent);
    EXPECT_EQ(parent.trace_id, s.trace_id);
    if (s.name == "inner") {
      EXPECT_EQ(parent.name, "outer");
    } else {
      EXPECT_EQ(s.name, "outer");
      EXPECT_EQ(parent.parent, 0u);  // outer hangs off the root
    }
  }
  Tracer::global().clear();
}

}  // namespace
