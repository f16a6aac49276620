#include "obs/request_trace.hpp"

#include <chrono>

#include "obs/metrics.hpp"

namespace wdoc::obs {

namespace {

struct TraceMetrics {
  Counter& requests;
  Counter& promoted_head;
  Counter& promoted_error;
  Counter& promoted_tail;
  Counter& discarded;
  Counter& provisional_dropped;

  static TraceMetrics& get() {
    static TraceMetrics* m = [] {
      auto& reg = MetricsRegistry::global();
      return new TraceMetrics{
          reg.counter("obs.trace.requests"),
          reg.counter("obs.trace.promoted", {{"reason", "head"}}),
          reg.counter("obs.trace.promoted", {{"reason", "error"}}),
          reg.counter("obs.trace.promoted", {{"reason", "tail_latency"}}),
          reg.counter("obs.trace.discarded"),
          reg.counter("obs.trace.provisional_dropped"),
      };
    }();
    return *m;
  }
};

// The tracing policy (see request_trace.hpp). Head sampling keeps 1% of
// trace ids: the coin is the low 32 bits of a hash of the id, so the rate
// is kept as its threshold on 2^32.
constexpr std::uint64_t kHeadSampleThreshold =
    static_cast<std::uint64_t>(0.01 * 4294967296.0);
static_assert(kHeadSampleThreshold == 42'949'672);
// Requests at least this slow are promoted even when not head-sampled.
constexpr std::int64_t kTailLatencyMicros = 20'000;
// Seeds both the trace-id sequence and the head coin.
constexpr std::uint64_t kSeed = 0x7ace;
// Bound on a request's provisional buffer, root span included.
constexpr std::size_t kMaxSpansPerRequest = 128;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// The provisional buffer for the request currently open on this thread.
struct ThreadState {
  TraceContext ctx;             // ambient; ctx.span_id is the current parent
  std::uint64_t root_span = 0;  // buffer index 0 when active
  std::vector<SpanRecord> spans;
  std::uint64_t overflow = 0;

  void reset() {
    ctx = {};
    root_span = 0;
    spans.clear();
    overflow = 0;
  }
};

thread_local ThreadState t_state;

SpanRecord* find_span(std::vector<SpanRecord>& spans, std::uint64_t id) {
  for (auto it = spans.rbegin(); it != spans.rend(); ++it) {
    if (it->id == id) return &*it;
  }
  return nullptr;
}

// Opens a provisional span under this thread's ambient context. Returns 0
// when no request is open or the request's buffer is full.
std::uint64_t begin_span(std::string name, SimTime at) {
  ThreadState& t = t_state;
  if (!t.ctx.active()) return 0;
  if (t.spans.size() >= kMaxSpansPerRequest) {
    ++t.overflow;
    return 0;
  }
  SpanRecord rec;
  rec.id = Tracer::allocate_id();
  rec.trace_id = t.ctx.trace_id;
  rec.parent = t.ctx.span_id;
  rec.station = t.spans.front().station;
  rec.name = std::move(name);
  rec.start = at;
  rec.end = at;
  t.spans.push_back(std::move(rec));
  return t.spans.back().id;
}

}  // namespace

RequestTracer& RequestTracer::global() {
  static RequestTracer* t = new RequestTracer();  // never destroyed
  return *t;
}

void RequestTracer::restart_trace_ids() {
  next_trace_.store(0, std::memory_order_relaxed);
}

TraceContext RequestTracer::mint() {
  const std::uint64_t n = next_trace_.fetch_add(1, std::memory_order_relaxed) + 1;
  std::uint64_t id = splitmix64(kSeed * 0x2545f4914f6cdd1dULL + n);
  if (id == 0) id = 1;
  return TraceContext{id, 0, head_sampled(id)};
}

bool RequestTracer::head_sampled(std::uint64_t trace_id) {
  const std::uint64_t coin =
      splitmix64(trace_id ^ kSeed ^ 0x5a17b3c9d02e8f4bULL) & 0xffffffffULL;
  return coin < kHeadSampleThreshold;
}

TraceContext RequestTracer::start_request(std::string name, SimTime at,
                                          std::uint64_t station) {
  ThreadState& t = t_state;
  t.reset();  // a leaked previous request is discarded wholesale
  TraceContext ctx = mint();
  SpanRecord root;
  root.id = Tracer::allocate_id();
  root.trace_id = ctx.trace_id;
  root.parent = 0;
  root.station = station;
  root.name = std::move(name);
  root.start = at;
  root.end = at;
  t.spans.push_back(std::move(root));
  ctx.span_id = t.spans.front().id;
  t.ctx = ctx;
  t.root_span = ctx.span_id;
  return ctx;
}

bool RequestTracer::finish_request(const TraceContext& ctx, SimTime at, bool error) {
  ThreadState& t = t_state;
  if (!ctx.active() || t.ctx.trace_id != ctx.trace_id || t.spans.empty()) {
    t.reset();
    return false;
  }
  SpanRecord& root = t.spans.front();
  root.end = at;
  root.finished = true;
  const std::int64_t latency = (at - root.start).as_micros();

  auto& m = TraceMetrics::get();
  m.requests.inc();
  if (t.overflow != 0) m.provisional_dropped.inc(t.overflow);

  // Head wins the tie so the head-sampled count is a pure function of the
  // request count and seed — CI holds it to an exact baseline value even
  // though tail promotions vary with machine timing.
  Counter* reason = nullptr;
  if (ctx.sampled) {
    reason = &m.promoted_head;
  } else if (error) {
    reason = &m.promoted_error;
  } else if (latency >= kTailLatencyMicros) {
    reason = &m.promoted_tail;
  }
  // The reason counts the decision; the request counts as promoted only if
  // the durable buffer kept its root span (the first record), so an
  // exemplar never names a trace a full buffer dropped.
  bool promoted = false;
  if (reason != nullptr) {
    reason->inc();
    promoted = Tracer::global().adopt(std::move(t.spans)) > 0;
  } else {
    m.discarded.inc();
  }
  t.reset();
  return promoted;
}

TraceContext RequestTracer::current() { return t_state.ctx; }

// --- SpanScope ---------------------------------------------------------------

SimTime SpanScope::wall_now() {
  static const auto t0 = std::chrono::steady_clock::now();
  return SimTime::micros(std::chrono::duration_cast<std::chrono::microseconds>(
                             std::chrono::steady_clock::now() - t0)
                             .count());
}

SpanScope::SpanScope(std::string name) : SpanScope(std::move(name), wall_now()) {}

SpanScope::SpanScope(std::string name, SimTime start) {
  span_id_ = begin_span(std::move(name), start);
  // Children opened while this scope lives nest under it.
  if (span_id_ != 0) t_state.ctx.span_id = span_id_;
}

void SpanScope::end(SimTime at) {
  if (span_id_ == 0) return;
  ThreadState& t = t_state;
  SpanRecord* rec = find_span(t.spans, span_id_);
  if (rec != nullptr) {
    rec->end = at;
    rec->finished = true;
  }
  // Restore the parent chain if this scope is still the current parent.
  if (t.ctx.span_id == span_id_) {
    t.ctx.span_id = rec != nullptr ? rec->parent : t.root_span;
  }
  span_id_ = 0;
}

SpanScope::~SpanScope() { end(wall_now()); }

}  // namespace wdoc::obs
