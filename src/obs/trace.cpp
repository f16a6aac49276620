#include "obs/trace.hpp"

#include "common/log.hpp"
#include "obs/metrics.hpp"

namespace wdoc::obs {

namespace {

// Shared by every begin() and by provisional request buffers, so a span id
// is unique process-wide no matter which path recorded it.
std::atomic<std::uint64_t> g_next_span_id{0};

}  // namespace

std::uint64_t derive_trace_id(std::uint64_t key) {
  // splitmix64 finalizer.
  std::uint64_t x = key + 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x == 0 ? 1 : x;
}

Tracer& Tracer::global() {
  static Tracer* t = new Tracer();  // never destroyed
  return *t;
}

std::uint64_t Tracer::allocate_id() {
  return g_next_span_id.fetch_add(1, std::memory_order_relaxed) + 1;
}

void Tracer::note_drop_locked(std::size_t n) {
  static Counter& dropped = MetricsRegistry::global().counter("obs.trace.dropped");
  const bool first = dropped_ == 0;
  dropped_ += n;
  dropped.inc(n);
  if (first) {
    WDOC_WARN("tracer: span buffer full (%zu spans); dropping new spans "
              "(counted in obs.trace.dropped) until drain()",
              kMaxSpans);
  }
}

std::uint64_t Tracer::begin(std::string name, std::uint64_t parent, SimTime at,
                            std::uint64_t station, std::uint64_t trace_id) {
  if (!enabled()) return 0;
  std::uint64_t id = allocate_id();
  std::lock_guard<std::mutex> g(mu_);
  if (spans_.size() >= kMaxSpans) {
    note_drop_locked(1);
    return 0;
  }
  SpanRecord rec;
  rec.id = id;
  rec.trace_id = trace_id;
  rec.parent = parent;
  rec.station = station;
  rec.name = std::move(name);
  rec.start = at;
  rec.end = at;
  index_.emplace(id, spans_.size());
  spans_.push_back(std::move(rec));
  return id;
}

void Tracer::end(std::uint64_t id, SimTime at) {
  if (id == 0) return;
  std::lock_guard<std::mutex> g(mu_);
  // Ids drained or cleared away are no longer in the index and are ignored.
  auto it = index_.find(id);
  if (it == index_.end()) return;
  SpanRecord& rec = spans_[it->second];
  rec.end = at;
  rec.finished = true;
}

std::size_t Tracer::adopt(std::vector<SpanRecord> records) {
  std::lock_guard<std::mutex> g(mu_);
  std::size_t kept = 0;
  for (SpanRecord& rec : records) {
    if (spans_.size() >= kMaxSpans) {
      note_drop_locked(records.size() - kept);
      break;
    }
    index_.emplace(rec.id, spans_.size());
    spans_.push_back(std::move(rec));
    ++kept;
  }
  return kept;
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> g(mu_);
  return spans_;
}

std::vector<SpanRecord> Tracer::drain() {
  std::lock_guard<std::mutex> g(mu_);
  std::vector<SpanRecord> out = std::move(spans_);
  spans_ = {};
  index_.clear();
  dropped_ = 0;
  return out;
}

}  // namespace wdoc::obs
