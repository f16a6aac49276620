// wdoc_obs — lightweight span tracer and trace identity.
//
// Spans are (id, trace, parent, name, start, end) records stamped with
// SimTime, so a trace is deterministic when the clock is SimNetwork::now()
// and wall-clock-since-start when it is ThreadTransport::now(). Parent ids
// may come from another station's span (a net::Message carries its sender's
// TraceContext in `trace`: trace id, parent span and head verdict), which
// lets a trace follow one lecture push — or one HTTP request — across every
// station inside a single process, simulator or threads alike.
//
// A TraceContext names one end-to-end request: the trace id minted at the
// edge, the span currently acting as parent, and the head-sampling verdict.
// It is the unit that crosses layer and wire boundaries; see
// obs/request_trace.hpp for how contexts are minted and tail-sampled.
//
// The record buffer is bounded (kMaxSpans); past the cap new spans are
// counted as dropped (obs.trace.dropped, plus a one-shot warning log)
// rather than recorded, so long benches cannot grow memory without bound.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/sim_time.hpp"

namespace wdoc::obs {

// Identity of one end-to-end request, minted at the edge and propagated
// through every layer it touches (gateway handlers, federated search, the
// storage/txn path) and across the wire (net::Message).
struct TraceContext {
  std::uint64_t trace_id = 0;  // 0 = not part of any trace
  std::uint64_t span_id = 0;   // current parent span within the trace
  bool sampled = false;        // head-sampling verdict (travels on the wire)

  [[nodiscard]] bool active() const { return trace_id != 0; }
};

// Derives a trace id from an already-unique key (e.g. a dist-layer
// transfer id) via the splitmix64 finalizer. Deterministic and never 0, so
// same-seed simulator runs mint identical trace ids without any shared
// counter — the property test_scrape's byte-identical-export check relies
// on.
[[nodiscard]] std::uint64_t derive_trace_id(std::uint64_t key);

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t trace_id = 0;  // 0 = legacy span outside any trace
  std::uint64_t parent = 0;   // 0 = root
  std::uint64_t station = 0;  // StationId of the recording node (0 = none)
  std::string name;
  SimTime start;
  SimTime end;
  bool finished = false;
};

class Tracer {
 public:
  static constexpr std::size_t kMaxSpans = 64 * 1024;

  [[nodiscard]] static Tracer& global();

  // Allocates a process-unique span id without recording anything. Used by
  // the request tracer's provisional buffers, so a provisionally-buffered
  // span keeps its id when it is later promoted via adopt() — remote spans
  // that parented on it over the wire still join up.
  [[nodiscard]] static std::uint64_t allocate_id();

  // Starts a span at `at`; returns its id (0 when tracing is disabled or
  // the buffer is full — end() on id 0 is a no-op). `station` stamps the
  // recording node so exporters can group spans per station; `trace_id`
  // ties the span to an end-to-end trace (0 = none).
  [[nodiscard]] std::uint64_t begin(std::string name, std::uint64_t parent, SimTime at,
                                    std::uint64_t station = 0, std::uint64_t trace_id = 0);
  void end(std::uint64_t id, SimTime at);

  // Appends already-finished records (ids pre-allocated via allocate_id())
  // — the promotion path of tail sampling. Ignores the enabled() gate: the
  // promotion decision was already made upstream. Records past kMaxSpans
  // are dropped and counted. Returns how many records were retained.
  std::size_t adopt(std::vector<SpanRecord> records);

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  [[nodiscard]] std::vector<SpanRecord> spans() const;
  // Moves the record buffer out (O(1), no copy under the mutex) and leaves
  // the tracer recording into a fresh buffer. Span ids keep counting up, so
  // end() on an id drained away is a no-op, like ids from before clear().
  [[nodiscard]] std::vector<SpanRecord> drain();
  [[nodiscard]] std::size_t span_count() const;
  [[nodiscard]] std::uint64_t dropped() const;
  void clear();

 private:
  // Counts a capacity drop: bumps dropped_, the obs.trace.dropped counter,
  // and logs a one-shot warning. Caller holds mu_.
  void note_drop_locked(std::size_t n);

  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  std::unordered_map<std::uint64_t, std::size_t> index_;  // id -> spans_ index
  std::uint64_t dropped_ = 0;
  std::atomic<bool> enabled_{false};
};

}  // namespace wdoc::obs
