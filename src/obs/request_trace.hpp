// wdoc_obs — per-request tracing with head sampling and tail-based capture.
//
// The edge (the HTTP gateway) mints one TraceContext per request. The
// request's spans are provisionally buffered in a bounded per-thread ring —
// never in the durable Tracer — and the whole buffer is promoted at request
// end only if the request
//   * won the deterministic head-sampling coin (1% of trace ids: a pure
//     function of the trace id under a fixed seed, so same-seed runs
//     promote the same trace set),
//   * errored (5xx at the edge), or
//   * took at least 20,000 µs, the tail-latency threshold.
// Everything else is discarded wholesale, so the steady state pays only the
// head-sample rate in durable-buffer space. A slow or failed request is
// fully traced only while the durable Tracer has room: its buffer holds
// Tracer::kMaxSpans (64 Ki) spans, only a drain() (write_trace_file at a
// bench's exit) empties it, and once it is full a promotion keeps nothing
// and counts the spans in obs.trace.dropped (a full-length suite `gateway`
// run fills it). A request buffers at most 128 spans (root included);
// spans past that are counted in obs.trace.provisional_dropped and not
// recorded.
//
// Tracing is always on, and the policy above is a set of constants in
// request_trace.cpp: no span takes a lock or reads a configuration.
//
// Sampling state machine per request:
//
//   start_request ──▶ buffering (thread-local ring, real span ids)
//        │ finish_request(at, error)
//        ▼
//   promote?  head-sampled ──────────────▶ adopt() into Tracer  [reason=head]
//             error ─────────────────────▶ adopt()              [reason=error]
//             latency >= tail threshold ─▶ adopt()              [reason=tail_latency]
//             otherwise ─────────────────▶ discard (counted)
//
// A request is handled start-to-finish by one thread (the HTTP server's
// worker-owns-connection model), so the ambient context is thread-local:
// deep layers (federated search, the storage/txn path) attach spans with a
// SpanScope and never thread a context through their signatures. Remote
// stations join a trace through the TraceContext a net::Message carries.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "common/sim_time.hpp"
#include "obs/trace.hpp"

namespace wdoc::obs {

class RequestTracer {
 public:
  [[nodiscard]] static RequestTracer& global();

  // Restarts trace-id minting from zero, so same-seed runs mint the same
  // trace ids and promote the same head-sampled set. Call at startup (the
  // gateway constructor does), not mid-traffic.
  void restart_trace_ids();

  // Head-sample verdict for a trace id: the one definition of the coin,
  // exposed so tests and remote joiners can reproduce it.
  [[nodiscard]] static bool head_sampled(std::uint64_t trace_id);

  // Opens a request on this thread: mints a context (deterministic trace
  // id + head-sample verdict), begins the root span in the provisional
  // buffer, and installs the context as this thread's ambient context.
  [[nodiscard]] TraceContext start_request(std::string name, SimTime at,
                                           std::uint64_t station = 0);

  // Ends the root span and applies the promotion decision. Returns true if
  // the durable Tracer kept the request's root span: a full buffer keeps
  // none, though obs.trace.promoted still counts the decision. Clears the
  // thread's ambient context either way.
  bool finish_request(const TraceContext& ctx, SimTime at, bool error);

  // This thread's ambient context: trace id + current parent span. Inactive
  // (trace_id 0) outside a start_request/finish_request window.
  [[nodiscard]] static TraceContext current();

 private:
  [[nodiscard]] TraceContext mint();

  std::atomic<std::uint64_t> next_trace_{0};
};

// RAII provisional span under this thread's ambient request context. A
// no-op when no request is active, so deep layers can use it
// unconditionally. Times default to a monotonic wall clock (micros since
// the first use in the process); pass explicit SimTimes for deterministic
// tests.
class SpanScope {
 public:
  explicit SpanScope(std::string name);
  SpanScope(std::string name, SimTime start);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  // Ends the span early at `at`; the destructor then does nothing.
  void end(SimTime at);

  [[nodiscard]] bool active() const { return span_id_ != 0; }

  // Monotonic wall clock: microseconds since first call in this process.
  [[nodiscard]] static SimTime wall_now();

 private:
  std::uint64_t span_id_ = 0;
};

}  // namespace wdoc::obs
