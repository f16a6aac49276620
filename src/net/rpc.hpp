// Unified RPC lifecycle layer (tentpole of the fault-tolerance redesign).
//
// Every remote request in the distribution protocol used to live in its own
// ad-hoc std::map<req_id, callback> with no expiry — a single dropped
// message stranded the callback forever, and a duplicate response invoked a
// moved-from function. RpcTracker replaces those maps with one owner of the
// whole request lifecycle:
//
//   track() ──▶ in flight ──response──▶ complete()   cb(Result<T>, latency)
//                  │ deadline expires
//                  ▼
//              attempt timeout ──retries left──▶ backoff ──▶ resend ──▶ in flight
//                  │ budget exhausted                │ resend refused
//                  ▼                                 ▼
//        terminal Errc::timeout            terminal Errc::unreachable
//
// Guarantees:
//   * a request counts as started only once its first send left the
//     station; a refused first send is handed back to the caller and
//     leaves no trace in the tracker;
//   * the completion callback fires exactly once with a Result<T>: never
//     silently dropped, never twice — late or duplicate responses are
//     counted and ignored;
//   * retry delays follow capped exponential backoff with deterministic,
//     seeded jitter, so same-seed simulator runs stay byte-identical;
//   * every attempt timeout is surfaced to a TimeoutObserver — that is the
//     failure-detector input StationNode uses to declare a parent dead and
//     reparent its subtree via the paper's placement equation.
//
// Thread-safety: all public entry points lock an internal mutex; user
// callbacks and the resend function are always invoked outside the lock,
// so a completion may immediately issue (and track) a follow-up rpc.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <typeinfo>

#include "common/rng.hpp"
#include "net/fabric.hpp"

namespace wdoc::net {

// The one canonical completion shape every remote operation resolves to:
// the outcome and the fabric time it resolved at.
template <typename T>
using Rpc = std::function<void(Result<T>, SimTime)>;

// Retry budget: an rpc makes at most 1 + kMaxRetries attempts.
inline constexpr std::uint32_t kMaxRetries = 3;
// Growth of the backoff delay from one retry to the next.
inline constexpr double kBackoffMultiplier = 2.0;
// Spread of each backoff delay: +/- this fraction of it, in [0, 1].
inline constexpr double kBackoffJitter = 0.25;

// Capped exponential backoff between retry attempts. The k-th retry waits
// initial * kBackoffMultiplier^(k-1), capped, then spread by
// +/- kBackoffJitter drawn from the tracker's seeded Rng.
struct BackoffPolicy {
  SimTime initial = SimTime::millis(250);
  SimTime cap = SimTime::seconds(4);

  // The k-th retry's delay before jitter (`retry` is 1-based).
  [[nodiscard]] SimTime capped(std::uint32_t retry) const;
  // capped(retry), jittered.
  [[nodiscard]] SimTime delay(std::uint32_t retry, Rng& rng) const;
  [[nodiscard]] Status validate() const;
};

// Per-request lifecycle settings. The default deadline is deliberately
// generous: large documents legitimately serialize for tens of seconds on
// campus links, and a premature timeout means a wasted full retransmission.
// A cluster that moves small payloads on fast links sets a tighter one.
struct RpcOptions {
  SimTime deadline = SimTime::seconds(60);  // per attempt, not end-to-end
  BackoffPolicy backoff;

  [[nodiscard]] Status validate() const;
};

struct RpcStats {
  std::uint64_t started = 0;
  std::uint64_t completed = 0;         // resolved with a response
  std::uint64_t retries = 0;           // resend attempts issued
  std::uint64_t attempt_timeouts = 0;  // per-attempt deadline expiries
  std::uint64_t exhausted = 0;         // terminal failures delivered
  std::uint64_t duplicates = 0;        // responses for already-resolved reqs
};

class RpcTracker {
 public:
  // Sends attempt `attempt` of the request: 0 is the first send, then the
  // 1-based retry count. The target is recomputed per call, so retries
  // re-route around stations declared dead since the previous attempt. A
  // returned error means "no route at all": on the first send, track()
  // hands it back; on a retry it terminates the rpc with Errc::unreachable.
  using ResendFn = std::function<Status(std::uint32_t attempt)>;
  // Notified on every attempt timeout, before the retry (if any) is
  // scheduled. Input to protocol-level failure detection.
  using TimeoutObserver = std::function<void(std::uint64_t req_id, std::uint32_t attempt)>;

  RpcTracker(Fabric& fabric, StationId self);
  ~RpcTracker();
  RpcTracker(const RpcTracker&) = delete;
  RpcTracker& operator=(const RpcTracker&) = delete;

  void set_timeout_observer(TimeoutObserver observer);

  // Registers request `req_id`, arms its first deadline, and sends the
  // first attempt through resend(0). A refused first send is returned: the
  // request is unregistered, counted nowhere, and `done` never fires.
  // Otherwise `done` fires exactly once: via complete()/fail(), or with a
  // terminal error when the retry budget runs out.
  template <typename T>
  [[nodiscard]] Status track(std::uint64_t req_id, const RpcOptions& opts, Rpc<T> done,
                             ResendFn resend) {
    auto cb = std::make_shared<Rpc<T>>(std::move(done));
    return track_erased(req_id, opts, std::move(resend), cb, &typeid(T),
                        [cb](Error e, SimTime t) { (*cb)(Result<T>(std::move(e)), t); });
  }

  // Resolves `req_id` with a response. Returns false (and counts a
  // duplicate) when the request already resolved or was never tracked.
  template <typename T>
  [[nodiscard]] bool complete(std::uint64_t req_id, Result<T> result) {
    std::shared_ptr<void> done = finish(req_id, &typeid(T));
    if (done == nullptr) return false;
    (*std::static_pointer_cast<Rpc<T>>(done))(std::move(result), fabric_->now());
    return true;
  }

  // Resolves `req_id` with a terminal error (e.g. a fetch_err from the
  // tree root). Counts a duplicate if already resolved.
  void fail(std::uint64_t req_id, Error e);

  // Counts a response that arrived for a request this tracker no longer
  // knows — for protocol handlers that detect the duplicate before
  // attempting completion.
  void note_duplicate();

  [[nodiscard]] bool in_flight(std::uint64_t req_id) const;
  [[nodiscard]] std::size_t pending() const;
  [[nodiscard]] RpcStats stats() const;

 private:
  using FailFn = std::function<void(Error, SimTime)>;

  struct Entry {
    RpcOptions opts;
    ResendFn resend;
    std::shared_ptr<void> done;     // Rpc<T>, type-erased
    const std::type_info* tag = nullptr;
    FailFn on_fail;                 // wraps `done` for terminal errors
    std::uint32_t attempt = 0;      // retries performed so far
    std::uint64_t epoch = 0;        // guards against stale timer firings
    SimTime started;
    Fabric::TimerHandle timer;
  };

  [[nodiscard]] Status track_erased(std::uint64_t req_id, const RpcOptions& opts,
                                    ResendFn resend, std::shared_ptr<void> done,
                                    const std::type_info* tag, FailFn on_fail);
  [[nodiscard]] std::shared_ptr<void> finish(std::uint64_t req_id, const std::type_info* tag);
  void on_deadline(std::uint64_t req_id, std::uint64_t epoch);
  void on_retry(std::uint64_t req_id, std::uint64_t epoch);
  void deliver_terminal(std::uint64_t req_id, Entry taken, Error e);

  Fabric* fabric_;
  StationId self_;
  mutable std::mutex mu_;
  std::map<std::uint64_t, Entry> entries_;
  Rng rng_;
  RpcStats stats_;
  TimeoutObserver on_timeout_;
};

}  // namespace wdoc::net
