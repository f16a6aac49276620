#include "net/rpc.hpp"

#include <algorithm>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"

namespace wdoc::net {

namespace {

// Seed for the tracker's deterministic backoff jitter.
constexpr std::uint64_t kRpcSeed = 0x77d0c;

// Process-wide rpc counters; every tracker shares them (per-tracker totals
// live in RpcStats and surface per-station via StationNode::local_snapshot).
struct RpcMetrics {
  obs::Counter& started;
  obs::Counter& completed;
  obs::Counter& retries;
  obs::Counter& attempt_timeouts;
  obs::Counter& exhausted;
  obs::Counter& duplicates;
  obs::Histogram& latency_us;

  static RpcMetrics& get() {
    static RpcMetrics* m = [] {
      auto& reg = obs::MetricsRegistry::global();
      return new RpcMetrics{
          reg.counter("rpc.started"),          reg.counter("rpc.completed"),
          reg.counter("rpc.retries"),          reg.counter("rpc.attempt_timeouts"),
          reg.counter("rpc.exhausted"),        reg.counter("rpc.duplicates"),
          reg.histogram("rpc.latency", {{"unit", "us"}}),
      };
    }();
    return *m;
  }
};

}  // namespace

SimTime BackoffPolicy::capped(std::uint32_t retry) const {
  WDOC_CHECK(retry >= 1, "BackoffPolicy::capped: retry is 1-based");
  // Iterated multiply instead of std::pow: every step is a single IEEE
  // operation, so delays (and therefore event order and rng consumption)
  // are bit-identical across platforms and libms. The product stays a
  // whole number of microseconds, so the SimTime holds it exactly.
  double us = static_cast<double>(initial.as_micros());
  const double cap_us = static_cast<double>(cap.as_micros());
  for (std::uint32_t i = 1; i < retry && us < cap_us; ++i) us *= kBackoffMultiplier;
  return SimTime::micros(static_cast<std::int64_t>(std::min(us, cap_us)));
}

SimTime BackoffPolicy::delay(std::uint32_t retry, Rng& rng) const {
  double us = static_cast<double>(capped(retry).as_micros());
  us += (rng.uniform01() * 2.0 - 1.0) * (us * kBackoffJitter);
  return SimTime::micros(std::max<std::int64_t>(static_cast<std::int64_t>(us), 1));
}

Status BackoffPolicy::validate() const {
  if (initial <= SimTime::zero()) {
    return {Errc::invalid_argument, "backoff: initial delay must be > 0"};
  }
  if (cap < initial) return {Errc::invalid_argument, "backoff: cap < initial"};
  return Status::ok();
}

Status RpcOptions::validate() const {
  if (deadline <= SimTime::zero()) {
    return {Errc::invalid_argument, "rpc: deadline must be > 0"};
  }
  return backoff.validate();
}

RpcTracker::RpcTracker(Fabric& fabric, StationId self)
    : fabric_(&fabric),
      self_(self),
      // Mix the station id into the seed so co-located trackers still
      // jitter independently.
      rng_(kRpcSeed ^ (0x9e3779b97f4a7c15ULL * (self.value() + 1))) {}

RpcTracker::~RpcTracker() {
  std::lock_guard<std::mutex> g(mu_);
  for (auto& [id, e] : entries_) {
    if (e.timer) e.timer->store(true);
  }
  entries_.clear();
}

void RpcTracker::set_timeout_observer(TimeoutObserver observer) {
  std::lock_guard<std::mutex> g(mu_);
  on_timeout_ = std::move(observer);
}

Status RpcTracker::track_erased(std::uint64_t req_id, const RpcOptions& opts,
                                ResendFn resend, std::shared_ptr<void> done,
                                const std::type_info* tag, FailFn on_fail) {
  Status valid = opts.validate();
  WDOC_CHECK(valid.is_ok(), "RpcTracker::track: " + valid.message());
  ResendFn first = resend;  // copy: invoked outside the lock
  {
    std::lock_guard<std::mutex> g(mu_);
    WDOC_CHECK(!entries_.contains(req_id), "RpcTracker::track: req_id already in flight");
    Entry e;
    e.opts = opts;
    e.resend = std::move(resend);
    e.done = std::move(done);
    e.tag = tag;
    e.on_fail = std::move(on_fail);
    e.started = fabric_->now();
    std::uint64_t epoch = ++e.epoch;
    // Armed before the first send, so the deadline precedes the message in
    // the fabric's event order (on_retry does the same for every retry).
    e.timer = fabric_->schedule_on(self_, opts.deadline,
                                   [this, req_id, epoch] { on_deadline(req_id, epoch); });
    entries_.emplace(req_id, std::move(e));
  }
  Status sent = first(0);
  std::lock_guard<std::mutex> g(mu_);
  if (!sent.is_ok()) {
    // The request never left the station: it is not an rpc at all.
    if (auto it = entries_.find(req_id); it != entries_.end()) {
      if (it->second.timer) it->second.timer->store(true);
      entries_.erase(it);
    }
    return sent;
  }
  ++stats_.started;
  RpcMetrics::get().started.inc();
  return sent;
}

std::shared_ptr<void> RpcTracker::finish(std::uint64_t req_id, const std::type_info* tag) {
  std::lock_guard<std::mutex> g(mu_);
  auto it = entries_.find(req_id);
  if (it == entries_.end()) {
    ++stats_.duplicates;
    RpcMetrics::get().duplicates.inc();
    return nullptr;
  }
  WDOC_CHECK(*it->second.tag == *tag, "RpcTracker::complete: result type mismatch");
  if (it->second.timer) it->second.timer->store(true);
  ++stats_.completed;
  RpcMetrics::get().completed.inc();
  RpcMetrics::get().latency_us.observe(
      static_cast<double>((fabric_->now() - it->second.started).as_micros()));
  std::shared_ptr<void> done = std::move(it->second.done);
  entries_.erase(it);
  return done;
}

void RpcTracker::fail(std::uint64_t req_id, Error e) {
  Entry taken;
  {
    std::lock_guard<std::mutex> g(mu_);
    auto it = entries_.find(req_id);
    if (it == entries_.end()) {
      ++stats_.duplicates;
      RpcMetrics::get().duplicates.inc();
      return;
    }
    if (it->second.timer) it->second.timer->store(true);
    taken = std::move(it->second);
    entries_.erase(it);
  }
  deliver_terminal(req_id, std::move(taken), std::move(e));
}

void RpcTracker::note_duplicate() {
  std::lock_guard<std::mutex> g(mu_);
  ++stats_.duplicates;
  RpcMetrics::get().duplicates.inc();
}

bool RpcTracker::in_flight(std::uint64_t req_id) const {
  std::lock_guard<std::mutex> g(mu_);
  return entries_.contains(req_id);
}

std::size_t RpcTracker::pending() const {
  std::lock_guard<std::mutex> g(mu_);
  return entries_.size();
}

RpcStats RpcTracker::stats() const {
  std::lock_guard<std::mutex> g(mu_);
  return stats_;
}

void RpcTracker::on_deadline(std::uint64_t req_id, std::uint64_t epoch) {
  TimeoutObserver observer;
  std::uint32_t timed_out_attempt = 0;
  bool terminal = false;
  Entry taken;
  {
    std::lock_guard<std::mutex> g(mu_);
    auto it = entries_.find(req_id);
    if (it == entries_.end() || it->second.epoch != epoch) return;  // stale timer
    Entry& e = it->second;
    ++stats_.attempt_timeouts;
    RpcMetrics::get().attempt_timeouts.inc();
    observer = on_timeout_;
    timed_out_attempt = e.attempt;
    if (e.attempt < kMaxRetries) {
      ++e.attempt;
      ++stats_.retries;
      RpcMetrics::get().retries.inc();
      SimTime backoff = e.opts.backoff.delay(e.attempt, rng_);
      std::uint64_t next = ++e.epoch;
      e.timer = fabric_->schedule_on(self_, backoff,
                                     [this, req_id, next] { on_retry(req_id, next); });
    } else {
      terminal = true;
      taken = std::move(e);
      entries_.erase(it);
    }
  }
  if (observer) observer(req_id, timed_out_attempt);
  if (terminal) {
    const std::uint32_t attempts = taken.attempt + 1;
    deliver_terminal(req_id, std::move(taken),
                     Error{Errc::timeout,
                           "rpc " + std::to_string(req_id) + " timed out after " +
                               std::to_string(attempts) + " attempt(s)"});
  }
}

void RpcTracker::on_retry(std::uint64_t req_id, std::uint64_t epoch) {
  ResendFn resend;
  std::uint32_t attempt = 0;
  {
    std::lock_guard<std::mutex> g(mu_);
    auto it = entries_.find(req_id);
    if (it == entries_.end() || it->second.epoch != epoch) return;  // stale timer
    Entry& e = it->second;
    resend = e.resend;  // copy: invoked outside the lock
    attempt = e.attempt;
    std::uint64_t next = ++e.epoch;
    e.timer = fabric_->schedule_on(self_, e.opts.deadline,
                                   [this, req_id, next] { on_deadline(req_id, next); });
  }
  Status sent = resend ? resend(attempt)
                       : Status{Errc::unavailable, "rpc has no resend function"};
  if (!sent.is_ok()) {
    fail(req_id, Error{Errc::unreachable,
                       "rpc " + std::to_string(req_id) + " retry " +
                           std::to_string(attempt) + " unroutable: " + sent.message()});
  }
}

void RpcTracker::deliver_terminal(std::uint64_t req_id, Entry taken, Error e) {
  {
    std::lock_guard<std::mutex> g(mu_);
    ++stats_.exhausted;
  }
  RpcMetrics::get().exhausted.inc();
  obs::FlightRecorder::global().record(
      obs::FlightKind::rpc_exhausted, e.to_string(), self_.value(), req_id,
      fabric_->now());
  if (taken.on_fail) taken.on_fail(std::move(e), fabric_->now());
}

}  // namespace wdoc::net
