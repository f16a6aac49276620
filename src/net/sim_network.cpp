#include "net/sim_network.hpp"

#include <algorithm>

#include "obs/flight_recorder.hpp"

namespace wdoc::net {

SimNetwork::Instruments SimNetwork::Instruments::make() {
  auto& reg = obs::MetricsRegistry::global();
  return Instruments{
      reg.counter("net.messages_sent"),    reg.counter("net.messages_received"),
      reg.counter("net.messages_dropped"), reg.counter("net.bytes_sent"),
      reg.counter("net.bytes_received"),   reg.counter("net.faults_injected"),
      reg.counter("net.fault_drops"),      reg.gauge("net.queue_depth"),
      reg.histogram("net.delivery_latency", {{"unit", "us"}}),
  };
}

StationId SimNetwork::add_station(const StationLink& link) {
  StationId id = station_ids_.next();
  WDOC_CHECK(id.value() == stations_.size() + 1, "station ids must stay dense");
  Station s;
  s.link = link;
  stations_.push_back(std::move(s));
  return id;
}

void SimNetwork::set_handler(StationId id, MessageHandler handler) {
  Station* s = station(id);
  WDOC_CHECK(s != nullptr, "set_handler on unknown station");
  s->handler = std::move(handler);
}

Status SimNetwork::set_link(StationId id, const StationLink& link) {
  Station* s = station(id);
  if (s == nullptr) return {Errc::not_found, "no such station"};
  s->link = link;
  return Status::ok();
}

Result<StationLink> SimNetwork::link_of(StationId id) const {
  const Station* s = station(id);
  if (s == nullptr) return Error{Errc::not_found, "no such station"};
  return s->link;
}

Status SimNetwork::set_online(StationId id, bool online) {
  Station* s = station(id);
  if (s == nullptr) return {Errc::not_found, "no such station"};
  s->online = online;
  return Status::ok();
}

bool SimNetwork::is_online(StationId id) const {
  const Station* s = station(id);
  return s != nullptr && s->online;
}

SimTime SimNetwork::transfer_time(std::uint64_t bytes, double bps) {
  if (bps <= 0) return SimTime::seconds(3600);  // effectively stalled
  return SimTime::seconds(static_cast<double>(bytes) * 8.0 / bps);
}

Status SimNetwork::send(Message msg) {
  Station* from = station(msg.from);
  if (from == nullptr) return {Errc::not_found, "unknown sender"};
  Station* to = station(msg.to);
  if (to == nullptr) return {Errc::not_found, "unknown receiver"};

  const std::uint64_t size = msg.charged_size();
  msg.seq = ++msg_seq_;
  from->stats.messages_sent++;
  from->stats.bytes_sent += size;
  total_bytes_ += size;
  total_messages_++;
  obs_.messages_sent.inc();
  obs_.bytes_sent.inc(size);

  if (!from->online || !to->online ||
      (from->link.loss_rate > 0 && rng_.bernoulli(from->link.loss_rate)) ||
      (to->link.loss_rate > 0 && rng_.bernoulli(to->link.loss_rate))) {
    from->stats.messages_dropped++;
    obs_.messages_dropped.inc();
    return Status::ok();  // silently lost, like the real thing
  }

  // Injected faults. Checks (and any extra rng draws) happen only while a
  // fault window is open, so healthy runs consume the identical draw
  // sequence with or without a plan installed.
  if (!fault_group_.empty() || !fault_loss_.empty()) {
    bool killed = false;
    if (!fault_group_.empty()) {
      auto ga = fault_group_.find(msg.from);
      auto gb = fault_group_.find(msg.to);
      std::uint64_t gfrom = ga == fault_group_.end() ? 0 : ga->second;
      std::uint64_t gto = gb == fault_group_.end() ? 0 : gb->second;
      killed = gfrom != gto;  // symmetric partition: no crossing either way
    }
    if (!killed && !fault_loss_.empty()) {
      for (StationId endpoint : {msg.from, msg.to}) {
        auto it = fault_loss_.find(endpoint);
        if (it != fault_loss_.end() && rng_.bernoulli(it->second)) {
          killed = true;
          break;
        }
      }
    }
    if (killed) {
      from->stats.messages_dropped++;
      obs_.messages_dropped.inc();
      obs_.fault_drops.inc();
      return Status::ok();
    }
  }

  // Uplink serialization (FIFO behind this sender's earlier messages).
  SimTime depart = std::max(now_, from->up_busy_until) + transfer_time(size, from->link.up_bps);
  from->up_busy_until = depart;
  // Propagation: the two stations' to-core latencies add. Jitter adds a
  // uniform sample from each side.
  SimTime propagation = from->link.latency + to->link.latency;
  for (const StationLink* link : {&from->link, &to->link}) {
    if (link->jitter_max > SimTime::zero()) {
      propagation += SimTime::micros(static_cast<std::int64_t>(
          rng_.uniform(static_cast<std::uint64_t>(link->jitter_max.as_micros()) + 1)));
    }
  }
  if (!fault_delay_.empty()) {
    for (StationId endpoint : {msg.from, msg.to}) {
      auto it = fault_delay_.find(endpoint);
      if (it != fault_delay_.end()) propagation += it->second;
    }
  }
  SimTime arrive = depart + propagation;
  // Downlink serialization.
  SimTime done = std::max(arrive, to->down_busy_until) + transfer_time(size, to->link.down_bps);
  to->down_busy_until = done;

  // Delivery is a first-class event: the message (whose payloads are
  // refcounted views) moves into the queue, no closure is allocated.
  Event ev;
  ev.at = done;
  ev.seq = ++event_seq_;
  ev.msg = std::move(msg);
  ev.sent_at = now_;
  ev.is_delivery = true;
  push_event(std::move(ev));
  return Status::ok();
}

void SimNetwork::deliver(Event& ev) {
  Station* to = station(ev.msg.to);
  if (to == nullptr || !to->online) return;
  const std::uint64_t size = ev.msg.charged_size();
  to->stats.messages_received++;
  to->stats.bytes_received += size;
  obs_.messages_received.inc();
  obs_.bytes_received.inc(size);
  obs_.delivery_latency_us.observe(static_cast<double>((now_ - ev.sent_at).as_micros()));
  if (to->handler) to->handler(ev.msg);
}

void SimNetwork::push_event(Event ev) {
  events_.push_back(std::move(ev));
  std::push_heap(events_.begin(), events_.end(), EventLater{});
  note_queue_depth();
}

SimNetwork::Event SimNetwork::pop_event() {
  std::pop_heap(events_.begin(), events_.end(), EventLater{});
  Event ev = std::move(events_.back());
  events_.pop_back();
  note_queue_depth();
  return ev;
}

void SimNetwork::schedule_at(SimTime at, std::function<void()> fn) {
  WDOC_CHECK(at >= now_, "schedule_at in the past");
  Event ev;
  ev.at = at;
  ev.seq = ++event_seq_;
  ev.fn = std::move(fn);
  push_event(std::move(ev));
}

void SimNetwork::schedule_after(SimTime delta, std::function<void()> fn) {
  schedule_at(now_ + delta, std::move(fn));
}

void SimNetwork::schedule_bulk(std::vector<std::pair<SimTime, std::function<void()>>> items) {
  if (items.empty()) return;
  events_.reserve(events_.size() + items.size());
  for (auto& [at, fn] : items) {
    WDOC_CHECK(at >= now_, "schedule_bulk in the past");
    Event ev;
    ev.at = at;
    ev.seq = ++event_seq_;
    ev.fn = std::move(fn);
    events_.push_back(std::move(ev));
  }
  // One O(n) rebuild instead of k O(log n) sifts. The heap property is all
  // pop order depends on — (at, seq) is a strict total order, so the run
  // stays byte-identical to individual pushes.
  std::make_heap(events_.begin(), events_.end(), EventLater{});
  note_queue_depth();
}

Fabric::TimerHandle SimNetwork::schedule_on(StationId station, SimTime delta,
                                            std::function<void()> fn) {
  // One shared event loop: `station` only selects an execution context on
  // the threaded fabric. The handle lets callers (RpcTracker) abandon
  // deadlines that resolved early.
  (void)station;
  auto cancel = std::make_shared<std::atomic<bool>>(false);
  Event ev;
  ev.at = now_ + delta;
  ev.seq = ++event_seq_;
  ev.fn = std::move(fn);
  ev.cancel = cancel;
  push_event(std::move(ev));
  return cancel;
}

bool SimNetwork::step() {
  while (!events_.empty()) {
    // Cancelled timers are discarded without running and without advancing
    // now_: an abandoned rpc deadline must not stretch the clock benches
    // read after run().
    Event ev = pop_event();
    if (ev.cancel && ev.cancel->load()) continue;
    now_ = ev.at;
    if (ev.is_delivery) {
      deliver(ev);
    } else {
      ev.fn();
    }
    return true;
  }
  return false;
}

std::size_t SimNetwork::run() {
  std::size_t n = 0;
  while (step()) ++n;
  return n;
}

std::size_t SimNetwork::run_until(SimTime t) {
  std::size_t n = 0;
  for (;;) {
    while (!events_.empty() && events_.front().cancel && events_.front().cancel->load()) {
      (void)pop_event();
    }
    if (events_.empty() || events_.front().at > t) break;
    step();
    ++n;
  }
  if (now_ < t) now_ = t;
  return n;
}

// --- fault injection ---------------------------------------------------------

void SimNetwork::record_fault(const std::string& detail, StationId station) {
  obs_.faults_injected.inc();
  obs::FlightRecorder::global().record(obs::FlightKind::fault, detail,
                                       station.value(), 0, now_);
}

Status SimNetwork::inject(const FaultPlan& plan) {
  WDOC_TRY(plan.validate());
  auto known = [this](StationId s) { return has_station(s); };
  for (const LossBurst& f : plan.loss_bursts) {
    if (!known(f.station)) return {Errc::not_found, "loss burst: unknown station"};
    if (f.at < now_) return {Errc::invalid_argument, "loss burst scheduled in the past"};
  }
  for (const DelaySpike& f : plan.delay_spikes) {
    if (!known(f.station)) return {Errc::not_found, "delay spike: unknown station"};
    if (f.at < now_) return {Errc::invalid_argument, "delay spike scheduled in the past"};
  }
  for (const Partition& f : plan.partitions) {
    for (StationId s : f.island) {
      if (!known(s)) return {Errc::not_found, "partition: unknown station"};
    }
    if (f.at < now_) return {Errc::invalid_argument, "partition scheduled in the past"};
  }
  for (const Crash& f : plan.crashes) {
    if (!known(f.station)) return {Errc::not_found, "crash: unknown station"};
    if (f.at < now_) return {Errc::invalid_argument, "crash scheduled in the past"};
  }

  // A plan is many transitions; land them through the bulk path so a dense
  // fault schedule doesn't pay one heap sift per edge.
  std::vector<std::pair<SimTime, std::function<void()>>> timers;
  for (const LossBurst& f : plan.loss_bursts) {
    timers.emplace_back(f.at, [this, f] {
      fault_loss_[f.station] = f.rate;
      record_fault("loss burst " + std::to_string(f.rate) + " until t=" +
                       f.until.to_string(),
                   f.station);
    });
    timers.emplace_back(f.until, [this, f] {
      fault_loss_.erase(f.station);
      record_fault("loss burst cleared", f.station);
    });
  }
  for (const DelaySpike& f : plan.delay_spikes) {
    timers.emplace_back(f.at, [this, f] {
      fault_delay_[f.station] = f.extra;
      record_fault("delay spike +" + f.extra.to_string(), f.station);
    });
    timers.emplace_back(f.until, [this, f] {
      fault_delay_.erase(f.station);
      record_fault("delay spike cleared", f.station);
    });
  }
  for (const Partition& f : plan.partitions) {
    const std::uint64_t group = ++next_fault_group_;
    timers.emplace_back(f.at, [this, f, group] {
      for (StationId s : f.island) fault_group_[s] = group;
      record_fault("partition: island of " + std::to_string(f.island.size()) +
                       " station(s) isolated",
                   f.island.front());
    });
    timers.emplace_back(f.until, [this, f, group] {
      for (StationId s : f.island) {
        auto it = fault_group_.find(s);
        if (it != fault_group_.end() && it->second == group) fault_group_.erase(it);
      }
      record_fault("partition healed", f.island.front());
    });
  }
  for (const Crash& f : plan.crashes) {
    timers.emplace_back(f.at, [this, f] {
      (void)set_online(f.station, false);
      record_fault("station crash", f.station);
    });
    if (f.restart_at != SimTime::zero()) {
      timers.emplace_back(f.restart_at, [this, f] {
        (void)set_online(f.station, true);
        record_fault("station restart", f.station);
      });
    }
  }
  schedule_bulk(std::move(timers));
  return Status::ok();
}

const StationStats& SimNetwork::stats(StationId id) const {
  const Station* s = station(id);
  WDOC_CHECK(s != nullptr, "stats for unknown station");
  return s->stats;
}

void SimNetwork::reset_stats() {
  for (Station& s : stations_) s.stats = StationStats{};
  total_bytes_ = 0;
  total_messages_ = 0;
}

}  // namespace wdoc::net
