// Deterministic discrete-event network simulator.
//
// Each station owns an uplink and a downlink with finite bandwidth; a
// message first serializes on the sender's uplink (FIFO behind earlier
// sends), propagates with the pair's latency, then serializes on the
// receiver's downlink. This makes the economics of the paper's m-ary
// distribution tree visible: a star broadcast serializes N copies through
// one uplink, the tree spreads them across many.
//
// Scale: stations live in a dense vector indexed by id (delivery is one
// array lookup, never a map walk), the event queue is an explicit binary
// heap whose pops move events out instead of copying, and message delivery
// is a first-class event kind — no per-message std::function allocation —
// so N=10,000-station runs with millions of in-flight events stay
// O(log n) per event with tight constants.
//
// Determinism: same seed + same call sequence -> identical delivery order;
// ties in time break by event sequence number (a strict total order, so
// heap order is reproducible bit-for-bit across runs and platforms).
#pragma once

#include <map>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "net/fabric.hpp"
#include "obs/metrics.hpp"

namespace wdoc::net {

struct StationLink {
  double up_bps = 10e6;    // uplink bandwidth, bits/second
  double down_bps = 10e6;  // downlink bandwidth, bits/second
  SimTime latency = SimTime::millis(20);  // one-way to the "Internet core"
  double loss_rate = 0.0;  // per-message drop probability
  SimTime jitter_max = SimTime::zero();  // uniform extra delay in [0, jitter_max]
};

struct StationStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t messages_dropped = 0;
};

class SimNetwork final : public Fabric {
 public:
  explicit SimNetwork(std::uint64_t seed = 42) : rng_(seed) {}

  // Registry instruments shared by every SimNetwork in the process (the
  // per-station StationStats stay for topology-level queries; these feed
  // the obs snapshot that benches export): the FabricTraffic set plus the
  // simulator's own. Cached once per network so the per-message hot path
  // is a plain atomic increment.
  struct Instruments {
    obs::Counter& messages_sent;
    obs::Counter& messages_received;
    obs::Counter& messages_dropped;
    obs::Counter& bytes_sent;
    obs::Counter& bytes_received;
    obs::Counter& faults_injected;  // fault transitions activated
    obs::Counter& fault_drops;      // messages killed by an active fault
    obs::Gauge& queue_depth;
    obs::Histogram& delivery_latency_us;
    [[nodiscard]] static Instruments make();
  };

  // --- topology ----------------------------------------------------------
  [[nodiscard]] StationId add_station(const StationLink& link = {});
  // Pre-sizes the station table (avoids rehashing/growth when a bench adds
  // thousands of stations up front).
  void reserve_stations(std::size_t n) { stations_.reserve(n); }
  void set_handler(StationId station, MessageHandler handler) override;
  [[nodiscard]] bool has_station(StationId id) const { return station(id) != nullptr; }
  [[nodiscard]] std::size_t station_count() const { return stations_.size(); }

  // Change link properties mid-run (experiment E10: drifting bandwidth).
  [[nodiscard]] Status set_link(StationId id, const StationLink& link);
  [[nodiscard]] Status set_online(StationId id, bool online);
  [[nodiscard]] bool is_online(StationId id) const override;
  [[nodiscard]] double uplink_bps(StationId id) const override {
    const Station* s = station(id);
    return s == nullptr ? 0.0 : s->link.up_bps;
  }

  // --- traffic ------------------------------------------------------------
  [[nodiscard]] Status send(Message msg) override;
  [[nodiscard]] SimTime now() const override { return now_; }

  // Schedule arbitrary simulation work (timers, lecture playout deadlines).
  void schedule_at(SimTime at, std::function<void()> fn);
  // Bulk-schedules many timers in one pass: k items land with one O(n + k)
  // heap rebuild instead of k O(log n) sifts. Items keep their relative
  // order for same-time ties (each gets the next event seq in turn). Used
  // by fault-plan injection and scale benches that arm thousands of timers
  // up front.
  void schedule_bulk(std::vector<std::pair<SimTime, std::function<void()>>> items);
  // Cancellable timer (Fabric interface): a cancelled event is skipped
  // without running and — crucially for benches that read now() after
  // run() — without advancing simulated time.
  [[nodiscard]] TimerHandle schedule_on(StationId station, SimTime delta,
                                        std::function<void()> fn) override;

  // --- fault injection ----------------------------------------------------
  // Schedules every transition of `plan` on the event queue. Faulty runs
  // consume extra rng draws only while a loss burst is active, so a plan
  // whose window never opens leaves the simulation byte-identical.
  [[nodiscard]] Status inject(const FaultPlan& plan) override;

  // --- execution --------------------------------------------------------
  // Runs one event; false when the queue is empty.
  bool step();
  // Runs to quiescence; returns events processed.
  std::size_t run();

  // --- stats --------------------------------------------------------------
  [[nodiscard]] const StationStats& stats(StationId id) const;
  [[nodiscard]] std::uint64_t total_bytes_on_wire() const { return total_bytes_; }
  [[nodiscard]] std::uint64_t total_messages() const { return total_messages_; }

 private:
  struct Station {
    StationLink link;
    MessageHandler handler;
    StationStats stats;
    SimTime up_busy_until = SimTime::zero();
    SimTime down_busy_until = SimTime::zero();
    bool online = true;
  };

  // A queued event is either a timer callback or a message delivery.
  // Deliveries are a first-class kind (not a closure) so the per-message
  // hot path allocates nothing beyond the message's own shared payload.
  struct Event {
    SimTime at;
    std::uint64_t seq = 0;
    std::function<void()> fn;  // timer events only
    TimerHandle cancel;        // null for ordinary events
    Message msg;               // delivery events only (type empty = timer)
    SimTime sent_at;           // delivery events only
    bool is_delivery = false;
  };
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  // Dense station table: ids are allocated monotonically from 1, so
  // stations_[id-1] is the station and delivery never scans or walks a map.
  [[nodiscard]] Station* station(StationId id) {
    const std::uint64_t v = id.value();
    return v >= 1 && v <= stations_.size() ? &stations_[v - 1] : nullptr;
  }
  [[nodiscard]] const Station* station(StationId id) const {
    const std::uint64_t v = id.value();
    return v >= 1 && v <= stations_.size() ? &stations_[v - 1] : nullptr;
  }

  [[nodiscard]] static SimTime transfer_time(std::uint64_t bytes, double bps);
  void record_fault(const std::string& detail, StationId station);
  void push_event(Event ev);
  [[nodiscard]] Event pop_event();
  void deliver(Event& ev);
  void note_queue_depth() {
    obs_.queue_depth.set(static_cast<std::int64_t>(events_.size()));
  }

  std::vector<Station> stations_;
  // Active fault state, keyed by station. Partition groups: stations in the
  // same group (or both ungrouped, group 0) can talk; across groups they
  // cannot.
  std::map<StationId, double> fault_loss_;
  std::map<StationId, SimTime> fault_delay_;
  std::map<StationId, std::uint64_t> fault_group_;
  std::uint64_t next_fault_group_ = 0;
  // Explicit binary heap (std::push_heap/pop_heap over a vector): pops move
  // events out instead of copying, and bulk inserts rebuild in O(n).
  std::vector<Event> events_;
  IdAllocator<StationId> station_ids_;
  SimTime now_ = SimTime::zero();
  std::uint64_t event_seq_ = 0;
  std::uint64_t msg_seq_ = 0;
  std::uint64_t total_bytes_ = 0;
  std::uint64_t total_messages_ = 0;
  Rng rng_;
  Instruments obs_ = Instruments::make();
};

}  // namespace wdoc::net
