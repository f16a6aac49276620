#include "obs/flight_recorder.hpp"

#include <algorithm>
#include <cstdio>

namespace wdoc::obs {

const char* flight_kind_name(FlightKind k) {
  switch (k) {
    case FlightKind::deadlock: return "deadlock";
    case FlightKind::lock_wait: return "lock_wait";
    case FlightKind::lock_conflict: return "lock_conflict";
    case FlightKind::replication: return "replication";
    case FlightKind::migration: return "migration";
    case FlightKind::repair: return "repair";
    case FlightKind::scrape: return "scrape";
    case FlightKind::fault: return "fault";
    case FlightKind::rpc_exhausted: return "rpc_exhausted";
    case FlightKind::failover: return "failover";
    case FlightKind::slo_burn: return "slo_burn";
    case FlightKind::custom: return "custom";
  }
  return "?";
}

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder* r = new FlightRecorder();  // never destroyed
  return *r;
}

void FlightRecorder::record(FlightKind kind, std::string detail, std::uint64_t station,
                            std::uint64_t actor, SimTime at) {
  std::uint64_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  FlightEvent ev;
  ev.seq = seq;
  ev.at = at;
  ev.kind = kind;
  ev.station = station;
  ev.actor = actor;
  ev.detail = std::move(detail);

  Shard& sh = shards_[seq % kShards];
  std::lock_guard<std::mutex> g(sh.mu);
  if (sh.ring.size() < kCapacity) {
    sh.ring.push_back(std::move(ev));
  } else {
    sh.ring[sh.write_pos] = std::move(ev);
    sh.write_pos = (sh.write_pos + 1) % kCapacity;
  }
}

std::vector<FlightEvent> FlightRecorder::events() const {
  std::vector<FlightEvent> out;
  for (const Shard& sh : shards_) {
    std::lock_guard<std::mutex> g(sh.mu);
    out.insert(out.end(), sh.ring.begin(), sh.ring.end());
  }
  std::sort(out.begin(), out.end(),
            [](const FlightEvent& a, const FlightEvent& b) { return a.seq < b.seq; });
  return out;
}

std::string FlightRecorder::dump() const {
  std::string out;
  char buf[128];
  for (const FlightEvent& ev : events()) {
    std::snprintf(buf, sizeof buf, "[%6llu] t=%-12s %-13s station=%-4llu actor=%-4llu ",
                  static_cast<unsigned long long>(ev.seq), ev.at.to_string().c_str(),
                  flight_kind_name(ev.kind),
                  static_cast<unsigned long long>(ev.station),
                  static_cast<unsigned long long>(ev.actor));
    out += buf;
    out += ev.detail;
    out += '\n';
  }
  return out;
}

void FlightRecorder::dump_to_stderr(const char* banner) const {
  std::string body = dump();
  if (body.empty()) return;
  std::fprintf(stderr, "\n=== flight recorder: %s (%llu event(s) recorded) ===\n%s",
               banner, static_cast<unsigned long long>(recorded()), body.c_str());
}

}  // namespace wdoc::obs
