// wdoc_obs — flight recorder: a bounded, mutex-sharded ring buffer of
// structured incident events.
//
// Where metrics answer "how many" and spans answer "how long", the flight
// recorder answers "what exactly happened just before things went wrong":
// deadlock victims, lock waits over threshold, watermark replication
// decisions, post-lecture migration, anti-entropy repair. Recording is a
// short critical section on one of kShards mutexes (sharded by a global
// sequence counter, so concurrent writers rarely contend); the buffer is
// bounded at kCapacity events per shard and overwrites the oldest, so it
// can stay on in month-long benches.
//
// dump() renders the merged, sequence-ordered event log as text. Tests dump
// it automatically on failure (see tests/wdoc_gtest_main.cpp) and benches
// on unhandled exceptions, so a C4–C6 incident is reconstructible from the
// failing run's output alone.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/sim_time.hpp"

namespace wdoc::obs {

enum class FlightKind : std::uint8_t {
  deadlock = 0,        // txn chosen as deadlock victim
  lock_wait,           // lock wait past threshold / timeout
  lock_conflict,       // hierarchy-lock refusal (paper's table said no)
  replication,         // watermark hit: document materialized locally
  migration,           // ephemeral instance demoted back to a reference
  repair,              // anti-entropy pull for a station the push missed
  scrape,              // cluster scrape fan-out/merge activity
  fault,               // injected fault transition (crash, partition, burst)
  rpc_exhausted,       // rpc delivered a terminal error (timeout/unreachable)
  failover,            // peer declared dead / subtree reparented / resurrected
  slo_burn,            // SLO burn-rate alert fired or cleared
  custom,              // anything else worth a post-mortem line
};

[[nodiscard]] const char* flight_kind_name(FlightKind k);

struct FlightEvent {
  std::uint64_t seq = 0;     // global order across shards
  SimTime at;                // fabric time when known, zero otherwise
  FlightKind kind = FlightKind::custom;
  std::uint64_t station = 0;  // recording station (0 = process-level event)
  std::uint64_t actor = 0;    // txn / user id when applicable
  std::string detail;         // human-readable specifics ("doc X, count 4/4")
};

class FlightRecorder {
 public:
  static constexpr std::size_t kShards = 8;
  static constexpr std::size_t kCapacity = 512;  // events per shard

  [[nodiscard]] static FlightRecorder& global();

  void record(FlightKind kind, std::string detail, std::uint64_t station = 0,
              std::uint64_t actor = 0, SimTime at = SimTime::zero());

  // All retained events, oldest first (global sequence order).
  [[nodiscard]] std::vector<FlightEvent> events() const;
  // Total events ever recorded (including ones the ring overwrote).
  [[nodiscard]] std::uint64_t recorded() const {
    return next_seq_.load(std::memory_order_relaxed);
  }

  // Text rendering of events(), one line per event:
  //   [seq] t=<time> <kind> station=<id> actor=<id> <detail>
  [[nodiscard]] std::string dump() const;
  // dump() to stderr with a banner; no-op when empty. Wired into test and
  // bench failure paths.
  void dump_to_stderr(const char* banner) const;

 private:
  struct Shard {
    mutable std::mutex mu;
    std::vector<FlightEvent> ring;  // capacity kCapacity, wrap by write_pos
    std::size_t write_pos = 0;
  };

  std::array<Shard, kShards> shards_;
  std::atomic<std::uint64_t> next_seq_{0};
};

}  // namespace wdoc::obs
