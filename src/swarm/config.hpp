// Settings of the multi-source swarm distribution mode (DESIGN.md §4f).
//
// Swarm mode layers three mechanisms over the chunk pipeline: chunks
// striped round-robin across `trees` rotated stripe trees, periodic
// have-bitmap gossip to a bounded deterministic neighbor set, and
// rarest-first pull of chunks whose stripe tree has stalled. All timing
// runs on the fabric clock and all tie-breaks are seeded hashes, so a
// same-seed simulation is byte-identical.
//
// A station chooses only whether to swarm and over how many stripe trees.
// The tunings below were fitted once against the Viennot et al. bandwidth
// bound (PAPERS.md) and hold for every deployment, so they are constants.
#pragma once

#include <cstdint>

#include "common/result.hpp"
#include "common/sim_time.hpp"

namespace wdoc::swarm {

struct SwarmConfig {
  // Off by default: broadcast_push then uses the single-tree chunked
  // pipeline.
  bool enabled = false;
  // Interleaved stripe trees. Chunk g rides tree g % trees; each tree is a
  // rotation of the same full m-ary placement, so a station interior in
  // one tree is (mostly) a leaf in the others and every uplink carries
  // roughly blob_bytes/trees of useful relay work.
  std::uint32_t trees = 2;

  [[nodiscard]] Status validate() const {
    if (!enabled) return {};
    if (trees == 0 || trees > 64)
      return {Errc::invalid_argument, "swarm.trees must be in [1, 64]"};
    return {};
  }
};

// Cadence of SwarmHave bitmap gossip per active transfer.
inline constexpr SimTime kGossipInterval = SimTime::millis(250);
// Seeded pseudo-random peers added to each station's neighbor set on top
// of its stripe-tree relations (bounded-degree overlay shortcuts).
inline constexpr std::uint32_t kExtraPeers = 2;
// Max outstanding swarm chunk requests per neighbor link.
inline constexpr std::uint32_t kLinkWindow = 8;
// Max outstanding swarm chunk requests across ALL peers — this bounds
// how much pulled data can pile onto one downlink, which otherwise
// competes with (and slows) the stripe pipeline itself.
inline constexpr std::uint32_t kPullWindow = 12;
static_assert(kPullWindow >= kLinkWindow, "one link's window must fit the pull window");
// Max chunk indices carried by one SwarmReq message.
inline constexpr std::uint32_t kRequestBatch = 32;
// Paced-send priority mix: after this many consecutive stripe relays, one
// queued request serve is let through even while relays are pending. With
// cut-through relaying the relay queue is empty between arrivals, so
// serves mostly ride those genuinely idle uplink slots; the stride only
// governs forced preemption during relay *bursts*, where every yielded
// slot delays an entire downstream chain by a full chunk-time. A fairly
// moderate stride keeps busy relay chains near line rate (recovery pulls
// are steered toward idle uplinks by the backlog advert anyway) while
// still bounding serve starvation when a backlog persists.
inline constexpr std::uint32_t kServeStride = 4;
// A stripe tree with no chunk arrival for this long is considered
// stalled; only then does the scheduler pull its chunks from peers, so a
// clean pipeline generates zero duplicate traffic. The pipeline delivers
// a chunk per tree every couple of chunk-times at full utilization, so
// the timeout sits several chunk-times above that cadence: low enough
// that an orphaned subtree starts recovering quickly, high enough that
// normal inter-chunk jitter never trips it (pull mode also latches once
// tripped, so a borderline timeout cannot oscillate — see scheduler.hpp).
inline constexpr SimTime kStallTimeout = SimTime::seconds(1.8);
// A tree that has never delivered a chunk is held to this longer grace
// before counting as stalled: at depth the first stripe chunk takes
// several pipeline hops to arrive, and treating that ramp-up as a stall
// would pull chunks the pipeline was about to push anyway.
inline constexpr SimTime kStartupGrace = SimTime::seconds(5.0);
// A planned request not satisfied within this window is forgotten and
// may be re-planned against another peer. Serves yield to stripe relays
// at the serving peer, so under congestion a request is a *reservation*
// that drains when the peer's uplink frees up — the timeout must sit
// well above worst-case serve latency, or recovery re-requests chunks
// that are merely queued and the duplicate serves eat the very idle
// capacity recovery depends on.
inline constexpr SimTime kRequestTimeout = SimTime::seconds(6.0);
// Gossip stops once the station and (as far as it has heard) all its
// neighbors are complete, or after this many completed-but-quiet rounds.
inline constexpr std::uint32_t kIdleRounds = 3;
// Hard safety cap on gossip rounds per transfer.
inline constexpr std::uint32_t kMaxRounds = 4096;

}  // namespace wdoc::swarm
