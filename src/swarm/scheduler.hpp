// SwarmScheduler: per-station rarest-first chunk request planning.
//
// The scheduler owns three pieces of state per active transfer: this
// station's own have-bitmap, the last-gossiped bitmap of every known
// peer, and the set of chunk requests currently in flight. Each gossip
// tick the station calls plan(), which returns per-peer request batches
// under these rules:
//
//   * stall gating — a chunk is only pulled when its stripe tree has made
//     no progress for kStallTimeout (or has no live push feed at all), so
//     a cleanly-flowing pipeline generates zero duplicate traffic. Pull
//     mode LATCHES once tripped: pulled chunks land on the same progress
//     clock that feeds the gate, so an unlatched gate would close behind
//     every pulled batch and reopen a kStallTimeout later. A tree whose
//     stripe parent gossips a recovering mask latches too (the orphan
//     signal cascades down exactly the dead station's subtree), but in
//     *claim partitioning* mode: the parent will relay everything it
//     gets, so the descendant pulls only chunks the parent neither has
//     nor has claimed in its pending bitmap — pull sets stay disjoint
//     down the chain, spreading the recovery tail across many server
//     uplinks instead of serializing it through the head's one. In the
//     endgame (≤ 2 chunks left in the tree) the claim filter lifts, since
//     deferring to the parent would add one relay hop per tree level to
//     the very last chunks;
//   * rarest-first — candidates are ordered by how few peers hold them,
//     ties broken by a seeded hash of the chunk index (never by arrival
//     order, which would differ across runs of different topologies);
//   * per-link windows — at most kLinkWindow outstanding requests per
//     peer (and kPullWindow across all peers, protecting the downlink),
//     the least-loaded eligible peer taking each chunk — never the chunk's
//     own stripe parent, which would push it anyway. Load is the peer's
//     last-gossiped send-queue backlog plus our own outstanding requests
//     to it, so requests route to uplinks with spare capacity instead of
//     piling reservations onto a relay-saturated server;
//   * duplicate suppression — an in-flight chunk is never re-requested
//     until its kRequestTimeout deadline passes.
//
// The k* tunings are the constants in swarm/config.hpp; the only setting a
// scheduler takes is its stripe tree count. Everything is deterministic:
// iteration is over ordered maps, time comes from the caller (the fabric
// clock), randomness is seeded hashing.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/sim_time.hpp"
#include "swarm/bitmap.hpp"

namespace wdoc::swarm {

// One gossip tick's requests to a single peer (positions, not StationIds —
// the caller owns the position → station mapping).
struct SwarmPlan {
  std::uint64_t peer = 0;
  std::vector<std::uint32_t> chunks;  // global chunk indices
};

// One peer's gossip reading, as decoded off the wire. Bitmap pointers may
// be null when the message variant doesn't carry that bitmap.
struct PeerReport {
  const std::vector<std::uint64_t>* have = nullptr;
  const std::vector<std::uint64_t>* pending = nullptr;  // in-flight requests
  std::uint32_t backlog = 0;     // serve-latency estimate, chunk-times
  std::uint64_t recovering = 0;  // per-tree pull-mode mask
  SimTime now;
};

class SwarmScheduler {
 public:
  SwarmScheduler(std::uint32_t total_chunks, std::uint32_t trees, std::uint64_t seed,
                 SimTime now);

  // Topology: which position feeds each stripe tree (0 = no feed, e.g. at
  // the root), and the gossip neighbor set.
  void set_stripe_parent(std::uint32_t tree, std::uint64_t parent_position);
  void add_peer(std::uint64_t position);
  // Every known peer in ascending position order (configured neighbors
  // plus peers adopted on first gossip contact).
  [[nodiscard]] std::vector<std::uint64_t> peer_positions() const;

  // Self state. mark_have returns true when the chunk was newly acquired;
  // it also clears any in-flight request for it and records stripe-tree
  // progress for stall detection.
  void seed_self(const Bitmap& have, SimTime now);
  bool mark_have(std::uint32_t g, SimTime now);
  [[nodiscard]] const Bitmap& self() const { return self_; }
  [[nodiscard]] bool complete() const { return self_.complete(); }

  // Peer state, fed from SwarmHave gossip (and SwarmReq piggybacks).
  // Unknown peers are adopted on first contact (asymmetric shortcut links).
  // A report from a stripe parent whose recovering mask covers one of our
  // trees latches that tree into pull mode too — the orphan signal
  // cascades down the dead node's subtree and nowhere else.
  void peer_update(std::uint64_t position, const PeerReport& report);
  // Possession-only convenience form (tests, simple callers).
  void peer_update(std::uint64_t position, const std::vector<std::uint64_t>& words,
                   std::uint32_t backlog = 0, SimTime now = SimTime::zero());
  [[nodiscard]] bool peer_has(std::uint64_t position, std::uint32_t g) const;
  // Has the chunk or reported a request for it in flight — the relay
  // suppression predicate (sending to either is a wasted send).
  [[nodiscard]] bool peer_covered(std::uint64_t position, std::uint32_t g) const;
  [[nodiscard]] bool peer_complete(std::uint64_t position) const;
  // Last time any gossip arrived from this peer (zero if never) — the
  // liveness signal behind stripe-ancestor adoption.
  [[nodiscard]] SimTime peer_heard_at(std::uint64_t position) const;
  [[nodiscard]] bool peers_complete() const;
  // Monotone progress fingerprint (self + all peer counts); two equal
  // readings mean nothing changed between gossip rounds.
  [[nodiscard]] std::uint64_t state_sum() const;

  // Plans this round's requests (see file comment for the rules) and
  // registers them as in flight. Deterministic for a given state.
  [[nodiscard]] std::vector<SwarmPlan> plan(SimTime now);

  [[nodiscard]] std::size_t in_flight() const { return inflight_.size(); }
  [[nodiscard]] std::uint64_t duplicates_suppressed() const { return suppressed_; }

  // Gossip exports: the in-flight request set as a bitmap (same geometry
  // as the have-bitmap), and the per-tree pull-mode mask restricted to
  // trees still missing chunks.
  [[nodiscard]] std::vector<std::uint64_t> pending_words() const;
  [[nodiscard]] std::uint64_t recovering_mask() const;

 private:
  struct Peer {
    Bitmap have;
    Bitmap pending;             // last-reported in-flight requests (replaced)
    std::uint32_t window_used = 0;
    std::uint32_t backlog = 0;  // last gossiped serve-latency estimate
    SimTime grew_at;            // last time gossip showed this bitmap grow
    SimTime heard_at;           // last time any gossip arrived from it
  };
  struct Flight {
    std::uint64_t peer = 0;
    SimTime deadline;
  };

  void clear_flight(std::map<std::uint32_t, Flight>::iterator it);

  std::uint32_t total_;
  std::uint32_t trees_;
  std::uint64_t seed_;
  Bitmap self_;
  std::map<std::uint64_t, Peer> peers_;
  std::map<std::uint32_t, Flight> inflight_;
  std::vector<std::uint64_t> stripe_parent_;  // per tree; 0 = none
  std::vector<SimTime> last_progress_;        // per tree
  std::vector<std::uint8_t> progressed_;      // per tree: any chunk ever arrived
  std::vector<std::uint8_t> orphaned_;        // per tree: pull mode, latched
  std::vector<std::uint32_t> tree_total_;     // chunks striped onto each tree
  std::vector<std::uint32_t> tree_have_;      // of those, how many we hold
  std::uint64_t suppressed_ = 0;  // candidates skipped because already in flight
};

}  // namespace wdoc::swarm
