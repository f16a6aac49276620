#include "swarm/scheduler.hpp"

#include <algorithm>

#include "common/hash.hpp"
#include "swarm/config.hpp"
#include "swarm/stripe_tree.hpp"

namespace wdoc::swarm {

namespace {

// orphaned_ latch values: how a stripe tree entered pull mode.
enum : std::uint8_t { kNotOrphaned = 0, kOrphanLocal = 1, kOrphanCascade = 2 };
// Per-round planning mode of a stripe tree.
enum : std::uint8_t { kFed = 0, kOrphan = 1, kRecovering = 2 };

// Endgame threshold: with this few chunks left in a recovering tree, pull
// them regardless of the feed's claims (see the candidate filter).
constexpr std::uint32_t kEndgameChunks = 2;

}  // namespace

SwarmScheduler::SwarmScheduler(std::uint32_t total_chunks, std::uint32_t trees,
                               std::uint64_t seed, SimTime now)
    : total_(total_chunks),
      trees_(trees),
      seed_(seed),
      self_(total_chunks),
      stripe_parent_(trees, 0),
      last_progress_(trees, now),
      progressed_(trees, 0),
      orphaned_(trees, 0),
      tree_total_(trees, 0),
      tree_have_(trees, 0) {
  for (std::uint32_t g = 0; g < total_chunks; ++g) ++tree_total_[stripe_of(g, trees)];
}

void SwarmScheduler::set_stripe_parent(std::uint32_t tree, std::uint64_t parent_position) {
  if (tree < stripe_parent_.size()) stripe_parent_[tree] = parent_position;
}

void SwarmScheduler::add_peer(std::uint64_t position) {
  auto [it, inserted] = peers_.try_emplace(position);
  if (inserted) it->second.have.resize(total_);
}

std::vector<std::uint64_t> SwarmScheduler::peer_positions() const {
  std::vector<std::uint64_t> out;
  out.reserve(peers_.size());
  for (const auto& [pos, peer] : peers_) out.push_back(pos);
  return out;
}

void SwarmScheduler::seed_self(const Bitmap& have, SimTime now) {
  self_.merge(have);
  for (auto& t : last_progress_) t = now;
  std::fill(tree_have_.begin(), tree_have_.end(), 0);
  for (std::uint32_t g = 0; g < total_; ++g) {
    if (self_.test(g)) ++tree_have_[stripe_of(g, trees_)];
  }
}

bool SwarmScheduler::mark_have(std::uint32_t g, SimTime now) {
  if (auto it = inflight_.find(g); it != inflight_.end()) clear_flight(it);
  if (!self_.set(g)) return false;
  const std::uint32_t tree = stripe_of(g, trees_);
  if (tree < last_progress_.size()) {
    last_progress_[tree] = now;
    progressed_[tree] = 1;
    ++tree_have_[tree];
  }
  return true;
}

void SwarmScheduler::peer_update(std::uint64_t position, const PeerReport& report) {
  add_peer(position);
  Peer& p = peers_[position];
  if (report.have != nullptr) {
    Bitmap incoming;
    incoming.assign_words(*report.have, total_);
    // Possession is monotone; merging (rather than replacing) makes a
    // reordered or stale gossip message harmless.
    const std::uint64_t before = p.have.count();
    p.have.merge(incoming);
    if (p.have.count() > before) p.grew_at = report.now;
  }
  // In-flight requests and backlog are point-in-time readings: replaced.
  if (report.pending != nullptr) p.pending.assign_words(*report.pending, total_);
  p.backlog = report.backlog;
  p.heard_at = report.now;
  // Orphan cascade: our stripe parent announcing pull mode for a tree
  // means the push feed above us is gone — pulled chunks trickle through
  // its uplink instead of streaming, so we pull for ourselves as well
  // (and advertise the same mask to our own children). Latched exactly
  // like a locally-detected stall.
  if (report.recovering != 0) {
    for (std::uint32_t t = 0; t < trees_; ++t) {
      if (stripe_parent_[t] == position && ((report.recovering >> t) & 1) &&
          orphaned_[t] == kNotOrphaned) {
        orphaned_[t] = kOrphanCascade;
      }
    }
  }
}

void SwarmScheduler::peer_update(std::uint64_t position,
                                 const std::vector<std::uint64_t>& words,
                                 std::uint32_t backlog, SimTime now) {
  PeerReport report;
  report.have = &words;
  report.backlog = backlog;
  report.now = now;
  peer_update(position, report);
}

bool SwarmScheduler::peer_has(std::uint64_t position, std::uint32_t g) const {
  auto it = peers_.find(position);
  return it != peers_.end() && it->second.have.test(g);
}

bool SwarmScheduler::peer_covered(std::uint64_t position, std::uint32_t g) const {
  auto it = peers_.find(position);
  return it != peers_.end() &&
         (it->second.have.test(g) || it->second.pending.test(g));
}

std::vector<std::uint64_t> SwarmScheduler::pending_words() const {
  Bitmap pending(total_);
  for (const auto& [g, flight] : inflight_) pending.set(g);
  return pending.words();
}

std::uint64_t SwarmScheduler::recovering_mask() const {
  std::uint64_t mask = 0;
  for (std::uint32_t t = 0; t < trees_ && t < 64; ++t) {
    if (orphaned_[t] != kNotOrphaned && tree_have_[t] < tree_total_[t]) {
      mask |= std::uint64_t{1} << t;
    }
  }
  return mask;
}

bool SwarmScheduler::peer_complete(std::uint64_t position) const {
  auto it = peers_.find(position);
  return it != peers_.end() && it->second.have.complete();
}

SimTime SwarmScheduler::peer_heard_at(std::uint64_t position) const {
  auto it = peers_.find(position);
  return it == peers_.end() ? SimTime::zero() : it->second.heard_at;
}

bool SwarmScheduler::peers_complete() const {
  for (const auto& [pos, peer] : peers_) {
    if (!peer.have.complete()) return false;
  }
  return true;
}

std::uint64_t SwarmScheduler::state_sum() const {
  std::uint64_t sum = self_.count();
  for (const auto& [pos, peer] : peers_) sum += peer.have.count();
  return sum;
}

void SwarmScheduler::clear_flight(std::map<std::uint32_t, Flight>::iterator it) {
  if (auto p = peers_.find(it->second.peer); p != peers_.end() && p->second.window_used > 0)
    --p->second.window_used;
  inflight_.erase(it);
}

std::vector<SwarmPlan> SwarmScheduler::plan(SimTime now) {
  // Forget requests past their deadline so the chunk becomes plannable
  // against another peer.
  for (auto it = inflight_.begin(); it != inflight_.end();) {
    auto cur = it++;
    if (cur->second.deadline <= now) clear_flight(cur);
  }

  // A tree with no push feed at all is always pull-eligible. One that is
  // flowing goes by kStallTimeout. One that has never delivered anything is
  // held to the longer startup grace: at depth the first stripe chunk
  // legitimately takes several pipeline hops to arrive, and pulling during
  // that ramp-up duplicates chunks the feed was about to push.
  //
  // A stalled tree whose stripe parent's own bitmap is still visibly
  // growing is in *recovering* mode, not orphaned: the parent is acquiring
  // (itself pulling around a dead ancestor) and will relay everything it
  // gets, so pulling chunks the parent already holds would only duplicate
  // its queued relays. But chunks the parent is still missing arrive last
  // of all — parent pull, then a paced relay per hop — so those the
  // descendant pulls directly from outside the subtree. The head of an
  // orphaned subtree pulls everything; descendants pull just the shrinking
  // missing-at-parent tail, which spreads the recovery burst across many
  // server uplinks instead of serializing it through the head's one.
  std::vector<std::uint8_t> mode(trees_, kFed);
  for (std::uint32_t t = 0; t < trees_; ++t) {
    if (stripe_parent_[t] == 0 || orphaned_[t] == kOrphanLocal) {
      mode[t] = kOrphan;
      continue;
    }
    const SimTime quiet = now - last_progress_[t];
    const SimTime limit = progressed_[t] ? kStallTimeout : kStartupGrace;
    if (quiet > limit) {
      bool feed_active = false;
      if (auto it = peers_.find(stripe_parent_[t]); it != peers_.end()) {
        feed_active = !it->second.have.complete() &&
                      now - it->second.grew_at <= kStallTimeout;
      }
      if (!feed_active) {
        // Latch: pulled chunks land on the same progress clock as relayed
        // ones, so without the latch every pull batch "feeds" the tree for
        // another kStallTimeout and the gate oscillates — pull, go quiet,
        // re-trip — leaving the downlink idle for seconds at a stretch. A
        // feed that died stays dead; keep pulling until the tree completes.
        mode[t] = kOrphan;
        orphaned_[t] = kOrphanLocal;
        continue;
      }
    }
    // Cascade-latched from the feed's recovering mask: the subtree head
    // above us is pulling around a dead ancestor. Claim only chunks the
    // feed has not obtained or claimed itself (see the candidate filter).
    if (orphaned_[t] == kOrphanCascade) mode[t] = kRecovering;
  }

  // Candidates: missing, not in flight, stripe tree stalled, held by >= 1
  // peer. Rarest-first with a seeded per-chunk tie-break.
  struct Cand {
    std::uint32_t avail;
    std::uint64_t tie;
    std::uint32_t g;
  };
  std::vector<Cand> cands;
  for (std::uint32_t g = 0; g < total_; ++g) {
    if (self_.test(g)) continue;
    const std::uint32_t t = stripe_of(g, trees_);
    if (mode[t] == kFed) continue;
    if (mode[t] == kRecovering && tree_total_[t] - tree_have_[t] > kEndgameChunks) {
      // Claim partitioning: the recovering feed pulls what it can under
      // its own request window and relays it down; we pull only chunks it
      // neither holds nor has claimed (its gossiped pending set). Pull
      // sets stay disjoint down the subtree, so no chunk is fetched twice
      // into the same downlink — the race that duplicate-storms an
      // uncoordinated everyone-pulls-everything recovery. Exception: the
      // last kEndgameChunks of a tree are pulled unconditionally —
      // deferring to the parent's claim would serialize the final chunks
      // one relay hop per level down the subtree, and by then the
      // pipeline is drained so the duplicate serves are free.
      auto it = peers_.find(stripe_parent_[t]);
      if (it != peers_.end() &&
          (it->second.have.test(g) || it->second.pending.test(g)))
        continue;
    }
    if (inflight_.contains(g)) {
      ++suppressed_;
      continue;
    }
    std::uint32_t avail = 0;
    for (const auto& [pos, peer] : peers_) avail += peer.have.test(g);
    if (avail == 0) continue;
    cands.push_back({avail, hash_combine(seed_, g), g});
  }
  std::sort(cands.begin(), cands.end(), [](const Cand& a, const Cand& b) {
    if (a.avail != b.avail) return a.avail < b.avail;
    if (a.tie != b.tie) return a.tie < b.tie;
    return a.g < b.g;
  });

  std::map<std::uint64_t, SwarmPlan> plans;
  for (const Cand& c : cands) {
    if (inflight_.size() >= kPullWindow) break;
    // Least-loaded eligible peer, seeded tie-break. Load is the peer's
    // gossiped send-queue backlog plus our outstanding requests to it —
    // a request parked on a relay-saturated uplink is a reservation that
    // can sit for seconds, so spare capacity wins over rarest placement.
    // The chunk's own stripe parent is never a candidate: if it holds the
    // chunk and is alive it will push it down the tree anyway, so pulling
    // from it only ever duplicates.
    const std::uint64_t feed = stripe_parent_[stripe_of(c.g, trees_)];
    const Peer* best = nullptr;
    std::uint64_t best_pos = 0;
    std::uint64_t best_tie = 0;
    std::uint64_t best_load = 0;
    for (auto& [pos, peer] : peers_) {
      if (pos == feed) continue;
      if (!peer.have.test(c.g)) continue;
      if (peer.window_used >= kLinkWindow) continue;
      if (plans.contains(pos) &&
          plans[pos].chunks.size() >= kRequestBatch)
        continue;
      const std::uint64_t load = peer.window_used + peer.backlog;
      const std::uint64_t tie = hash_combine(hash_combine(seed_, c.g), pos);
      if (best == nullptr || load < best_load ||
          (load == best_load && tie < best_tie)) {
        best = &peer;
        best_pos = pos;
        best_tie = tie;
        best_load = load;
      }
    }
    if (best == nullptr) continue;
    // Congestion deferral: a chunk whose only holders are all saturated
    // (typically the frontier, which exists solely at busy interior
    // relays) is left for a later round rather than parked in a deep
    // serve queue. Within a gossip round or two some idle-uplink station
    // acquires it and serves it immediately; an early reservation on a
    // stride-throttled server would instead sit for seconds while the
    // request window slot it burns starves chunks that could flow now.
    if (best_load >= kLinkWindow) continue;
    auto& plan = plans[best_pos];
    plan.peer = best_pos;
    plan.chunks.push_back(c.g);
    ++peers_[best_pos].window_used;
    inflight_[c.g] = {best_pos, now + kRequestTimeout};
  }

  std::vector<SwarmPlan> out;
  out.reserve(plans.size());
  for (auto& [pos, plan] : plans) out.push_back(std::move(plan));
  return out;
}

}  // namespace wdoc::swarm
