// Swarm distribution (DESIGN.md §4f): stripe-tree construction invariants,
// deterministic gossip neighbor selection, rarest-first scheduling rules,
// and end-to-end swarm pushes on the simulator — delivery everywhere,
// makespan against the VoD bandwidth lower bound, zero-copy relay, and
// byte-identical same-seed reruns.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "dist/station_node.hpp"
#include "net/chunk_wire.hpp"
#include "net/sim_network.hpp"
#include "swarm/config.hpp"
#include "swarm/gossip.hpp"
#include "swarm/scheduler.hpp"
#include "swarm/stripe_tree.hpp"

namespace wdoc::swarm {
namespace {

// --- stripe trees ------------------------------------------------------------

TEST(StripeTree, ParentChildInverseHoldsExhaustively) {
  for (std::uint64_t n : {2ull, 3ull, 15ull, 63ull, 64ull}) {
    for (std::uint64_t m : {1ull, 2ull, 3ull}) {
      for (std::uint32_t trees = 1; trees <= 3; ++trees) {
        for (std::uint64_t k = 1; k <= n; ++k) {
          for (std::uint32_t t = 0; t < trees; ++t) {
            for (std::uint64_t c : stripe_children(k, t, trees, m, n)) {
              ASSERT_GE(c, 2u);
              ASSERT_LE(c, n);
              auto p = stripe_parent(c, t, trees, m, n);
              ASSERT_TRUE(p.has_value());
              EXPECT_EQ(*p, k) << "n=" << n << " m=" << m << " trees=" << trees
                               << " tree=" << t << " child=" << c;
            }
          }
        }
      }
    }
  }
}

TEST(StripeTree, RootHasExactlyOneChildPerTree) {
  // The root's uplink must carry each chunk once regardless of the stripe
  // count — one head per tree, all heads distinct (when the ring allows).
  const std::uint64_t n = 63;
  std::set<std::uint64_t> heads;
  for (std::uint32_t t = 0; t < 3; ++t) {
    auto kids = stripe_children(1, t, 3, 2, n);
    ASSERT_EQ(kids.size(), 1u) << "tree " << t;
    heads.insert(kids[0]);
  }
  EXPECT_EQ(heads.size(), 3u);
}

TEST(StripeTree, EveryStationReachesRootInEveryTree) {
  const std::uint64_t n = 63, m = 2;
  const std::uint32_t trees = 2;
  for (std::uint32_t t = 0; t < trees; ++t) {
    for (std::uint64_t k = 2; k <= n; ++k) {
      std::uint64_t cur = k;
      std::uint64_t hops = 0;
      while (cur != 1) {
        auto p = stripe_parent(cur, t, trees, m, n);
        ASSERT_TRUE(p.has_value()) << "tree " << t << " pos " << cur;
        cur = *p;
        ASSERT_LE(++hops, n) << "parent chain cycles in tree " << t;
      }
    }
  }
}

TEST(StripeTree, RotationMakesInteriorSetsDiffer) {
  // The point of striping: a station interior in tree 0 should mostly be a
  // leaf in tree 1, so uplink work spreads. Count positions interior in
  // both trees — with a half-ring rotation that overlap must be small.
  const std::uint64_t n = 63, m = 2;
  std::uint64_t both = 0, interior0 = 0;
  for (std::uint64_t k = 2; k <= n; ++k) {
    const bool i0 = !stripe_children(k, 0, 2, m, n).empty();
    const bool i1 = !stripe_children(k, 1, 2, m, n).empty();
    interior0 += i0;
    both += i0 && i1;
  }
  ASSERT_GT(interior0, 20u);
  EXPECT_LT(both, interior0 / 2) << "stripe trees overlap too much";
}

// --- gossip neighbors --------------------------------------------------------

TEST(Gossip, NeighborsAreDeterministicBoundedAndExcludeSelf) {
  const std::uint64_t n = 63, m = 2, seed = 0xfeed;
  for (std::uint64_t k = 1; k <= n; ++k) {
    auto a = gossip_neighbors(k, m, n, 2, 2, seed);
    auto b = gossip_neighbors(k, m, n, 2, 2, seed);
    EXPECT_EQ(a, b);
    EXPECT_FALSE(a.empty());
    // Tree relations across 2 trees plus extras: parent+siblings+children
    // per tree ~ (1 + m + m) * trees + extras.
    EXPECT_LE(a.size(), (1 + 2 * m) * 2 + 2) << "position " << k;
    for (std::uint64_t nb : a) {
      EXPECT_NE(nb, k);
      EXPECT_GE(nb, 1u);
      EXPECT_LE(nb, n);
    }
    EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  }
}

TEST(Gossip, TreeLinksAreSymmetric) {
  // Stripe-tree relations must appear from both ends (extras are allowed
  // to be one-sided; the receiver adopts on first contact).
  const std::uint64_t n = 31, m = 2, seed = 7;
  for (std::uint64_t k = 2; k <= n; ++k) {
    for (std::uint32_t t = 0; t < 2; ++t) {
      auto p = stripe_parent(k, t, 2, m, n);
      ASSERT_TRUE(p.has_value());
      auto mine = gossip_neighbors(k, m, n, 2, 0, seed);
      auto theirs = gossip_neighbors(*p, m, n, 2, 0, seed);
      EXPECT_TRUE(std::binary_search(mine.begin(), mine.end(), *p));
      EXPECT_TRUE(std::binary_search(theirs.begin(), theirs.end(), k));
    }
  }
}

// --- scheduler ---------------------------------------------------------------

// The scheduler runs on the constants in swarm/config.hpp; each test below
// states its expectation in terms of them. Two more chunks than one link's
// window, so the window decides what is planned.
constexpr std::uint32_t kTrees = 2;
constexpr std::uint32_t kOverWindow = kLinkWindow + 2;
static_assert(kLinkWindow + 1 <= kPullWindow && kLinkWindow <= kRequestBatch,
              "the tests below are bounded by one link's window alone");

// A gossip report from `position` that carries only its possession.
void report_have(SwarmScheduler& s, std::uint64_t position, const Bitmap& have) {
  PeerReport report;
  report.have = &have.words();
  s.peer_update(position, report);
}

TEST(Scheduler, RarestFirstPicksTheScarceChunk) {
  SwarmScheduler s(kOverWindow, kTrees, 42, SimTime::zero());
  // No stripe parents set: every tree counts as stalled, pulls are free.
  s.add_peer(2);
  s.add_peer(3);
  Bitmap common(kOverWindow);
  for (std::uint32_t g = 0; g < kOverWindow; ++g) common.set(g);
  Bitmap rare(kOverWindow);
  rare.set(5);
  report_have(s, 2, common);
  report_have(s, 3, rare);
  auto plans = s.plan(SimTime::seconds(10));
  ASSERT_FALSE(plans.empty());
  // Chunk 5 is held by both peers (availability 2), everything else only
  // by peer 2 (availability 1). The availability-1 chunks are planned
  // first and fill peer 2's window; chunk 5 then lands on peer 3, the only
  // chunk it can serve — kLinkWindow + 1 chunks in flight total.
  std::set<std::uint32_t> planned;
  bool five_on_peer3 = false;
  for (const auto& p : plans) {
    for (std::uint32_t g : p.chunks) {
      planned.insert(g);
      if (p.peer == 3 && g == 5) five_on_peer3 = true;
    }
  }
  EXPECT_EQ(planned.size(), kLinkWindow + 1);
  EXPECT_EQ(s.in_flight(), kLinkWindow + 1);
  EXPECT_TRUE(planned.contains(5));
  EXPECT_TRUE(five_on_peer3);

  // With far more candidates than the pull window holds, the order decides
  // what is planned: kLinkWindow chunks that only peer 2 holds, spread among
  // many that peers 2, 3 and 4 all hold, must all make the cut.
  constexpr std::uint32_t kMany = 8 * kPullWindow;
  constexpr std::uint32_t kStep = kMany / kLinkWindow;
  SwarmScheduler wide(kMany, kTrees, 42, SimTime::zero());
  Bitmap every(kMany);
  Bitmap all_but_rare(kMany);
  for (std::uint32_t g = 0; g < kMany; ++g) {
    every.set(g);
    if (g % kStep != 0) all_but_rare.set(g);
  }
  report_have(wide, 2, every);
  report_have(wide, 3, all_but_rare);
  report_have(wide, 4, all_but_rare);
  std::set<std::uint32_t> on_peer2;
  for (const auto& p : wide.plan(SimTime::seconds(10))) {
    if (p.peer == 2) on_peer2.insert(p.chunks.begin(), p.chunks.end());
  }
  EXPECT_EQ(wide.in_flight(), kPullWindow);
  for (std::uint32_t g = 0; g < kMany; g += kStep) {
    EXPECT_TRUE(on_peer2.contains(g)) << "scarce chunk " << g << " not planned";
  }
}

TEST(Scheduler, InFlightChunksAreNeverReplanned) {
  SwarmScheduler s(kOverWindow, kTrees, 42, SimTime::zero());
  s.add_peer(2);
  Bitmap all(kOverWindow);
  for (std::uint32_t g = 0; g < kOverWindow; ++g) all.set(g);
  report_have(s, 2, all);
  auto first = s.plan(SimTime::seconds(10));
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].chunks.size(), kLinkWindow);
  // Same instant: everything plannable is in flight, nothing new.
  auto second = s.plan(SimTime::seconds(10));
  EXPECT_TRUE(second.empty());
  // Past the request timeout the requests expire and re-plan.
  const SimTime later = SimTime::seconds(10) + kRequestTimeout + SimTime::millis(1);
  auto third = s.plan(later);
  ASSERT_EQ(third.size(), 1u);
  EXPECT_EQ(third[0].chunks.size(), kLinkWindow);
  // A second holder gets only the chunks that are not in flight.
  report_have(s, 3, all);
  auto fourth = s.plan(later);
  ASSERT_EQ(fourth.size(), 1u);
  EXPECT_EQ(fourth[0].peer, 3u);
  EXPECT_EQ(fourth[0].chunks.size(), kOverWindow - kLinkWindow);
  const std::set<std::uint32_t> in_flight(third[0].chunks.begin(), third[0].chunks.end());
  for (std::uint32_t g : fourth[0].chunks) EXPECT_FALSE(in_flight.contains(g)) << g;
}

TEST(Scheduler, StallGatingSuppressesPullsWhileThePipelineFlows) {
  SwarmScheduler s(8, kTrees, 42, SimTime::zero());
  s.set_stripe_parent(0, 5);
  s.set_stripe_parent(1, 9);
  s.add_peer(2);
  Bitmap all(8);
  for (std::uint32_t g = 0; g < 8; ++g) all.set(g);
  report_have(s, 2, all);
  // Fresh progress on both trees: nothing is stalled, nothing is pulled.
  const SimTime start = SimTime::millis(100);
  s.mark_have(0, start);  // tree 0
  s.mark_have(1, start);  // tree 1
  EXPECT_TRUE(s.plan(start + SimTime::millis(100)).empty());
  // Tree 1 goes quiet past the stall timeout; only its chunks (odd g) are
  // pulled, tree 0 keeps riding the pipeline.
  const SimTime stalled = start + kStallTimeout + SimTime::millis(100);
  s.mark_have(2, stalled - SimTime::millis(700));  // tree 0 still progressing
  auto plans = s.plan(stalled);  // tree 1 quiet for kStallTimeout + 100 ms
  ASSERT_EQ(plans.size(), 1u);
  for (std::uint32_t g : plans[0].chunks) {
    EXPECT_EQ(stripe_of(g, 2), 1u) << "pulled a chunk of a healthy tree";
  }
  EXPECT_FALSE(plans[0].chunks.empty());
}

TEST(Scheduler, MarkHaveClearsFlightAndTracksCompletion) {
  SwarmScheduler s(kOverWindow, kTrees, 42, SimTime::zero());
  s.add_peer(2);
  Bitmap all(kOverWindow);
  for (std::uint32_t g = 0; g < kOverWindow; ++g) all.set(g);
  report_have(s, 2, all);
  (void)s.plan(SimTime::seconds(10));
  EXPECT_EQ(s.in_flight(), kLinkWindow);
  EXPECT_TRUE(s.mark_have(0, SimTime::seconds(11)));
  EXPECT_FALSE(s.mark_have(0, SimTime::seconds(11)));  // duplicate
  for (std::uint32_t g = 1; g < kOverWindow; ++g) s.mark_have(g, SimTime::seconds(11));
  EXPECT_EQ(s.in_flight(), 0u);  // arrivals settle every outstanding request
  EXPECT_TRUE(s.complete());
  EXPECT_TRUE(s.peers_complete());
}

}  // namespace
}  // namespace wdoc::swarm

// --- end-to-end swarm pushes -------------------------------------------------

namespace wdoc::dist {
namespace {

constexpr net::StationLink kCampus1999{10e6, 10e6, SimTime::millis(15), 0.0};

class Cluster {
 public:
  Cluster(std::size_t n, std::uint64_t m, StationConfig config, std::uint64_t seed = 4242)
      : net_(seed) {
    net_.reserve_stations(n);
    for (std::size_t i = 0; i < n; ++i) {
      StationId id = net_.add_station(kCampus1999);
      ids_.push_back(id);
      blobs_.push_back(std::make_unique<blob::BlobStore>());
      stores_.push_back(std::make_unique<ObjectStore>(*blobs_.back()));
      nodes_.push_back(std::make_unique<StationNode>(net_, id, *stores_.back(), config));
      nodes_.back()->bind();
    }
    auto shared = std::make_shared<const std::vector<StationId>>(ids_);
    for (auto& node : nodes_) node->set_tree(shared, m);
  }

  [[nodiscard]] StationNode& node(std::size_t i) { return *nodes_[i]; }
  [[nodiscard]] ObjectStore& store(std::size_t i) { return *stores_[i]; }
  [[nodiscard]] net::SimNetwork& net() { return net_; }
  [[nodiscard]] std::size_t size() const { return ids_.size(); }

  // Station i shows every message it receives to `seen` first.
  void observe(std::size_t i, std::function<void(const net::Message&)> seen) {
    net_.set_handler(ids_[i], [node = nodes_[i].get(),
                               seen = std::move(seen)](const net::Message& m) {
      seen(m);
      node->handle(m);
    });
  }

  [[nodiscard]] std::size_t index_of(StationId id) const {
    const auto it = std::find(ids_.begin(), ids_.end(), id);
    return static_cast<std::size_t>(it - ids_.begin());
  }

 private:
  net::SimNetwork net_;
  std::vector<StationId> ids_;
  std::vector<std::unique_ptr<blob::BlobStore>> blobs_;
  std::vector<std::unique_ptr<ObjectStore>> stores_;
  std::vector<std::unique_ptr<StationNode>> nodes_;
};

DocManifest ten_mb_lecture(StationId home) {
  DocManifest m;
  m.doc_key = "http://mmu.edu/cs500/swarm-lecture";
  m.structure_bytes = 64 << 10;
  m.home = home;
  BlobRef video;
  video.digest = digest128("cs500 swarm lecture video");
  video.size = 10 << 20;
  video.type = blob::MediaType::video;
  m.blobs.push_back(video);
  return m;
}

StationConfig swarm_config() {
  StationConfig cfg;
  cfg.swarm.enabled = true;
  cfg.swarm.trees = 2;
  return cfg;
}

TEST(SwarmPush, DeliversEverywhereWithinTheBandwidthBound) {
  StationConfig cfg = swarm_config();
  Cluster c(63, 2, cfg);
  auto doc = ten_mb_lecture(c.node(0).id());
  ASSERT_TRUE(c.node(0).broadcast_push(doc).is_ok());
  c.net().run();

  double makespan = 0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    ASSERT_TRUE(c.store(i).has_materialized(doc.doc_key)) << "station " << i;
    makespan = std::max(makespan, c.node(i).last_delivery().as_seconds());
    EXPECT_EQ(c.node(i).pending_rpcs(), 0u) << "station " << i;
    EXPECT_EQ(c.node(i).active_transfers(), 0u)
        << "station " << i << ": swarm gossip failed to terminate";
  }
  // The VoD lower bound for homogeneous links: every station's downlink
  // must carry the whole blob once, B * 8 / C = 8.39 s at 10 MB / 10 Mb/s.
  const double bound_s = (10 << 20) * 8.0 / 10e6;
  EXPECT_GE(makespan, bound_s);
  EXPECT_LE(makespan, 1.5 * bound_s)
      << "swarm makespan " << makespan << "s vs bound " << bound_s << "s";
}

TEST(SwarmPush, BeatsSingleTreePipelineAtDepth) {
  // Same cluster and lecture, swarm off vs on: the stripe forest must not
  // be slower than the single-tree pipeline (leaves' uplinks now work).
  auto run = [](bool swarm) {
    StationConfig cfg;
    cfg.swarm.enabled = swarm;
    cfg.swarm.trees = 2;
    Cluster c(63, 2, cfg);
    auto doc = ten_mb_lecture(c.node(0).id());
    EXPECT_TRUE(c.node(0).broadcast_push(doc).is_ok());
    c.net().run();
    double makespan = 0;
    for (std::size_t i = 0; i < c.size(); ++i) {
      EXPECT_TRUE(c.store(i).has_materialized(doc.doc_key)) << "station " << i;
      makespan = std::max(makespan, c.node(i).last_delivery().as_seconds());
    }
    return makespan;
  };
  const double pipelined = run(false);
  const double swarmed = run(true);
  EXPECT_LE(swarmed, pipelined * 1.05)
      << "swarm=" << swarmed << "s pipelined=" << pipelined << "s";
}

TEST(SwarmPush, RealPayloadSwarmRelayIsZeroCopy) {
  StationConfig cfg = swarm_config();
  Cluster c(15, 2, cfg);
  Bytes video(2 << 20);
  for (std::size_t i = 0; i < video.size(); ++i) {
    video[i] = static_cast<std::uint8_t>(i * 2654435761u >> 13);
  }
  DocManifest doc;
  doc.doc_key = "http://mmu.edu/cs500/real-swarm-lecture";
  doc.structure_bytes = 4 << 10;
  doc.home = c.node(0).id();
  BlobRef ref;
  ref.digest = digest128(video);
  ref.size = video.size();
  ref.type = blob::MediaType::video;
  doc.blobs.push_back(ref);
  auto id = c.store(0).blobs().put(video, blob::MediaType::video).expect("put");
  (void)c.store(0).blobs().release(id);

  // Stripe relays, gossip-triggered serves, duplicate receives — every
  // chunk body is a view of its sender's own buffer. Same contract as the
  // single tree (ChunkPipeline.RealPayloadRelayIsZeroCopy).
  std::size_t received = 0;
  std::size_t aliased = 0;
  for (std::size_t i = 1; i < c.size(); ++i) {
    c.observe(i, [&](const net::Message& m) {
      if (m.type != net::kChunkData) return;
      auto d = net::ChunkData::decode(m.payload, m.body).expect("chunk data");
      ++received;
      auto held = c.store(c.index_of(m.from))
                      .blobs()
                      .chunk_payload(d.digest, d.index, cfg.chunk.chunk_bytes);
      ASSERT_TRUE(held.is_ok()) << held.message();
      if (held.value().data() == d.payload.data()) ++aliased;
    });
  }
  ASSERT_TRUE(c.node(0).broadcast_push(doc).is_ok());
  c.net().run();

  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_TRUE(c.store(i).has_materialized(doc.doc_key)) << "station " << i;
    EXPECT_TRUE(c.store(i).blobs().find(ref.digest).has_value()) << "station " << i;
  }
  EXPECT_GE(received, 14u * 8u);
  EXPECT_EQ(aliased, received);
}

TEST(SwarmPush, SameSeedSwarmPushIsByteDeterministic) {
  auto journal = [] {
    StationConfig cfg = swarm_config();
    Cluster c(63, 2, cfg);
    auto doc = ten_mb_lecture(c.node(0).id());
    EXPECT_TRUE(c.node(0).broadcast_push(doc).is_ok());
    c.net().run();
    std::string out;
    for (std::size_t i = 0; i < c.size(); ++i) {
      const NodeStats& st = c.node(i).stats();
      out += std::to_string(i) + ":" + std::to_string(st.chunks_sent) + "/" +
             std::to_string(st.chunks_received) + "/" +
             std::to_string(st.chunk_duplicate_rx) + "/" +
             std::to_string(st.swarm_haves_sent) + "/" +
             std::to_string(st.swarm_reqs_sent) + "/" +
             std::to_string(st.swarm_chunks_served) + "/" +
             std::to_string(st.chunk_bytes_sent) + ";";
    }
    out += "t=" + std::to_string(c.net().now().as_micros());
    return out;
  };
  const std::string a = journal();
  const std::string b = journal();
  EXPECT_EQ(a, b);
}

TEST(SwarmPush, DuplicateReceivesAreAccounted) {
  // Whatever duplicates the swarm produces must show up in the new
  // counters, wasted bytes consistent with duplicate count x chunk size.
  StationConfig cfg = swarm_config();
  Cluster c(63, 2, cfg);
  auto doc = ten_mb_lecture(c.node(0).id());
  ASSERT_TRUE(c.node(0).broadcast_push(doc).is_ok());
  c.net().run();
  std::uint64_t dup = 0, wasted = 0, received = 0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    dup += c.node(i).stats().chunk_duplicate_rx;
    wasted += c.node(i).stats().chunk_wasted_bytes;
    received += c.node(i).stats().chunks_received;
  }
  EXPECT_EQ(received, 62u * 40u);  // every station exactly one full blob
  EXPECT_LE(wasted, dup * cfg.chunk.chunk_bytes);
  // Duplicate overhead must stay a small fraction of useful traffic.
  EXPECT_LE(dup, received / 10) << "dup=" << dup << " received=" << received;
}

TEST(SwarmPush, LossyLinksSelfHealAndTerminate) {
  // 10% message loss on every link (the CI chaos-matrix smoke): dropped
  // relays starve stripe trees at random, the stall gate trips, and the
  // pull path must refill every hole — all stations materialized, every
  // transfer retired, no RPC leaked.
  constexpr net::StationLink kLossyCampus{10e6, 10e6, SimTime::millis(15), 0.1};
  StationConfig cfg = swarm_config();
  net::SimNetwork net(4242);
  const std::size_t n = 63;
  net.reserve_stations(n);
  std::vector<StationId> ids;
  std::vector<std::unique_ptr<blob::BlobStore>> blobs;
  std::vector<std::unique_ptr<ObjectStore>> stores;
  std::vector<std::unique_ptr<StationNode>> nodes;
  for (std::size_t i = 0; i < n; ++i) {
    ids.push_back(net.add_station(kLossyCampus));
    blobs.push_back(std::make_unique<blob::BlobStore>());
    stores.push_back(std::make_unique<ObjectStore>(*blobs.back()));
    nodes.push_back(std::make_unique<StationNode>(net, ids.back(), *stores.back(), cfg));
    nodes.back()->bind();
  }
  auto shared = std::make_shared<const std::vector<StationId>>(ids);
  for (auto& node : nodes) node->set_tree(shared, 2);
  auto doc = ten_mb_lecture(ids[0]);
  stores[0]->put_instance(doc, /*ephemeral=*/false).expect("instructor copy");
  ASSERT_TRUE(nodes[0]->broadcast_push(doc).is_ok());
  net.run();
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(stores[i]->has_materialized(doc.doc_key)) << "station " << i;
    EXPECT_EQ(nodes[i]->active_transfers(), 0u)
        << "station " << i << ": transfer failed to retire under loss";
  }
}

}  // namespace
}  // namespace wdoc::dist
