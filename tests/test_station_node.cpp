// StationNode protocol tests over the simulator: tree multicast push,
// parent-chain pull with store-and-forward relay, watermark replication,
// post-lecture migration, and failure paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "dist/station_node.hpp"
#include "net/sim_network.hpp"

namespace wdoc::dist {
namespace {

DocManifest lecture_manifest(StationId home) {
  DocManifest m;
  m.doc_key = "http://mmu.edu/cs101/index.html";
  m.structure_bytes = 40 << 10;
  m.home = home;
  BlobRef video;
  video.digest = digest128("cs101 intro video");
  video.size = 10 << 20;
  video.type = blob::MediaType::video;
  m.blobs.push_back(video);
  return m;
}

// A cluster of N stations on one simulator, wired into an m-ary tree.
class Cluster {
 public:
  Cluster(std::size_t n, std::uint64_t m, StationConfig config = {}) : net_(42) {
    for (std::size_t i = 0; i < n; ++i) {
      StationId id = net_.add_station();
      ids_.push_back(id);
      blobs_.push_back(std::make_unique<blob::BlobStore>());
      stores_.push_back(std::make_unique<ObjectStore>(*blobs_.back()));
      nodes_.push_back(std::make_unique<StationNode>(net_, id, *stores_.back(), config));
      nodes_.back()->bind();
    }
    for (auto& node : nodes_) node->set_tree(ids_, m);
  }

  [[nodiscard]] StationNode& node(std::size_t i) { return *nodes_[i]; }
  [[nodiscard]] ObjectStore& store(std::size_t i) { return *stores_[i]; }
  [[nodiscard]] net::SimNetwork& net() { return net_; }
  [[nodiscard]] StationId id(std::size_t i) const { return ids_[i]; }
  [[nodiscard]] std::size_t size() const { return ids_.size(); }

 private:
  net::SimNetwork net_;
  std::vector<StationId> ids_;
  std::vector<std::unique_ptr<blob::BlobStore>> blobs_;
  std::vector<std::unique_ptr<ObjectStore>> stores_;
  std::vector<std::unique_ptr<StationNode>> nodes_;
};

TEST(StationNode, TreePositionsDerivedFromBroadcastVector) {
  Cluster c(7, 2);
  EXPECT_EQ(c.node(0).position(), 1u);
  EXPECT_EQ(c.node(6).position(), 7u);
  EXPECT_EQ(c.node(0).parent_station(), std::nullopt);
  EXPECT_EQ(c.node(2).parent_station(), c.id(0));  // position 3 -> parent 1
  EXPECT_EQ(c.node(5).parent_station(), c.id(2));  // position 6 -> parent 3
}

// A station's position is its 1-based index in the broadcast vector,
// whether the vector is in id order from a nonzero first id or shuffled.
TEST(StationNode, TreePositionIsTheIndexInAnyVector) {
  net::SimNetwork net(42);
  blob::BlobStore blobs;
  ObjectStore store(blobs);
  std::vector<StationId> ids;
  std::vector<std::unique_ptr<StationNode>> nodes;
  for (int i = 0; i < 20; ++i) {
    ids.push_back(net.add_station());
    nodes.push_back(std::make_unique<StationNode>(net, ids.back(), store));
  }
  const std::vector<StationId> from_third(ids.begin() + 3, ids.end());
  std::vector<StationId> shuffled = ids;
  std::shuffle(shuffled.begin(), shuffled.end(), std::mt19937(7));
  for (const auto& order : {from_third, shuffled}) {
    for (auto& node : nodes) node->set_tree(order, 2);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const auto at = std::find(order.begin(), order.end(), ids[i]);
      const std::uint64_t pos = at == order.end() ? 0 : (at - order.begin()) + 1;
      EXPECT_EQ(nodes[i]->position(), pos) << "station " << i;
      EXPECT_EQ(nodes[i]->parent_station(),
                pos <= 1 ? std::nullopt
                         : std::optional<StationId>(order[parent_position(pos, 2) - 1]))
          << "station " << i;
    }
  }
}

TEST(StationNode, BroadcastPushReachesEveryStation) {
  Cluster c(13, 3);
  auto manifest = lecture_manifest(c.id(0));
  ASSERT_TRUE(c.node(0).broadcast_push(manifest).is_ok());
  c.net().run();
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_TRUE(c.store(i).has_materialized(manifest.doc_key)) << "station " << i;
  }
  // Root copy is persistent, others ephemeral.
  EXPECT_FALSE(c.store(0).doc(manifest.doc_key)->ephemeral);
  EXPECT_TRUE(c.store(5).doc(manifest.doc_key)->ephemeral);
}

TEST(StationNode, PushForwardingFollowsTreeFanout) {
  Cluster c(13, 3);
  auto manifest = lecture_manifest(c.id(0));
  ASSERT_TRUE(c.node(0).broadcast_push(manifest).is_ok());
  c.net().run();
  // Root pushed to its 3 children; station at position 2 to 3 children...
  EXPECT_EQ(c.node(0).stats().pushes_forwarded, 3u);
  EXPECT_EQ(c.node(1).stats().pushes_forwarded, 3u);
  // Leaves forwarded nothing.
  EXPECT_EQ(c.node(12).stats().pushes_forwarded, 0u);
  // Each non-root station received exactly one push.
  for (std::size_t i = 1; i < c.size(); ++i) {
    EXPECT_EQ(c.node(i).stats().pushes_received, 1u) << i;
  }
}

TEST(StationNode, FetchResolvesLocallyWhenMaterialized) {
  Cluster c(3, 2);
  auto manifest = lecture_manifest(c.id(0));
  ASSERT_TRUE(c.node(0).broadcast_push(manifest).is_ok());
  c.net().run();
  bool fetched = false;
  ASSERT_TRUE(c.node(2)
                  .fetch(manifest.doc_key,
                         [&](Result<DocManifest> r, SimTime) {
                           ASSERT_TRUE(r.is_ok());
                           fetched = true;
                         })
                  .is_ok());
  EXPECT_TRUE(fetched);  // synchronous local hit
  EXPECT_EQ(c.node(2).stats().fetches_local, 1u);
}

TEST(StationNode, FetchPullsUpParentChain) {
  Cluster c(13, 3);
  auto manifest = lecture_manifest(c.id(0));
  // Only the root holds the lecture.
  ASSERT_TRUE(c.store(0).put_instance(manifest, false).is_ok());

  // Station 12 (position 13, depth 2) pulls: request goes 13 -> 4 -> 1,
  // data relays back 1 -> 4 -> 13.
  bool fetched = false;
  ASSERT_TRUE(c.node(12)
                  .fetch(manifest.doc_key,
                         [&](Result<DocManifest> r, SimTime) {
                           ASSERT_TRUE(r.is_ok());
                           EXPECT_EQ(r.value().doc_key, manifest.doc_key);
                           fetched = true;
                         })
                  .is_ok());
  c.net().run();
  EXPECT_TRUE(fetched);
  EXPECT_EQ(c.node(12).stats().fetches_remote, 1u);
  EXPECT_EQ(c.node(3).stats().forwards_up, 1u);  // position 4 forwarded
  EXPECT_EQ(c.node(0).stats().serves, 1u);
  EXPECT_EQ(c.node(3).stats().relays, 1u);
  // By default intermediates do not retain the data.
  EXPECT_FALSE(c.store(3).has_materialized(manifest.doc_key));
}

TEST(StationNode, RelayCacheRetainsAtIntermediates) {
  StationConfig config;
  config.relay_cache = true;
  config.watermark = 1000;  // disable requester replication
  Cluster c(13, 3, config);
  auto manifest = lecture_manifest(c.id(0));
  ASSERT_TRUE(c.store(0).put_instance(manifest, false).is_ok());
  ASSERT_TRUE(c.node(12).fetch(manifest.doc_key, [](Result<DocManifest>, SimTime) {})
                  .is_ok());
  c.net().run();
  EXPECT_TRUE(c.store(3).has_materialized(manifest.doc_key));
}

TEST(StationNode, WatermarkTriggersReplication) {
  StationConfig config;
  config.watermark = 3;
  Cluster c(4, 3, config);
  auto manifest = lecture_manifest(c.id(0));
  ASSERT_TRUE(c.store(0).put_instance(manifest, false).is_ok());

  for (int round = 1; round <= 3; ++round) {
    ASSERT_TRUE(
        c.node(3).fetch(manifest.doc_key, [](Result<DocManifest>, SimTime) {}).is_ok());
    c.net().run();
    if (round < 3) {
      EXPECT_FALSE(c.store(3).has_materialized(manifest.doc_key))
          << "replicated too early, round " << round;
    }
  }
  // Third retrieval hit the watermark: physical data copied locally.
  EXPECT_TRUE(c.store(3).has_materialized(manifest.doc_key));
  EXPECT_EQ(c.node(3).stats().replications, 1u);
  // Subsequent fetches are local.
  ASSERT_TRUE(
      c.node(3).fetch(manifest.doc_key, [](Result<DocManifest>, SimTime) {}).is_ok());
  EXPECT_EQ(c.node(3).stats().fetches_local, 1u);
}

TEST(StationNode, EndLectureMigratesEphemeralCopies) {
  Cluster c(7, 2);
  auto manifest = lecture_manifest(c.id(0));
  ASSERT_TRUE(c.node(0).broadcast_push(manifest).is_ok());
  c.net().run();
  std::uint64_t disk_during = c.store(4).disk_bytes();
  EXPECT_GT(disk_during, 0u);

  std::uint64_t reclaimed = c.node(4).end_lecture();
  EXPECT_GT(reclaimed, 0u);
  EXPECT_EQ(c.store(4).disk_bytes(), 0u);
  EXPECT_EQ(c.store(4).doc(manifest.doc_key)->form, ObjectForm::reference);
  EXPECT_EQ(c.node(4).stats().demotions, 1u);
  // The root's persistent instance is untouched by its own end_lecture.
  (void)c.node(0).end_lecture();
  EXPECT_TRUE(c.store(0).has_materialized(manifest.doc_key));
}

TEST(StationNode, RefetchAfterMigrationWorks) {
  Cluster c(7, 2);
  auto manifest = lecture_manifest(c.id(0));
  ASSERT_TRUE(c.node(0).broadcast_push(manifest).is_ok());
  c.net().run();
  (void)c.node(4).end_lecture();
  bool fetched = false;
  ASSERT_TRUE(c.node(4)
                  .fetch(manifest.doc_key,
                         [&](Result<DocManifest> r, SimTime) { fetched = r.is_ok(); })
                  .is_ok());
  c.net().run();
  EXPECT_TRUE(fetched);
}

TEST(StationNode, FetchUnknownDocReportsNotFound) {
  Cluster c(7, 2);
  // Give the requester a reference so the fetch has a home, but nobody has
  // the actual document.
  DocManifest ghost;
  ghost.doc_key = "http://ghost/";
  ghost.structure_bytes = 1;
  ghost.home = c.id(0);
  ASSERT_TRUE(c.store(4).put_reference(ghost).is_ok());
  Errc seen = Errc::ok;
  ASSERT_TRUE(c.node(4)
                  .fetch(ghost.doc_key,
                         [&](Result<DocManifest> r, SimTime) { seen = r.code(); })
                  .is_ok());
  c.net().run();
  EXPECT_EQ(seen, Errc::not_found);
  EXPECT_GE(c.node(4).stats().failed_fetches, 1u);
}

TEST(StationNode, FetchWithoutTreeGoesToHome) {
  net::SimNetwork net;
  StationId home_id = net.add_station();
  StationId student_id = net.add_station();
  blob::BlobStore home_blobs, student_blobs;
  ObjectStore home_store(home_blobs), student_store(student_blobs);
  StationNode home(net, home_id, home_store);
  StationNode student(net, student_id, student_store);
  home.bind();
  student.bind();
  // No set_tree: direct-to-home fetching via the local reference.
  auto manifest = lecture_manifest(home_id);
  ASSERT_TRUE(home_store.put_instance(manifest, false).is_ok());
  ASSERT_TRUE(student_store.put_reference(manifest).is_ok());

  bool fetched = false;
  ASSERT_TRUE(student
                  .fetch(manifest.doc_key,
                         [&](Result<DocManifest> r, SimTime) { fetched = r.is_ok(); })
                  .is_ok());
  net.run();
  EXPECT_TRUE(fetched);
  // Without a tree and without a reference, fetch fails fast.
  auto status = student.fetch("http://unknown/", [](Result<DocManifest>, SimTime) {});
  EXPECT_EQ(status.code(), Errc::unavailable);
}

TEST(StationNode, BlobFetchChargesBlobSize) {
  Cluster c(2, 2);
  auto manifest = lecture_manifest(c.id(0));
  ASSERT_TRUE(c.store(0).put_instance(manifest, false).is_ok());
  bool done = false;
  SimTime arrival;
  ASSERT_TRUE(c.node(1)
                  .fetch_blob(c.id(0), manifest.doc_key, manifest.blobs[0],
                              [&](Result<BlobRef> r, SimTime t) {
                                ASSERT_TRUE(r.is_ok());
                                done = true;
                                arrival = t;
                              })
                  .is_ok());
  c.net().run();
  EXPECT_TRUE(done);
  EXPECT_GT(arrival, SimTime::zero());
  // A blob larger than one chunk streams at chunk granularity.
  const std::uint64_t chunks =
      blob::chunk_count(manifest.blobs[0].size, c.node(0).config().chunk.chunk_bytes);
  EXPECT_EQ(c.node(0).stats().chunk_repair_served, chunks);
  EXPECT_EQ(c.node(1).stats().chunks_received, chunks);
  // 10 MB crossed the wire.
  EXPECT_GE(c.net().stats(c.id(0)).bytes_sent, manifest.blobs[0].size);
}

TEST(StationNode, SubChunkBlobFetchIsOneChunk) {
  Cluster c(2, 2);
  auto manifest = lecture_manifest(c.id(0));
  manifest.blobs[0].size = c.node(0).config().chunk.chunk_bytes / 4;
  ASSERT_TRUE(c.store(0).put_instance(manifest, false).is_ok());
  bool done = false;
  ASSERT_TRUE(c.node(1)
                  .fetch_blob(c.id(0), manifest.doc_key, manifest.blobs[0],
                              [&](Result<BlobRef> r, SimTime) {
                                ASSERT_TRUE(r.is_ok());
                                done = true;
                              })
                  .is_ok());
  c.net().run();
  EXPECT_TRUE(done);
  EXPECT_EQ(c.node(0).stats().chunk_repair_served, 1u);
  EXPECT_EQ(c.node(1).stats().chunk_repair_reqs, 1u);
  EXPECT_EQ(c.node(1).stats().chunks_received, 1u);
  EXPECT_TRUE(c.store(1).blobs().find(manifest.blobs[0].digest).has_value());
  EXPECT_GE(c.net().stats(c.id(0)).bytes_sent, manifest.blobs[0].size);
}

TEST(StationNode, ReferenceEnablesOnDemandFetch) {
  // A reference record in the student's store (the manifest only, no
  // bytes) is enough for a later on-demand pull.
  net::SimNetwork net;
  StationId home_id = net.add_station();
  StationId student_id = net.add_station();
  blob::BlobStore hb, sb;
  ObjectStore hs(hb), ss(sb);
  StationNode home(net, home_id, hs);
  StationNode student(net, student_id, ss);
  home.bind();
  student.bind();
  std::vector<StationId> vec{home_id, student_id};
  home.set_tree(vec, 1);
  student.set_tree(vec, 1);

  auto manifest = lecture_manifest(home_id);
  ASSERT_TRUE(hs.put_instance(manifest, false).is_ok());
  ASSERT_TRUE(ss.put_reference(manifest).is_ok());

  bool fetched = false;
  ASSERT_TRUE(student
                  .fetch(manifest.doc_key,
                         [&](Result<DocManifest> r, SimTime) { fetched = r.is_ok(); })
                  .is_ok());
  net.run();
  EXPECT_TRUE(fetched);
}

TEST(StationNode, RepeatBlobFetchIsLocal) {
  Cluster c(2, 2);
  auto manifest = lecture_manifest(c.id(0));
  ASSERT_TRUE(c.store(0).put_instance(manifest, false).is_ok());

  int completions = 0;
  ASSERT_TRUE(c.node(1)
                  .fetch_blob(c.id(0), manifest.doc_key, manifest.blobs[0],
                              [&](Result<BlobRef> r, SimTime) {
                                ASSERT_TRUE(r.is_ok());
                                ++completions;
                              })
                  .is_ok());
  c.net().run();
  ASSERT_EQ(completions, 1);
  std::uint64_t wire_after_first = c.net().total_bytes_on_wire();

  // Second fetch of the same content: resolved from the local buffer,
  // synchronously, with zero new wire traffic.
  ASSERT_TRUE(c.node(1)
                  .fetch_blob(c.id(0), manifest.doc_key, manifest.blobs[0],
                              [&](Result<BlobRef> r, SimTime) {
                                ASSERT_TRUE(r.is_ok());
                                ++completions;
                              })
                  .is_ok());
  EXPECT_EQ(completions, 2);
  EXPECT_EQ(c.net().total_bytes_on_wire(), wire_after_first);
  // The buffered payload is reclaimable (zero refs until a doc claims it).
  EXPECT_EQ(c.store(1).blobs().gc(), manifest.blobs[0].size);
}

TEST(StationNode, DuplicateFetchResponseIsCountedAndIgnored) {
  Cluster c(13, 3);
  auto manifest = lecture_manifest(c.id(0));
  ASSERT_TRUE(c.store(0).put_instance(manifest, false).is_ok());

  int completions = 0;
  ASSERT_TRUE(c.node(12)
                  .fetch(manifest.doc_key,
                         [&](Result<DocManifest> r, SimTime) {
                           ASSERT_TRUE(r.is_ok());
                           ++completions;
                         })
                  .is_ok());
  c.net().run();
  ASSERT_EQ(completions, 1);
  ASSERT_EQ(c.node(12).pending_rpcs(), 0u);

  // Replay the response for the (already resolved) first request, as a
  // retry racing the original answer would: same req_id, empty relay path.
  const std::uint64_t stale_req_id = (c.id(12).value() << 24) | 1;
  Writer w;
  w.u64(stale_req_id);
  manifest.serialize(w);
  w.u32(0);  // empty path: final delivery
  net::Message dup;
  dup.from = c.id(0);
  dup.to = c.id(12);
  dup.type = StationNode::kFetchRsp;
  dup.payload = w.take();
  ASSERT_TRUE(c.net().send(std::move(dup)).is_ok());
  c.net().run();

  // The callback did not fire again; the duplicate was counted.
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(c.node(12).rpc_stats().duplicates, 1u);
  EXPECT_EQ(c.node(12).rpc_stats().completed, 1u);
}

TEST(StationNode, ConfigValidationRejectsNonsense) {
  StationConfig zero_watermark;
  zero_watermark.watermark = 0;
  EXPECT_EQ(zero_watermark.validate().code(), Errc::invalid_argument);

  StationConfig zero_deadline;
  zero_deadline.rpc.deadline = SimTime::zero();
  EXPECT_EQ(zero_deadline.validate().code(), Errc::invalid_argument);

  StationConfig no_bandwidth;
  no_bandwidth.min_bandwidth_bps = 0.0;
  EXPECT_EQ(no_bandwidth.validate().code(), Errc::invalid_argument);

  EXPECT_TRUE(StationConfig{}.validate().is_ok());
}

TEST(StationNode, PushedBytesScaleWithTreeEdges) {
  Cluster c(7, 2);
  auto manifest = lecture_manifest(c.id(0));
  ASSERT_TRUE(c.node(0).broadcast_push(manifest).is_ok());
  c.net().run();
  // 6 push edges, each charged the full document size.
  EXPECT_GE(c.net().total_bytes_on_wire(), 6 * manifest.total_bytes());
  // Root only sent to its two children (the tree advantage); chunk framing
  // adds ~64 B per chunk on top of the document bytes.
  EXPECT_LE(c.net().stats(c.id(0)).bytes_sent, 2 * manifest.total_bytes() + 16 * 1024);
}

}  // namespace
}  // namespace wdoc::dist
