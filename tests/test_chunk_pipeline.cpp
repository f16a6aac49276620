// Pipelining regression: on a depth-3 tree at the paper's campus profile
// (10 Mb/s links, 15 ms latency), the chunked cut-through push must beat
// whole-manifest store-and-forward by a wide margin.
//
// Store-and-forward makespan grows as depth × blob_time (each hop waits for
// the whole document before forwarding). Cut-through relays each verified
// chunk immediately, so makespan approaches blob_time + depth × chunk_time.
// The locked-in bound: chunked ≤ 0.6 × store-and-forward for a 10 MB
// lecture — a ≥ 1.67× improvement that catches any regression to
// store-and-forward behavior (e.g. a window stall or a relay that waits for
// blob completion).
#include <gtest/gtest.h>

#include "dist/station_node.hpp"
#include "net/sim_network.hpp"
#include "obs/metrics.hpp"

namespace wdoc::dist {
namespace {

constexpr net::StationLink kCampus1999{10e6, 10e6, SimTime::millis(15), 0.0};

class Cluster {
 public:
  Cluster(std::size_t n, std::uint64_t m, StationConfig config) : net_(4242) {
    for (std::size_t i = 0; i < n; ++i) {
      StationId id = net_.add_station(kCampus1999);
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
  [[nodiscard]] std::size_t size() const { return ids_.size(); }

  // Station i loses the first `type` message it receives from station
  // `from`, as if the wire dropped it.
  void lose_first(std::size_t i, const char* type, std::size_t from) {
    auto lost = std::make_shared<bool>(false);
    net_.set_handler(ids_[i], [node = nodes_[i].get(), lost, type,
                               sender = ids_[from]](const net::Message& m) {
      if (!*lost && m.type == type && m.from == sender) {
        *lost = true;
        return;
      }
      node->handle(m);
    });
  }

  // Destroys station i's node while the fabric runs on, as a restart that
  // rebuilds the node would: its handler goes first, then the node.
  void destroy(std::size_t i) {
    net_.set_handler(ids_[i], nullptr);
    nodes_[i].reset();
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
  m.doc_key = "http://mmu.edu/cs500/lecture";
  m.structure_bytes = 64 << 10;
  m.home = home;
  BlobRef video;
  video.digest = digest128("cs500 lecture video");
  video.size = 10 << 20;
  video.type = blob::MediaType::video;
  m.blobs.push_back(video);
  return m;
}

// Runs one push strategy to completion on a fresh 15-station binary tree
// (depth 3: positions 8..15) and returns (makespan, all delivered).
struct PushRun {
  double makespan_s = 0;
  bool all_delivered = false;
};

PushRun run_push(bool chunked) {
  Cluster c(15, 2, StationConfig{});
  auto doc = ten_mb_lecture(c.node(0).id());
  Status s = chunked ? c.node(0).broadcast_push(doc)
                     : c.node(0).broadcast_push_store_forward(doc);
  EXPECT_TRUE(s.is_ok()) << s.message();
  c.net().run();
  PushRun out;
  out.makespan_s = c.net().now().as_seconds();
  out.all_delivered = true;
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (!c.store(i).has_materialized(doc.doc_key)) out.all_delivered = false;
  }
  // Nothing may stay in flight after the fabric drains.
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_EQ(c.node(i).pending_rpcs(), 0u) << "station " << i;
    EXPECT_EQ(c.node(i).active_transfers(), 0u) << "station " << i;
  }
  return out;
}

TEST(ChunkPipeline, CutThroughBeatsStoreAndForwardOnDepth3Tree) {
  PushRun store_forward = run_push(/*chunked=*/false);
  PushRun chunked = run_push(/*chunked=*/true);

  ASSERT_TRUE(store_forward.all_delivered);
  ASSERT_TRUE(chunked.all_delivered);
  ASSERT_GT(store_forward.makespan_s, 0.0);
  ASSERT_GT(chunked.makespan_s, 0.0);

  // The locked-in regression bound (≥ 1.67× speedup).
  EXPECT_LE(chunked.makespan_s, 0.6 * store_forward.makespan_s)
      << "chunked=" << chunked.makespan_s
      << "s store-and-forward=" << store_forward.makespan_s << "s";

  // Sanity on the model itself: store-and-forward pays depth × blob_time
  // (≥ 3 × 8.4 s for 10 MB at 10 Mb/s); cut-through stays within a few
  // chunk-times of the root's own uplink serialization (2 copies ≈ 16.8 s).
  EXPECT_GE(store_forward.makespan_s, 3 * 8.0);
  EXPECT_LE(chunked.makespan_s, 25.0);
}

// The zero-copy contract of the payload refactor: pushing REAL bytes down
// the tree, the only per-station byte movement is the single reassembly
// memcpy into the lecture buffer. Every send — the root's first push, every
// interior relay, every retransmit — is a refcounted slice, so the
// net.payload.bytes_copied counter must not move at all during the push.
TEST(ChunkPipeline, RealPayloadRelayIsZeroCopy) {
  StationConfig cfg;
  Cluster c(15, 2, cfg);
  // 2 MiB of real lecture bytes at the root (8 chunks of 256 KiB).
  Bytes video(2 << 20);
  for (std::size_t i = 0; i < video.size(); ++i) {
    video[i] = static_cast<std::uint8_t>(i * 1315423911u >> 16);
  }
  DocManifest doc;
  doc.doc_key = "http://mmu.edu/cs500/real-lecture";
  doc.structure_bytes = 4 << 10;
  doc.home = c.node(0).id();
  BlobRef ref;
  ref.digest = digest128(video);
  ref.size = video.size();
  ref.type = blob::MediaType::video;
  doc.blobs.push_back(ref);
  auto id = c.store(0).blobs().put(video, blob::MediaType::video).expect("put");
  (void)c.store(0).blobs().release(id);

  const std::uint64_t copied_before = net::Payload::bytes_copied_total();
  ASSERT_TRUE(c.node(0).broadcast_push(doc).is_ok());
  c.net().run();
  const std::uint64_t copied = net::Payload::bytes_copied_total() - copied_before;

  // Every station holds the real, digest-verified bytes...
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_TRUE(c.store(i).has_materialized(doc.doc_key)) << "station " << i;
    EXPECT_TRUE(c.store(i).blobs().find(ref.digest).has_value()) << "station " << i;
  }
  // ...yet no payload bytes were copied anywhere on the push/relay path.
  // (Pre-refactor, each of the 14 receiving stations re-encoded ~2 MiB per
  // downstream child — gigabytes of memcpy for a wide tree.)
  EXPECT_EQ(copied, 0u);
}

// The child cursor is a pushed chunk's only ledger, with one deadline
// timer per cursor, so a clean push keeps the event queue bounded by its
// live work: the windows' chunks and acks plus a timer per cursor. (When
// every pushed chunk was an rpc, each left its deadline queued long after
// the ack; this geometry peaked at 29,092 queued events.)
TEST(ChunkPipeline, CleanPushKeepsTheEventQueueBoundedByLiveWork) {
  StationConfig cfg;
  Cluster c(63, 2, cfg);
  DocManifest doc;
  doc.doc_key = "http://mmu.edu/cs500/preload";
  doc.structure_bytes = 64 << 10;
  doc.home = c.node(0).id();
  for (int i = 0; i < 15; ++i) {
    BlobRef b;
    b.digest = digest128("preload blob " + std::to_string(i));
    b.size = 10 << 20;
    b.type = blob::MediaType::video;
    doc.blobs.push_back(b);
  }
  ASSERT_TRUE(c.node(0).broadcast_push(doc).is_ok());
  const obs::Gauge& depth = obs::MetricsRegistry::global().gauge("net.queue_depth");
  std::int64_t peak = 0;
  while (c.net().step()) peak = std::max(peak, depth.value());
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_TRUE(c.store(i).has_materialized(doc.doc_key)) << "station " << i;
    EXPECT_EQ(c.node(i).active_transfers(), 0u) << "station " << i;
  }
  EXPECT_LE(peak, static_cast<std::int64_t>(c.size() * (cfg.chunk.window + 2)));
}

// Push-level recovery, with no repair round: a chunk lost on its way to a
// leaf, and a leaf's ack lost on its way back, are each resent by the
// parent's cursor once their deadline passes.
TEST(ChunkPipeline, CursorResendsALostChunkAndALostAck) {
  StationConfig cfg;
  Cluster c(15, 2, cfg);
  // Positions 15 and 8 are leaves under positions 7 and 4.
  c.lose_first(14, net::kChunkData, 6);
  c.lose_first(3, net::kChunkAck, 7);
  auto doc = ten_mb_lecture(c.node(0).id());
  ASSERT_TRUE(c.node(0).broadcast_push(doc).is_ok());
  c.net().run();
  std::uint64_t retransmits = 0;
  std::uint64_t duplicates = 0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_TRUE(c.store(i).has_materialized(doc.doc_key)) << "station " << i;
    EXPECT_EQ(c.node(i).active_transfers(), 0u) << "station " << i;
    EXPECT_EQ(c.node(i).pending_rpcs(), 0u) << "station " << i;
    EXPECT_TRUE(c.node(i).dead_stations().empty()) << "station " << i;
    retransmits += c.node(i).stats().chunk_retransmits;
    duplicates += c.node(i).stats().chunk_duplicate_rx;
  }
  EXPECT_EQ(retransmits, 2u);
  EXPECT_EQ(duplicates, 1u);  // the chunk whose ack was lost
}

// A node destroyed mid-push leaves no timer behind: the rest of the
// cluster runs on, in the pipelined and in the swarm push (ASan reports a
// timer that fires into the freed node).
TEST(ChunkPipeline, NodeDestroyedMidPushLeavesNoTimerBehind) {
  for (bool swarm : {false, true}) {
    StationConfig cfg;
    cfg.swarm.enabled = swarm;
    Cluster c(15, 2, cfg);
    auto doc = ten_mb_lecture(c.node(0).id());
    ASSERT_TRUE(c.node(0).broadcast_push(doc).is_ok());
    c.net().run_until(SimTime::seconds(2));
    c.destroy(1);  // position 2, interior: parent of positions 4 and 5
    c.net().run();
    // The stations outside position 2's subtree still get the lecture; in
    // the swarm its orphans pull around the hole too.
    for (std::size_t i = 0; i < c.size(); ++i) {
      const bool orphan = i == 3 || i == 4 || (i >= 7 && i <= 10);
      if (i == 1 || (orphan && !swarm)) continue;
      EXPECT_TRUE(c.store(i).has_materialized(doc.doc_key))
          << (swarm ? "swarm" : "chunked") << " station " << i;
    }
  }
}

TEST(ChunkPipeline, SameSeedChunkedPushIsByteDeterministic) {
  auto journal = [] {
    StationConfig cfg;
    Cluster c(15, 2, cfg);
    auto doc = ten_mb_lecture(c.node(0).id());
    EXPECT_TRUE(c.node(0).broadcast_push(doc).is_ok());
    c.net().run();
    std::string out;
    for (std::size_t i = 0; i < c.size(); ++i) {
      const NodeStats& st = c.node(i).stats();
      out += std::to_string(i) + ":" + std::to_string(st.chunks_sent) + "/" +
             std::to_string(st.chunks_received) + "/" +
             std::to_string(st.chunk_retransmits) + "/" +
             std::to_string(st.chunk_bytes_sent) + ";";
    }
    out += "t=" + std::to_string(c.net().now().as_micros());
    return out;
  };
  const std::string a = journal();
  const std::string b = journal();
  EXPECT_EQ(a, b);
}

// Scale determinism: the O(log n) event fabric must stay byte-identical
// across same-seed runs even at populations where the heap sees thousands
// of same-SimTime events (every depth of a 1023-station binary tree relays
// in lock-step). Any unstable tie-break — e.g. a heap comparator ignoring
// sequence numbers, or iteration over an unordered container feeding
// schedule order — shows up here as a diverging journal.
TEST(ChunkPipeline, N1023SameSeedPushIsByteDeterministic) {
  auto journal = [] {
    StationConfig cfg;
    Cluster c(1023, 2, cfg);
    DocManifest doc;
    doc.doc_key = "http://mmu.edu/cs500/scale-lecture";
    doc.structure_bytes = 4 << 10;
    doc.home = c.node(0).id();
    BlobRef ref;
    ref.digest = digest128("scale lecture video");
    ref.size = 1 << 20;
    ref.type = blob::MediaType::video;
    doc.blobs.push_back(ref);
    EXPECT_TRUE(c.node(0).broadcast_push(doc).is_ok());
    c.net().run();
    std::string out;
    std::size_t materialized = 0;
    for (std::size_t i = 0; i < c.size(); ++i) {
      const NodeStats& st = c.node(i).stats();
      out += std::to_string(st.chunks_sent) + "/" +
             std::to_string(st.chunks_received) + "/" +
             std::to_string(st.chunk_bytes_sent) + ";";
      if (c.store(i).has_materialized(doc.doc_key)) ++materialized;
    }
    out += "n=" + std::to_string(materialized);
    out += ",t=" + std::to_string(c.net().now().as_micros());
    EXPECT_EQ(materialized, c.size());
    return out;
  };
  const std::string a = journal();
  const std::string b = journal();
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace wdoc::dist
