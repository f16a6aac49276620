// Observability-plane tests: hierarchical metrics scrape over the m-ary
// broadcast tree (AdminNode::scrape_cluster) and deterministic Perfetto
// export of a lecture-push trace.
#include <gtest/gtest.h>

#include <set>
#include <string_view>

#include "dist/admin_node.hpp"
#include "net/sim_network.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_export.hpp"

namespace wdoc::dist {
namespace {

// Value of `name{station=<id>}` in `snap`, or -1 when absent.
double station_sample(const obs::Snapshot& snap, const std::string& name,
                      StationId station) {
  for (const obs::MetricSample& s : snap.samples) {
    auto it = s.labels.find("station");
    if (s.name == name && it != s.labels.end() &&
        it->second == std::to_string(station.value())) {
      return s.value;
    }
  }
  return -1.0;
}

// Samples per station in local_snapshot(): one counter per kNodeStatRows
// row, the three rpc lifecycle counters, and the disk/doc gauges.
constexpr std::size_t kSamplesPerStation = std::size(kNodeStatRows) + 5;

// Every table row of `node` (plus its rpc counters) appears in `snap` with
// the station's own value.
void expect_station_rows(const obs::Snapshot& snap, const StationNode& node) {
  const NodeStats& st = node.stats();
  for (const NodeStatRow& row : kNodeStatRows) {
    EXPECT_EQ(station_sample(snap, row.scrape, node.id()),
              static_cast<double>(st.*row.field))
        << row.scrape << " station " << node.id().value();
  }
  const net::RpcStats rpc = node.rpc_stats();
  EXPECT_EQ(station_sample(snap, "station.rpc_exhausted", node.id()),
            static_cast<double>(rpc.exhausted));
  EXPECT_EQ(station_sample(snap, "station.rpc_retries", node.id()),
            static_cast<double>(rpc.retries));
  EXPECT_EQ(station_sample(snap, "station.rpc_timeouts", node.id()),
            static_cast<double>(rpc.attempt_timeouts));
}

struct Cluster {
  explicit Cluster(std::size_t n, std::uint64_t m, std::uint64_t seed = 7,
                   const StationConfig& config = {})
      : m(m), net(seed) {
    std::vector<StationId> vec;
    for (std::size_t i = 0; i < n; ++i) {
      auto id = net.add_station();
      vec.push_back(id);
      blobs.push_back(std::make_unique<blob::BlobStore>());
      stores.push_back(std::make_unique<ObjectStore>(*blobs.back()));
      nodes.push_back(std::make_unique<StationNode>(net, id, *stores.back(), config));
      nodes.back()->bind();
    }
    for (auto& node : nodes) node->set_tree(vec, m);
  }

  const std::uint64_t m;

  void push_lecture(const std::string& key) {
    DocManifest doc;
    doc.doc_key = key;
    doc.structure_bytes = 5000;
    doc.home = nodes[0]->id();
    ASSERT_TRUE(nodes[0]->broadcast_push(doc).is_ok());
    net.run();
  }

  // Scrapes the whole tree through an administrator station (one more
  // station on the fabric, outside the tree) and runs it to completion.
  obs::Snapshot scrape() {
    if (admin == nullptr) {
      for (const auto& node : nodes) coordinator.register_station(node->id());
      admin = std::make_unique<AdminNode>(net, net.add_station(), coordinator, m);
      admin->bind();
    }
    obs::Snapshot merged;
    bool done = false;
    EXPECT_TRUE(admin
                    ->scrape_cluster([&](Result<obs::Snapshot> snap, SimTime) {
                      EXPECT_TRUE(snap.is_ok());
                      if (snap.is_ok()) merged = std::move(snap).value();
                      done = true;
                    })
                    .is_ok());
    net.run();
    EXPECT_TRUE(done);
    return merged;
  }

  net::SimNetwork net;
  std::vector<std::unique_ptr<blob::BlobStore>> blobs;
  std::vector<std::unique_ptr<ObjectStore>> stores;
  std::vector<std::unique_ptr<StationNode>> nodes;
  Coordinator coordinator;
  std::unique_ptr<AdminNode> admin;
};

TEST(ScrapeTree, MergedSnapshotMatchesEveryStationsLocalCounters) {
  Cluster c(13, 3);
  c.push_lecture("http://mmu.edu/CS102/lecture1");

  obs::Snapshot merged = c.scrape();

  // One sample per (counter+gauge, station).
  EXPECT_EQ(merged.samples.size(), kSamplesPerStation * 13u);
  for (const auto& node : c.nodes) expect_station_rows(merged, *node);
  // And the cluster totals are plain sums of the per-station samples.
  std::uint64_t pushes = 0;
  for (const auto& node : c.nodes) pushes += node->stats().pushes_received;
  EXPECT_GT(pushes, 0u);
  EXPECT_EQ(obs::counter_total(merged, "station.pushes_received"),
            static_cast<double>(pushes));
}

TEST(ScrapeTree, SnapshotRendersWithExistingExporters) {
  Cluster c(4, 2);
  c.push_lecture("http://mmu.edu/CS101/lecture1");
  obs::Snapshot merged = c.scrape();
  std::string table = obs::to_table(merged);
  EXPECT_NE(table.find("station.pushes_received"), std::string::npos);
  std::string json = obs::to_json(merged);
  EXPECT_NE(json.find("\"station.pushes_received"), std::string::npos);
}

TEST(NodeStatTable, EveryRowNamesOneDistinctField) {
  // Write a distinct value through every row: two rows aliasing one field
  // (and so leaving another unlisted) would read back the later value.
  NodeStats st;
  for (std::size_t i = 0; i < std::size(kNodeStatRows); ++i) {
    st.*kNodeStatRows[i].field = i + 1;
  }
  std::set<std::string> scrape_names, registry_names;
  for (std::size_t i = 0; i < std::size(kNodeStatRows); ++i) {
    const NodeStatRow& row = kNodeStatRows[i];
    EXPECT_EQ(st.*row.field, i + 1) << row.scrape;
    EXPECT_EQ(std::string_view(row.scrape).substr(0, 8), "station.");
    EXPECT_TRUE(scrape_names.insert(row.scrape).second) << row.scrape;
    if (row.registry != nullptr) {
      EXPECT_TRUE(registry_names.insert(row.registry).second) << row.registry;
    }
  }
}

TEST(ScrapeTree, SwarmPushScrapeCoversEveryRowAndMatchesTheRegistry) {
  StationConfig cfg;
  cfg.swarm.enabled = true;
  cfg.swarm.trees = 2;
  Cluster c(63, 2, /*seed=*/7, cfg);
  DocManifest doc;
  doc.doc_key = "http://mmu.edu/CS102/swarm";
  doc.structure_bytes = 5000;
  doc.home = c.nodes[0]->id();
  BlobRef video;
  video.digest = digest128("scrape swarm video");
  video.size = 4 << 20;
  video.type = blob::MediaType::video;
  doc.blobs.push_back(video);

  // Registry counters accumulate across the whole process: measure deltas.
  auto& reg = obs::MetricsRegistry::global();
  std::vector<std::uint64_t> before;
  for (const NodeStatRow& row : kNodeStatRows) {
    before.push_back(row.registry != nullptr ? reg.counter(row.registry).value() : 0);
  }
  ASSERT_TRUE(c.nodes[0]->broadcast_push(doc).is_ok());
  c.net.run();
  for (std::size_t i = 0; i < std::size(kNodeStatRows); ++i) {
    const NodeStatRow& row = kNodeStatRows[i];
    if (row.registry == nullptr) continue;
    std::uint64_t sum = 0;
    for (const auto& node : c.nodes) sum += node->stats().*row.field;
    EXPECT_EQ(reg.counter(row.registry).value() - before[i], sum) << row.registry;
  }

  obs::Snapshot merged = c.scrape();
  EXPECT_EQ(merged.samples.size(), kSamplesPerStation * 63u);
  // Includes the swarm rows (swarm_haves_sent, swarm_chunks_served, ...).
  for (const auto& node : c.nodes) expect_station_rows(merged, *node);
  EXPECT_GT(obs::counter_total(merged, "station.swarm_haves_sent"), 0.0);
}

// --- AdminNode::scrape_cluster ----------------------------------------------

struct Member {
  StationId id;
  std::unique_ptr<blob::BlobStore> blobs;
  std::unique_ptr<ObjectStore> store;
  std::unique_ptr<StationNode> node;
  std::unique_ptr<AdminClient> client;
};

class ScrapeClusterFixture : public ::testing::Test {
 protected:
  ScrapeClusterFixture() : net_(11) {
    admin_id_ = net_.add_station();
    admin_ = std::make_unique<AdminNode>(net_, admin_id_, coordinator_, /*m=*/3);
    admin_->bind();
  }

  void join_members(int n) {
    for (int i = 0; i < n; ++i) {
      auto m = std::make_unique<Member>();
      m->id = net_.add_station();
      m->blobs = std::make_unique<blob::BlobStore>();
      m->store = std::make_unique<ObjectStore>(*m->blobs);
      m->node = std::make_unique<StationNode>(net_, m->id, *m->store);
      m->client = std::make_unique<AdminClient>(net_, *m->node, admin_id_);
      m->client->bind();
      ASSERT_TRUE(m->client->request_join(nullptr).is_ok());
      members_.push_back(std::move(m));
    }
    net_.run();
  }

  net::SimNetwork net_;
  Coordinator coordinator_;
  StationId admin_id_;
  std::unique_ptr<AdminNode> admin_;
  std::vector<std::unique_ptr<Member>> members_;
};

TEST_F(ScrapeClusterFixture, MergesThirteenStationTree) {
  join_members(13);
  DocManifest doc;
  doc.doc_key = "http://mmu.edu/CS102/lecture2";
  doc.structure_bytes = 5000;
  doc.home = members_[0]->id;
  ASSERT_TRUE(members_[0]->node->broadcast_push(doc).is_ok());
  net_.run();

  obs::Snapshot merged;
  bool done = false;
  ASSERT_TRUE(admin_
                  ->scrape_cluster([&](Result<obs::Snapshot> snap, SimTime) {
                    ASSERT_TRUE(snap.is_ok());
                    merged = std::move(snap).value();
                    done = true;
                  })
                  .is_ok());
  net_.run();
  ASSERT_TRUE(done);
  EXPECT_EQ(admin_->scrapes_completed(), 1u);

  EXPECT_EQ(merged.samples.size(), kSamplesPerStation * 13u);
  for (const auto& m : members_) expect_station_rows(merged, *m->node);
  // Tree push accounting: 12 non-root stations received the push, and
  // forward counts sum to the edges the push travelled.
  EXPECT_EQ(obs::counter_total(merged, "station.pushes_received"), 12.0);
}

TEST_F(ScrapeClusterFixture, EmptyClusterCompletesImmediately) {
  bool done = false;
  obs::Snapshot merged;
  ASSERT_TRUE(admin_
                  ->scrape_cluster([&](Result<obs::Snapshot> snap, SimTime) {
                    ASSERT_TRUE(snap.is_ok());
                    merged = std::move(snap).value();
                    done = true;
                  })
                  .is_ok());
  EXPECT_TRUE(done);  // no fabric round-trip needed
  EXPECT_TRUE(merged.samples.empty());
  EXPECT_EQ(admin_->scrapes_completed(), 1u);
}

TEST_F(ScrapeClusterFixture, BackToBackScrapesUseDistinctRequestIds) {
  join_members(5);
  int fired = 0;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(admin_->scrape_cluster([&](Result<obs::Snapshot>, SimTime) { ++fired; })
                    .is_ok());
    net_.run();
  }
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(admin_->scrapes_completed(), 3u);
}

// --- Perfetto export determinism ---------------------------------------------

std::string traced_lecture_run() {
  auto& tracer = obs::Tracer::global();
  tracer.set_enabled(true);
  (void)tracer.drain();  // forget spans from earlier tests
  Cluster c(13, 3, /*seed=*/1999);
  c.push_lecture("http://mmu.edu/CS102/lecture3");
  std::string json = obs::to_chrome_trace(tracer.drain());
  tracer.set_enabled(false);
  return json;
}

TEST(TraceExport, SameSeedRunsExportByteIdenticalJson) {
  std::string a = traced_lecture_run();
  std::string b = traced_lecture_run();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(TraceExport, LecturePushTraceCoversEveryTreeHop) {
  std::string json = traced_lecture_run();
  // Valid trace-event envelope.
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0), 0u);
  // One pid metadata row per station in the 13-node tree.
  std::size_t processes = 0, pos = 0;
  while ((pos = json.find("\"process_name\"", pos)) != std::string::npos) {
    ++processes;
    pos += 1;
  }
  EXPECT_EQ(processes, 13u);
  // The push span chain reaches down the tree: flow arrows bind the hops.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
}

}  // namespace
}  // namespace wdoc::dist
