// Fault-matrix test: a 13-station m=3 broadcast tree driven through loss
// bursts, partitions, and station crashes. The invariant under every fault
// is *termination*: each fetch resolves exactly once — with a manifest, a
// terminal Errc::timeout, or Errc::unreachable — never a stranded callback.
// Same-seed runs must produce byte-identical outcome journals, faults and
// all.
#include <gtest/gtest.h>

#include <sstream>

#include "common/hash.hpp"
#include "dist/lecture.hpp"
#include "net/sim_network.hpp"

namespace wdoc::dist {
namespace {

// Tight lifecycle settings so a whole exhaustion (1 + net::kMaxRetries
// attempts + backoff) fits in a few simulated seconds.
StationConfig tight_config() {
  StationConfig cfg;
  cfg.rpc.deadline = SimTime::millis(500);
  cfg.rpc.backoff.initial = SimTime::millis(100);
  cfg.rpc.backoff.cap = SimTime::seconds(1);
  return cfg;
}

struct Cluster {
  explicit Cluster(std::uint64_t seed, std::size_t n = 13, std::uint64_t m = 3,
                   StationConfig cfg = tight_config())
      : net(seed) {
    for (std::size_t i = 0; i < n; ++i) {
      ids.push_back(net.add_station());
      blobs.push_back(std::make_unique<blob::BlobStore>());
      stores.push_back(std::make_unique<ObjectStore>(*blobs.back()));
      nodes.push_back(std::make_unique<StationNode>(net, ids.back(), *stores.back(), cfg));
      nodes.back()->bind();
    }
    for (auto& node : nodes) node->set_tree(ids, m);
  }

  // A document materialized only at the root; every other station holds a
  // reference, so a fetch anywhere else walks up the tree.
  void seed_document(const std::string& key) {
    DocManifest doc;
    doc.doc_key = key;
    doc.structure_bytes = 2000;
    doc.home = ids[0];
    stores[0]->put_instance(doc, /*ephemeral=*/false).expect("root instance");
    for (std::size_t i = 1; i < stores.size(); ++i) {
      stores[i]->put_reference(doc).expect("reference");
    }
  }

  net::SimNetwork net;
  std::vector<StationId> ids;
  std::vector<std::unique_ptr<blob::BlobStore>> blobs;
  std::vector<std::unique_ptr<ObjectStore>> stores;
  std::vector<std::unique_ptr<StationNode>> nodes;
};

enum class Fault { none, loss_burst, partition, crash, crash_restart };

net::FaultPlan plan_for(Fault f, const Cluster& c) {
  net::FaultPlan plan;
  switch (f) {
    case Fault::none:
      break;
    case Fault::loss_burst:
      // Heavy burst on the root's links while the fetches fly.
      plan.loss_bursts.push_back({c.ids[0], 0.5, SimTime::millis(1), SimTime::seconds(3)});
      break;
    case Fault::partition:
      // Isolate position 2's subtree: positions 2 and its children 5, 6, 7
      // (child(2, i, 3) = 3·1 + i + 1) from everything else.
      plan.partitions.push_back(
          {{c.ids[1], c.ids[4], c.ids[5], c.ids[6]}, SimTime::millis(1), SimTime::seconds(2)});
      break;
    case Fault::crash:
      plan.crashes.push_back({c.ids[1], SimTime::millis(1), SimTime::zero()});
      break;
    case Fault::crash_restart:
      plan.crashes.push_back({c.ids[1], SimTime::millis(1), SimTime::seconds(2)});
      break;
  }
  return plan;
}

// Runs one scenario: every non-root station fetches the root-held document
// while the fault is active. Returns a deterministic outcome journal. With
// `late_fault`, a loss burst is injected whose window opens only long after
// the traffic resolves — it must not perturb the run at all.
std::string run_scenario(Fault f, std::uint64_t seed, bool late_fault = false) {
  Cluster c(seed);
  const std::string key = "http://mmu.edu/CS500/fault-drill";
  c.seed_document(key);
  net::FaultPlan plan = plan_for(f, c);
  if (late_fault) {
    plan.loss_bursts.push_back(
        {c.ids[0], 0.9, SimTime::seconds(1000), SimTime::seconds(2000)});
  }
  if (!plan.empty()) {
    c.net.inject(plan).expect("inject");
  }

  std::ostringstream journal;
  std::size_t issued = 0;
  std::size_t resolved = 0;
  for (std::size_t i = 1; i < c.nodes.size(); ++i) {
    StationNode* node = c.nodes[i].get();
    const SimTime at = c.net.now() + SimTime::millis(10 + static_cast<std::int64_t>(i));
    c.net.schedule_at(at, [&, i, node] {
      Status s = node->fetch(key, [&, i](Result<DocManifest> r, SimTime t) {
        ++resolved;
        journal << "station=" << i << " code=" << errc_name(r.status().code())
                << " t=" << t.as_micros() << "\n";
      });
      ASSERT_TRUE(s.is_ok()) << "station " << i;
      ++issued;
    });
  }
  c.net.run();

  // Termination: every issued fetch resolved exactly once, nothing pending.
  EXPECT_EQ(issued, c.nodes.size() - 1);
  EXPECT_EQ(resolved, issued);
  for (std::size_t i = 0; i < c.nodes.size(); ++i) {
    const net::RpcStats st = c.nodes[i]->rpc_stats();
    EXPECT_EQ(c.nodes[i]->pending_rpcs(), 0u) << "station " << i;
    EXPECT_EQ(c.nodes[i]->active_transfers(), 0u) << "station " << i;
    EXPECT_EQ(st.started, st.completed + st.exhausted) << "station " << i;
  }
  return journal.str();
}

class FaultMatrix : public ::testing::TestWithParam<Fault> {};

TEST_P(FaultMatrix, EveryFetchTerminatesAndRunsAreDeterministic) {
  const std::string a = run_scenario(GetParam(), /*seed=*/2024);
  const std::string b = run_scenario(GetParam(), /*seed=*/2024);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);  // byte-identical journal, faults and all
}

INSTANTIATE_TEST_SUITE_P(Matrix, FaultMatrix,
                         ::testing::Values(Fault::none, Fault::loss_burst,
                                           Fault::partition, Fault::crash,
                                           Fault::crash_restart),
                         [](const ::testing::TestParamInfo<Fault>& info) {
                           switch (info.param) {
                             case Fault::none: return "none";
                             case Fault::loss_burst: return "loss_burst";
                             case Fault::partition: return "partition";
                             case Fault::crash: return "crash";
                             case Fault::crash_restart: return "crash_restart";
                           }
                           return "unknown";
                         });

TEST(FaultMatrix, ClosedFaultWindowLeavesTheRunByteIdentical) {
  // Injected-fault checks draw from the rng only while a window is open: a
  // plan whose burst starts long after the traffic drains must leave the
  // outcome journal byte-identical to no plan at all.
  const std::string baseline = run_scenario(Fault::none, 7);
  const std::string with_latent_fault = run_scenario(Fault::none, 7, /*late_fault=*/true);
  EXPECT_FALSE(baseline.empty());
  EXPECT_EQ(baseline, with_latent_fault);
}

TEST(FaultPlanValidate, RejectsNonsense) {
  net::SimNetwork net(1);
  StationId a = net.add_station();

  net::FaultPlan bad_rate;
  bad_rate.loss_bursts.push_back({a, 1.5, SimTime::millis(1), SimTime::millis(2)});
  EXPECT_EQ(net.inject(bad_rate).code(), Errc::invalid_argument);

  net::FaultPlan inverted_window;
  inverted_window.loss_bursts.push_back({a, 0.5, SimTime::millis(5), SimTime::millis(2)});
  EXPECT_EQ(net.inject(inverted_window).code(), Errc::invalid_argument);

  net::FaultPlan empty_island;
  empty_island.partitions.push_back({{}, SimTime::millis(1), SimTime::millis(2)});
  EXPECT_EQ(net.inject(empty_island).code(), Errc::invalid_argument);

  net::FaultPlan unknown_station;
  unknown_station.crashes.push_back({StationId{999}, SimTime::millis(1), SimTime::zero()});
  EXPECT_FALSE(net.inject(unknown_station).is_ok());

  net::FaultPlan in_the_past;
  in_the_past.crashes.push_back({a, SimTime::millis(1), SimTime::zero()});
  net.schedule_at(net.now() + SimTime::millis(10), [] {});
  (void)net.run();
  EXPECT_FALSE(net.inject(in_the_past).is_ok());
}

// The acceptance scenario from the redesign: 20% loss on the root plus an
// interior crash mid-lecture. The orphaned subtree declares its parent dead
// and reparents to the grandparent (the root, by ⌊(k−i−1)/m⌋+1 applied
// twice); the repair loop converges for every station that is still online;
// the lifecycle counters account for every retry and failover.
TEST(FaultAcceptance, OrphansReparentAndRepairConvergesUnderLossAndCrash) {
  Cluster c(/*seed=*/99);
  DocManifest doc;
  doc.doc_key = "http://mmu.edu/CS501/lecture1";
  doc.structure_bytes = 5000;
  doc.home = c.ids[0];
  c.stores[0]->put_instance(doc, /*ephemeral=*/false).expect("instructor copy");

  std::vector<StationNode*> audience;
  for (std::size_t i = 1; i < c.nodes.size(); ++i) audience.push_back(c.nodes[i].get());
  LectureSession lecture(LectureId{1}, doc, *c.nodes[0], audience);

  net::FaultPlan plan;
  plan.loss_bursts.push_back({c.ids[0], 0.2, SimTime::millis(1), SimTime::seconds(20)});
  // Station index 1 holds tree position 2 — an interior node whose children
  // sit at positions 5, 6, 7 (station indices 4, 5, 6). It dies mid-push
  // and never comes back.
  plan.crashes.push_back({c.ids[1], SimTime::millis(2), SimTime::zero()});
  c.net.inject(plan).expect("inject");

  ASSERT_TRUE(lecture.begin().is_ok());
  c.net.run();

  // Repair until every *online* audience member holds the lecture.
  auto online_converged = [&] {
    for (std::size_t i = 1; i < c.nodes.size(); ++i) {
      if (!c.nodes[i]->online()) continue;
      if (!c.stores[i]->has_materialized(doc.doc_key)) return false;
    }
    return true;
  };
  int rounds = 0;
  while (!online_converged() && rounds < 60) {
    ASSERT_TRUE(lecture.repair().is_ok());
    c.net.run();
    ++rounds;
  }
  EXPECT_TRUE(online_converged()) << "repair did not converge in " << rounds << " rounds";

  // The crashed interior node is offline; its children noticed and
  // reparented to the grandparent — the root.
  EXPECT_FALSE(c.nodes[1]->online());
  std::uint64_t failovers = 0;
  std::uint64_t orphans_reparented = 0;
  for (std::size_t i = 0; i < c.nodes.size(); ++i) {
    failovers += c.nodes[i]->stats().failovers;
    if (i >= 4 && i <= 6 && c.nodes[i]->is_declared_dead(c.ids[1])) {
      ++orphans_reparented;
      EXPECT_EQ(c.nodes[i]->live_parent_station(), c.ids[0]) << "station " << i;
    }
  }
  EXPECT_GE(failovers, 1u);
  EXPECT_GE(orphans_reparented, 1u);

  // Lifecycle accounting: every rpc either completed or exhausted; every
  // retry was counted; nothing is still pending after the queue drained.
  for (std::size_t i = 0; i < c.nodes.size(); ++i) {
    const net::RpcStats st = c.nodes[i]->rpc_stats();
    EXPECT_EQ(c.nodes[i]->pending_rpcs(), 0u) << "station " << i;
    EXPECT_EQ(c.nodes[i]->active_transfers(), 0u) << "station " << i;
    EXPECT_EQ(st.started, st.completed + st.exhausted) << "station " << i;
    EXPECT_GE(st.attempt_timeouts, st.retries) << "station " << i;
  }
}

// --- chunked push under faults ----------------------------------------------
//
// The chunked acceptance drill: a lecture WITH blob payload pushed down the
// 13-station m=3 tree under 20% loss on the root plus an interior crash.
// Lost chunks must converge through chunk-level repair (stations resume
// from their partial-assembly bitmaps, re-pulling only missing indices),
// same-seed runs must be byte-identical, and the total chunk bytes on the
// wire must stay within two extra lecture copies of the ideal.

StationConfig chunk_drill_config() {
  StationConfig cfg = tight_config();
  cfg.chunk.chunk_bytes = 64 * 1024;
  cfg.chunk.window = 8;
  cfg.chunk.repair_batch = 16;
  return cfg;
}

DocManifest chunk_drill_lecture(StationId home) {
  DocManifest doc;
  doc.doc_key = "http://mmu.edu/CS502/chunked-lecture";
  doc.structure_bytes = 5000;
  doc.home = home;
  for (int i = 0; i < 2; ++i) {
    BlobRef b;
    b.digest = digest128("chunk drill blob " + std::to_string(i));
    b.size = 1 << 20;  // 16 chunks each at 64 KB
    b.type = blob::MediaType::video;
    doc.blobs.push_back(b);
  }
  return doc;
}

struct ChunkDrillResult {
  std::string journal;
  int rounds = 0;
  bool converged = false;
  std::uint64_t chunk_bytes_total = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t repair_served = 0;
};

ChunkDrillResult run_chunk_drill(std::uint64_t seed) {
  Cluster c(seed, 13, 3, chunk_drill_config());
  DocManifest doc = chunk_drill_lecture(c.ids[0]);
  c.stores[0]->put_instance(doc, /*ephemeral=*/false).expect("instructor copy");

  std::vector<StationNode*> audience;
  for (std::size_t i = 1; i < c.nodes.size(); ++i) audience.push_back(c.nodes[i].get());
  LectureSession lecture(LectureId{1}, doc, *c.nodes[0], audience);

  net::FaultPlan plan;
  plan.loss_bursts.push_back({c.ids[0], 0.2, SimTime::millis(1), SimTime::seconds(20)});
  plan.crashes.push_back({c.ids[1], SimTime::millis(2), SimTime::zero()});
  c.net.inject(plan).expect("inject");

  EXPECT_TRUE(lecture.begin().is_ok());
  c.net.run();

  auto online_converged = [&] {
    for (std::size_t i = 1; i < c.nodes.size(); ++i) {
      if (!c.nodes[i]->online()) continue;
      if (!c.stores[i]->has_materialized(doc.doc_key)) return false;
    }
    return true;
  };
  ChunkDrillResult out;
  while (!online_converged() && out.rounds < 60) {
    EXPECT_TRUE(lecture.repair().is_ok());
    c.net.run();
    ++out.rounds;
  }
  out.converged = online_converged();

  std::ostringstream journal;
  for (std::size_t i = 0; i < c.nodes.size(); ++i) {
    const NodeStats& st = c.nodes[i]->stats();
    out.chunk_bytes_total += st.chunk_bytes_sent;
    out.retransmits += st.chunk_retransmits;
    out.repair_served += st.chunk_repair_served;
    journal << "station=" << i << " sent=" << st.chunks_sent
            << " recv=" << st.chunks_received << " dup=" << st.chunk_duplicate_rx
            << " rej=" << st.chunk_rejects << " rtx=" << st.chunk_retransmits
            << " repair=" << st.chunk_repair_served
            << " bytes=" << st.chunk_bytes_sent
            << " mat=" << c.stores[i]->has_materialized(doc.doc_key) << "\n";
  }
  journal << "rounds=" << out.rounds << " t=" << c.net.now().as_micros() << "\n";
  out.journal = journal.str();

  // Lifecycle accounting still holds under the chunked protocol.
  for (std::size_t i = 0; i < c.nodes.size(); ++i) {
    const net::RpcStats st = c.nodes[i]->rpc_stats();
    EXPECT_EQ(c.nodes[i]->pending_rpcs(), 0u) << "station " << i;
    EXPECT_EQ(c.nodes[i]->active_transfers(), 0u) << "station " << i;
    EXPECT_EQ(st.started, st.completed + st.exhausted) << "station " << i;
  }
  return out;
}

TEST(FaultAcceptance, ChunkedPushConvergesViaChunkRepairUnderLossAndCrash) {
  ChunkDrillResult r = run_chunk_drill(/*seed=*/2025);
  EXPECT_TRUE(r.converged) << "chunk repair did not converge in " << r.rounds
                           << " rounds";
  // The faults actually bit: chunks were retransmitted and chunk-level
  // repair served missing indices (not whole blobs).
  EXPECT_GE(r.retransmits, 1u);
  EXPECT_GE(r.repair_served, 1u);
  // Waste bound: 11 live receivers each need one lecture's blob bytes; the
  // crashed station plus all loss/retransmit/repair overhead must cost less
  // than two additional copies.
  const DocManifest doc = chunk_drill_lecture(StationId{1});
  const std::uint64_t ideal = 11 * doc.blob_bytes();
  EXPECT_LT(r.chunk_bytes_total, ideal + 2 * doc.blob_bytes())
      << "total=" << r.chunk_bytes_total << " ideal=" << ideal;
}

TEST(FaultAcceptance, ChunkedDrillSameSeedRunsAreByteIdentical) {
  ChunkDrillResult a = run_chunk_drill(/*seed=*/77);
  ChunkDrillResult b = run_chunk_drill(/*seed=*/77);
  EXPECT_TRUE(a.converged);
  EXPECT_FALSE(a.journal.empty());
  EXPECT_EQ(a.journal, b.journal);
}

// --- swarm push under faults -------------------------------------------------
//
// The swarm acceptance drill: a 10 MB lecture striped over two rotated
// trees across 63 campus stations, with an interior station crashing
// mid-push. The orphaned subtree loses one stripe's feed; gossip exposes
// the hole and the rarest-first pull path must refill it from peers with
// spare uplink, costing less than 10% extra makespan over a clean run.

constexpr net::StationLink kSwarmCampus{10e6, 10e6, SimTime::millis(15), 0.0};

struct SwarmDrillCluster {
  SwarmDrillCluster(std::size_t n, std::uint64_t seed) : net(seed) {
    StationConfig cfg;
    cfg.swarm.enabled = true;
    cfg.swarm.trees = 2;
    net.reserve_stations(n);
    for (std::size_t i = 0; i < n; ++i) {
      ids.push_back(net.add_station(kSwarmCampus));
      blobs.push_back(std::make_unique<blob::BlobStore>());
      stores.push_back(std::make_unique<ObjectStore>(*blobs.back()));
      nodes.push_back(std::make_unique<StationNode>(net, ids.back(), *stores.back(), cfg));
      nodes.back()->bind();
    }
    auto shared = std::make_shared<const std::vector<StationId>>(ids);
    for (auto& node : nodes) node->set_tree(shared, 2);
  }

  net::SimNetwork net;
  std::vector<StationId> ids;
  std::vector<std::unique_ptr<blob::BlobStore>> blobs;
  std::vector<std::unique_ptr<ObjectStore>> stores;
  std::vector<std::unique_ptr<StationNode>> nodes;
};

struct SwarmDrillResult {
  double makespan = 0;  // max last_delivery over online stations
  std::string journal;
  std::uint64_t served = 0;      // swarm chunks served to pull requests
  std::uint64_t duplicates = 0;  // duplicate chunk receives
  bool all_online_materialized = true;
};

SwarmDrillResult run_swarm_drill(std::uint64_t seed, bool crash_interior) {
  SwarmDrillCluster c(63, seed);
  DocManifest doc;
  doc.doc_key = "http://mmu.edu/CS503/swarm-fault-drill";
  doc.structure_bytes = 5000;
  doc.home = c.ids[0];
  BlobRef video;
  video.digest = digest128("swarm fault drill video");
  video.size = 10 << 20;
  video.type = blob::MediaType::video;
  doc.blobs.push_back(video);
  c.stores[0]->put_instance(doc, /*ephemeral=*/false).expect("instructor copy");

  if (crash_interior) {
    // Station index 8 holds tree position 9 — interior in stripe tree 0
    // with a multi-station subtree below it. It dies two seconds into the
    // push (roughly a quarter of the stripe delivered) and never returns.
    net::FaultPlan plan;
    plan.crashes.push_back({c.ids[8], SimTime::seconds(2), SimTime::zero()});
    c.net.inject(plan).expect("inject");
  }

  EXPECT_TRUE(c.nodes[0]->broadcast_push(doc).is_ok());
  c.net.run();

  SwarmDrillResult out;
  std::ostringstream journal;
  for (std::size_t i = 0; i < c.nodes.size(); ++i) {
    const NodeStats& st = c.nodes[i]->stats();
    out.served += st.swarm_chunks_served;
    out.duplicates += st.chunk_duplicate_rx;
    if (!c.nodes[i]->online()) continue;
    if (!c.stores[i]->has_materialized(doc.doc_key)) {
      out.all_online_materialized = false;
    }
    out.makespan = std::max(out.makespan, c.nodes[i]->last_delivery().as_seconds());
    journal << "station=" << i << " recv=" << st.chunks_received
            << " sent=" << st.chunks_sent << " dup=" << st.chunk_duplicate_rx
            << " served=" << st.swarm_chunks_served
            << " reqs=" << st.swarm_reqs_sent
            << " t=" << c.nodes[i]->last_delivery().as_micros() << "\n";
  }
  journal << "end=" << c.net.now().as_micros() << "\n";
  out.journal = journal.str();
  return out;
}

TEST(SwarmFaultDrill, InteriorCrashCostsUnderTenPercentExtraMakespan) {
  SwarmDrillResult clean = run_swarm_drill(/*seed=*/31415, /*crash_interior=*/false);
  SwarmDrillResult crashed = run_swarm_drill(/*seed=*/31415, /*crash_interior=*/true);

  ASSERT_TRUE(clean.all_online_materialized);
  ASSERT_TRUE(crashed.all_online_materialized)
      << "orphaned subtree failed to refill via pulls";
  // A clean run never needs the pull path; the crashed run must have used
  // it (the orphaned stripe subtree refills from gossip peers).
  EXPECT_EQ(clean.served, 0u);
  EXPECT_GT(crashed.served, 0u);
  EXPECT_LE(crashed.makespan, clean.makespan * 1.10)
      << "crash makespan " << crashed.makespan << "s vs clean "
      << clean.makespan << "s";
}

TEST(SwarmFaultDrill, CrashRunsWithTheSameSeedAreByteIdentical) {
  SwarmDrillResult a = run_swarm_drill(/*seed=*/2718, /*crash_interior=*/true);
  SwarmDrillResult b = run_swarm_drill(/*seed=*/2718, /*crash_interior=*/true);
  EXPECT_FALSE(a.journal.empty());
  EXPECT_EQ(a.journal, b.journal);
}

}  // namespace
}  // namespace wdoc::dist
