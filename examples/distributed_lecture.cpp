// Distributed lecture demonstration over the network simulator.
//
// 39 student stations join the class administrator in linear order; the
// coordinator adapts the tree fan-out m to the measured bandwidth; the
// instructor pre-broadcasts a 10 MB lecture down the m-ary tree; the run is
// compared against a naive star broadcast (everything through the
// instructor's uplink). Afterwards a latecomer pulls the lecture up the
// parent chain, and end-of-lecture migration reclaims every student's
// buffer space — the paper's §4 mechanisms in one sitting.
//
// Build & run:  ./build/examples/distributed_lecture
//               [--metrics-json=<path>] [--trace-json=<path>]
#include <cstdio>
#include <memory>
#include <string>

#include "dist/coordinator.hpp"
#include "net/fault.hpp"
#include "net/sim_network.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_export.hpp"

using namespace wdoc;

namespace {

struct Station {
  StationId id;
  std::unique_ptr<blob::BlobStore> blobs;
  std::unique_ptr<dist::ObjectStore> store;
  std::unique_ptr<dist::StationNode> node;
};

dist::DocManifest lecture() {
  dist::DocManifest m;
  m.doc_key = "http://mmu.edu/CS102/lecture5";
  m.structure_bytes = 64 << 10;
  dist::BlobRef video;
  video.digest = digest128("lecture 5 video");
  video.size = 10 << 20;
  video.type = blob::MediaType::video;
  m.blobs.push_back(video);
  return m;
}

// Time until every station holds the lecture.
SimTime broadcast_and_measure(net::SimNetwork& net, std::vector<Station>& stations,
                              std::uint64_t m) {
  std::vector<StationId> vec;
  for (auto& s : stations) vec.push_back(s.id);
  for (auto& s : stations) s.node->set_tree(vec, m);
  auto doc = lecture();
  doc.home = stations[0].id;
  stations[0].node->broadcast_push(doc).expect("push");
  net.run();
  SimTime done = net.now();
  // Reset for the next strategy: drop every copy except the instructor's.
  for (std::size_t i = 1; i < stations.size(); ++i) {
    (void)stations[i].node->end_lecture();
    (void)stations[i].store->remove(doc.doc_key);
  }
  return done;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string metrics_path = obs::metrics_json_arg(argc, argv);
  const std::string trace_path = obs::trace_json_arg(argc, argv);
  net::SimNetwork net(1999);
  net::StationLink campus;
  campus.up_bps = 10e6;   // 10 Mb/s campus uplinks, 1999-style
  campus.down_bps = 10e6;
  campus.latency = SimTime::millis(15);

  std::vector<Station> stations;
  dist::Coordinator coordinator;
  for (int i = 0; i < 40; ++i) {
    Station s;
    s.id = net.add_station(campus);
    s.blobs = std::make_unique<blob::BlobStore>();
    s.store = std::make_unique<dist::ObjectStore>(*s.blobs);
    s.node = std::make_unique<dist::StationNode>(net, s.id, *s.store);
    s.node->bind();
    coordinator.register_station(s.id);
    stations.push_back(std::move(s));
  }
  std::printf("%zu stations registered with the class administrator\n",
              stations.size());

  // Adaptive fan-out: the administrator "maintains the sizes of m's, based
  // on the number of workstations and the physical network bandwidth".
  coordinator.adapt(campus.up_bps, 0.03);
  std::uint64_t m = coordinator.m_for(blob::MediaType::video);
  std::printf("adaptive m for video lectures: %llu (tree depth %llu)\n",
              static_cast<unsigned long long>(m),
              static_cast<unsigned long long>(dist::tree_depth(stations.size(), m)));

  // Pre-broadcast through the adaptive m-ary tree vs a star (m = N-1).
  SimTime t0 = net.now();
  SimTime tree_done = broadcast_and_measure(net, stations, m);
  SimTime tree_cost = tree_done - t0;
  std::uint64_t tree_root_bytes = net.stats(stations[0].id).bytes_sent;

  SimTime t1 = net.now();
  SimTime star_done = broadcast_and_measure(net, stations, stations.size() - 1);
  SimTime star_cost = star_done - t1;
  std::uint64_t star_root_bytes =
      net.stats(stations[0].id).bytes_sent - tree_root_bytes;

  std::printf("pre-broadcast of a 10 MB lecture to 39 students:\n");
  std::printf("  m-ary tree (m=%llu): %s, instructor uplink carried %.1f MB\n",
              static_cast<unsigned long long>(m), tree_cost.to_string().c_str(),
              static_cast<double>(tree_root_bytes) / 1e6);
  std::printf("  star broadcast     : %s, instructor uplink carried %.1f MB\n",
              star_cost.to_string().c_str(),
              static_cast<double>(star_root_bytes) / 1e6);

  // Re-broadcast through the tree so everyone holds the lecture again.
  std::vector<StationId> vec;
  for (auto& s : stations) vec.push_back(s.id);
  for (auto& s : stations) s.node->set_tree(vec, m);
  auto doc = lecture();
  doc.home = stations[0].id;
  stations[0].node->broadcast_push(doc).expect("push");
  net.run();

  // A latecomer (fresh station) joins and pulls the lecture up its chain.
  Station late;
  late.id = net.add_station(campus);
  late.blobs = std::make_unique<blob::BlobStore>();
  late.store = std::make_unique<dist::ObjectStore>(*late.blobs);
  late.node = std::make_unique<dist::StationNode>(net, late.id, *late.store);
  late.node->bind();
  coordinator.register_station(late.id);
  vec.push_back(late.id);
  for (auto& s : stations) s.node->set_tree(vec, m);
  late.node->set_tree(vec, m);

  SimTime fetch_start = net.now();
  SimTime fetch_done;
  late.node
      ->fetch(doc.doc_key,
              [&](Result<dist::DocManifest> r, SimTime at) {
                std::move(r).expect("latecomer fetch");
                fetch_done = at;
              })
      .expect("fetch");
  net.run();
  std::printf("latecomer pulled the lecture from its parent chain in %s\n",
              (fetch_done - fetch_start).to_string().c_str());

  // End of lecture: duplicated instances migrate back to references.
  std::uint64_t before = 0, after = 0;
  for (std::size_t i = 1; i < stations.size(); ++i) {
    before += stations[i].store->disk_bytes();
  }
  for (std::size_t i = 1; i < stations.size(); ++i) {
    (void)stations[i].node->end_lecture();
    after += stations[i].store->disk_bytes();
  }
  std::printf("end-of-lecture migration: student disk %0.1f MB -> %0.1f MB "
              "(instructor keeps the persistent instance)\n",
              static_cast<double>(before) / 1e6, static_cast<double>(after) / 1e6);

  // Fault drill: crash the interior station at tree position 2 and watch
  // one of its children ride the rpc lifecycle — attempt-timeouts drive the
  // failure detector past its threshold, the dead parent is skipped, and
  // the pull reroutes to the grandparent (the root, ⌊(k−i−1)/m⌋+1 twice).
  {
    net::FaultPlan plan;
    plan.crashes.push_back({stations[1].id, net.now() + SimTime::millis(1),
                            SimTime::zero() /* never restarts */});
    net.inject(plan).expect("inject");
    net.run();

    Station& orphan = stations[m + 1];  // first child of tree position 2
    SimTime drill_start = net.now();
    SimTime drill_done;
    orphan.node
        ->fetch(doc.doc_key,
                [&](Result<dist::DocManifest> r, SimTime at) {
                  std::move(r).expect("failover fetch");
                  drill_done = at;
                })
        .expect("fetch");
    net.run();
    const net::RpcStats rpc = orphan.node->rpc_stats();
    std::printf(
        "fault drill: station %llu crashed mid-semester; its child spent "
        "%llu attempt-timeouts (%llu retries), declared it dead after %u, "
        "and pulled the lecture around it in %s (failovers=%llu)\n",
        static_cast<unsigned long long>(stations[1].id.value()),
        static_cast<unsigned long long>(rpc.attempt_timeouts),
        static_cast<unsigned long long>(rpc.retries),
        dist::kFailoverThreshold,
        (drill_done - drill_start).to_string().c_str(),
        static_cast<unsigned long long>(orphan.node->stats().failovers));
  }

  std::printf("\nmetrics (wdoc_obs process-wide registry):\n");
  std::fputs(obs::to_table(obs::MetricsRegistry::global().snapshot()).c_str(),
             stdout);
  if (!trace_path.empty() && obs::write_trace_file(trace_path)) {
    std::printf("trace written to %s — load it at ui.perfetto.dev\n",
                trace_path.c_str());
  }
  if (!metrics_path.empty() && obs::write_json_file(metrics_path)) {
    std::printf("metrics snapshot written to %s\n", metrics_path.c_str());
  }
  return 0;
}
