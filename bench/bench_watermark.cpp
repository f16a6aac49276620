// E5 — watermark_replication: "when a document instance is retrieved from a
// remote station more than a watermark frequency, physical multimedia data
// are copied to the remote station" (claim C4).
//
// Stations replay a Zipfian read trace over 20 documents homed at the
// instructor station. The watermark w sweeps {1,2,4,8,16,inf}; metrics are
// mean retrieval latency, WAN bytes, and replicas created. Paper shape:
// lower watermarks replicate hot documents sooner, cutting latency and WAN
// traffic at the cost of more local disk.
#include <cstdio>

#include "common/stats.hpp"
#include "sim_cluster.hpp"
#include "workload/patterns.hpp"

using namespace wdoc;
using namespace wdoc::bench;

int main() {
  std::printf("=== E5: watermark-frequency replication ===\n");
  std::printf("8 stations, 20 documents (2 MB each) homed at station 1,\n"
              "600 Zipf(1.0) reads from stations 2..8\n\n");
  std::printf("%12s %13s %10s %10s %10s %10s %16s\n", "watermark", "mean lat(s)",
              "p50(s)", "p99(s)", "WAN(GB)", "replicas", "disk/station(MB)");

  const std::size_t kStations = 8;
  const std::size_t kDocs = 20;
  const std::size_t kReads = 600;

  auto trace = workload::zipf_access_trace(kStations - 1, kDocs, kReads, 1.0, 99);

  for (std::uint64_t watermark : {1ull, 2ull, 4ull, 8ull, 16ull,
                                  1000000ull /* = never */}) {
    dist::StationConfig config;
    config.watermark = watermark;
    SimCluster cluster(kStations, 3, kCampusLink, config, /*seed=*/5);

    // Seed documents at the instructor (root) station.
    std::vector<dist::DocManifest> docs;
    for (std::size_t d = 0; d < kDocs; ++d) {
      auto doc = make_lecture("http://mmu.edu/doc" + std::to_string(d), 2 << 20,
                              cluster.id(0));
      cluster.store(0).put_instance(doc, false).expect("seed");
      docs.push_back(doc);
    }

    Summary latency;
    Percentiles percentiles;
    for (const auto& op : trace) {
      std::size_t station = 1 + op.station_index;  // skip the instructor
      SimTime start = cluster.net().now();
      cluster.node(station)
          .fetch(docs[op.doc_index].doc_key,
                 [&](Result<dist::DocManifest> r, SimTime at) {
                   if (r.is_ok()) {
                     latency.add((at - start).as_seconds());
                     percentiles.add((at - start).as_seconds());
                   }
                 })
          .expect("fetch");
      cluster.net().run();  // serialize reads: think "one student at a time"
    }

    std::uint64_t replicas = 0;
    std::uint64_t disk = 0;
    for (std::size_t i = 1; i < kStations; ++i) {
      replicas += cluster.node(i).stats().replications;
      disk += cluster.store(i).disk_bytes();
    }
    std::printf("%12s %13.3f %10.3f %10.3f %10.2f %10llu %16.1f\n",
                watermark >= 1000000 ? "never" : std::to_string(watermark).c_str(),
                latency.mean(), percentiles.p50(), percentiles.p99(),
                static_cast<double>(cluster.net().total_bytes_on_wire()) / 1e9,
                static_cast<unsigned long long>(replicas),
                static_cast<double>(disk) / (kStations - 1) / 1e6);
  }

  std::printf("\nshape check: latency and WAN bytes fall monotonically as the\n"
              "watermark drops; replica count and per-station disk rise.\n");

  // --- ablation: relay caching at intermediate stations -------------------
  // The paper's choice: "if a workstation (and its child workstations) does
  // not review a lecture, it is not necessary to duplicate the lecture" —
  // i.e. relays do NOT keep copies. The ablation flips that.
  std::printf("\nE5b ablation: should pull relays cache what they forward?\n");
  std::printf("%-18s %16s %12s %18s\n", "relay policy", "mean latency(s)",
              "WAN(GB)", "disk all stations(MB)");
  for (bool relay_cache : {false, true}) {
    dist::StationConfig config;
    config.watermark = 4;
    config.relay_cache = relay_cache;
    SimCluster cluster(kStations, 3, kCampusLink, config, /*seed=*/5);
    std::vector<dist::DocManifest> docs;
    for (std::size_t d = 0; d < kDocs; ++d) {
      auto doc = make_lecture("http://mmu.edu/doc" + std::to_string(d), 2 << 20,
                              cluster.id(0));
      cluster.store(0).put_instance(doc, false).expect("seed");
      docs.push_back(doc);
    }
    double total_latency = 0;
    std::size_t completed = 0;
    for (const auto& op : trace) {
      std::size_t station = 1 + op.station_index;
      SimTime start = cluster.net().now();
      cluster.node(station)
          .fetch(docs[op.doc_index].doc_key,
                 [&](Result<dist::DocManifest> r, SimTime at) {
                   if (r.is_ok()) {
                     total_latency += (at - start).as_seconds();
                     ++completed;
                   }
                 })
          .expect("fetch");
      cluster.net().run();
    }
    std::uint64_t disk = 0;
    for (std::size_t i = 1; i < kStations; ++i) disk += cluster.store(i).disk_bytes();
    std::printf("%-18s %16.3f %12.2f %18.1f\n",
                relay_cache ? "cache-at-relays" : "paper (no cache)",
                total_latency / static_cast<double>(completed),
                static_cast<double>(cluster.net().total_bytes_on_wire()) / 1e9,
                static_cast<double>(disk) / 1e6);
  }
  std::printf("\nE5b shape: relay caching trades extra disk at inner-tree\n"
              "stations for shorter pull chains (lower latency and WAN bytes);\n"
              "the paper's no-cache choice conserves disk, consistent with its\n"
              "'buffer spaces are used only' goal.\n");
  return 0;
}
