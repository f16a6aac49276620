// Shared harness for the simulation experiments: a cluster of stations on
// one SimNetwork, each with its own BlobStore/ObjectStore/StationNode,
// wired into the paper's m-ary tree.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "dist/station_node.hpp"
#include "net/sim_network.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_export.hpp"

namespace wdoc::bench {

// Every sim bench accepts --metrics-json=<path> and --trace-json=<path>:
// when present, the global obs registry snapshot is dumped as stable JSON
// on exit (suitable for BENCH_*.json trajectory tracking in CI) and the
// global tracer is enabled and drained into a Chrome trace-event file for
// ui.perfetto.dev. Construct one at the top of main(); the flags are
// stripped from argv so downstream parsers (e.g. google-benchmark) never
// see them. While alive, an unhandled exception (e.g. a failed expect())
// dumps the flight recorder to stderr before aborting.
class MetricsDump {
 public:
  MetricsDump(int& argc, char** argv)
      : path_(obs::metrics_json_arg(argc, argv)),
        trace_path_(obs::trace_json_arg(argc, argv)),
        previous_terminate_(std::set_terminate(&MetricsDump::on_terminate)) {}
  ~MetricsDump() {
    std::set_terminate(previous_terminate_);
    if (!trace_path_.empty()) {
      if (obs::write_trace_file(trace_path_)) {
        std::fprintf(stderr, "trace written to %s\n", trace_path_.c_str());
      } else {
        std::fprintf(stderr, "warning: could not write trace to %s\n",
                     trace_path_.c_str());
      }
    }
    if (path_.empty()) return;
    if (obs::write_json_file(path_)) {
      std::fprintf(stderr, "metrics snapshot written to %s\n", path_.c_str());
    } else {
      std::fprintf(stderr, "warning: could not write metrics snapshot to %s\n",
                   path_.c_str());
    }
  }
  MetricsDump(const MetricsDump&) = delete;
  MetricsDump& operator=(const MetricsDump&) = delete;

 private:
  static void on_terminate() {
    obs::FlightRecorder::global().dump_to_stderr(
        "bench aborted — flight recorder");
    std::abort();
  }

  std::string path_;
  std::string trace_path_;
  std::terminate_handler previous_terminate_;
};

class SimCluster {
 public:
  SimCluster(std::size_t n, std::uint64_t m, const net::StationLink& link,
             dist::StationConfig config = {}, std::uint64_t seed = 42)
      : net_(seed) {
    net_.reserve_stations(n);
    ids_.reserve(n);
    blobs_.reserve(n);
    stores_.reserve(n);
    nodes_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      StationId id = net_.add_station(link);
      ids_.push_back(id);
      blobs_.push_back(std::make_unique<blob::BlobStore>());
      stores_.push_back(std::make_unique<dist::ObjectStore>(*blobs_.back()));
      nodes_.push_back(
          std::make_unique<dist::StationNode>(net_, id, *stores_.back(), config));
      nodes_.back()->bind();
    }
    set_m(m);
  }

  void set_m(std::uint64_t m) {
    // One broadcast vector shared by every node — mandatory at N=10,000.
    auto shared = std::make_shared<const std::vector<StationId>>(ids_);
    for (auto& node : nodes_) node->set_tree(shared, m);
  }

  [[nodiscard]] dist::StationNode& node(std::size_t i) { return *nodes_[i]; }
  [[nodiscard]] dist::ObjectStore& store(std::size_t i) { return *stores_[i]; }
  [[nodiscard]] blob::BlobStore& blobs(std::size_t i) { return *blobs_[i]; }
  [[nodiscard]] net::SimNetwork& net() { return net_; }
  [[nodiscard]] StationId id(std::size_t i) const { return ids_[i]; }
  [[nodiscard]] std::size_t size() const { return ids_.size(); }

  [[nodiscard]] std::size_t count_materialized(const std::string& doc_key) const {
    std::size_t n = 0;
    for (const auto& store : stores_) {
      if (store->has_materialized(doc_key)) ++n;
    }
    return n;
  }

 private:
  net::SimNetwork net_;
  std::vector<StationId> ids_;
  std::vector<std::unique_ptr<blob::BlobStore>> blobs_;
  std::vector<std::unique_ptr<dist::ObjectStore>> stores_;
  std::vector<std::unique_ptr<dist::StationNode>> nodes_;
};

// A lecture document of the given BLOB payload.
[[nodiscard]] inline dist::DocManifest make_lecture(const std::string& key,
                                                    std::uint64_t blob_bytes,
                                                    StationId home,
                                                    std::size_t blob_count = 1) {
  dist::DocManifest m;
  m.doc_key = key;
  m.structure_bytes = 64 << 10;
  m.home = home;
  for (std::size_t i = 0; i < blob_count; ++i) {
    dist::BlobRef ref;
    ref.digest = digest128(key + "-blob-" + std::to_string(i));
    ref.size = blob_bytes / blob_count;
    ref.type = blob::MediaType::video;
    ref.playout_ms = static_cast<std::int64_t>(i) * 120000;
    m.blobs.push_back(ref);
  }
  return m;
}

inline constexpr net::StationLink kCampusLink{10e6, 10e6, SimTime::millis(15), 0.0};

}  // namespace wdoc::bench
