// Lecture distribution on the simulated campus fabric: claim C1, a
// BLOB-heavy lecture pre-broadcast down the m-ary tree before class, at
// N=1023 stations (m=2, depth 9) on 10 Mb/s, 15 ms links.
//
//   lecture_preload  150 MB (15 x 10 MB BLOBs) through the chunked pipelined
//                    tree with swarm off: the event engine and the chunk
//                    relay path.
//   lecture_swarm    10 MB over two stripe trees, pushed on two fresh
//                    clusters: clean, and with station index 8 (interior,
//                    a subtree of about 127 stations) crashing at 2 s for
//                    good. Gossip and rarest-first pull, which the preload
//                    never runs.
//
// The operation is one station receiving the lecture: its latency is the
// simulated time at which the station materialized it, and ops_per_s
// counts chunks verified at stations per simulated second of the pushes.
// These are what a campus user sees, and they are exact for a seed. The
// simulator's wall-clock cost is per-layer (lecture.wall_s, reported by
// untraced runs too): on a shared host the speed of this memory-bound
// single thread drifts by up to half between minutes (27k to 43k chunks
// per wall second over four minutes on the swarm), wider than any bound.
#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <memory>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "dist/station_node.hpp"
#include "net/payload.hpp"
#include "net/sim_network.hpp"
#include "suite.hpp"

namespace wdoc::suite {
namespace {

constexpr std::size_t kStations = 1023;
constexpr std::uint64_t kFanout = 2;
constexpr std::size_t kCrashIndex = 8;
constexpr double kLinkBps = 10e6;
// E3b's preload makespan at N=1023; the preload must land within 0.1 s.
constexpr double kPreloadMakespanS = 264.3;

struct Cluster {
  Cluster(std::size_t n, const dist::StationConfig& cfg, std::uint64_t seed) : net(seed) {
    // Each station's one-way latency is 15 ms +- 0.5 ms drawn from the
    // seed: campus links differ a little, and different seeds give
    // different (but individually reproducible) schedules.
    Rng rng(seed);
    net.reserve_stations(n);
    for (std::size_t i = 0; i < n; ++i) {
      const net::StationLink link{kLinkBps, kLinkBps,
                                  SimTime::micros(15'000 + rng.uniform_range(-50, 50)),
                                  0.0};
      ids.push_back(net.add_station(link));
      blobs.push_back(std::make_unique<blob::BlobStore>());
      stores.push_back(std::make_unique<dist::ObjectStore>(*blobs.back()));
      nodes.push_back(
          std::make_unique<dist::StationNode>(net, ids.back(), *stores.back(), cfg));
      nodes.back()->bind();
    }
    auto shared = std::make_shared<const std::vector<StationId>>(ids);
    for (auto& node : nodes) node->set_tree(shared, kFanout);
  }

  net::SimNetwork net;
  std::vector<StationId> ids;
  std::vector<std::unique_ptr<blob::BlobStore>> blobs;
  std::vector<std::unique_ptr<dist::ObjectStore>> stores;
  std::vector<std::unique_ptr<dist::StationNode>> nodes;
};

dist::DocManifest make_lecture(std::uint64_t bytes, std::size_t blob_count, StationId home) {
  dist::DocManifest m;
  m.doc_key = "http://mmu.edu/lecture";
  m.structure_bytes = 64 << 10;
  m.home = home;
  for (std::size_t i = 0; i < blob_count; ++i) {
    dist::BlobRef ref;
    ref.digest = digest128(m.doc_key + "-blob-" + std::to_string(i));
    ref.size = bytes / blob_count;
    ref.type = blob::MediaType::video;
    ref.playout_ms = static_cast<std::int64_t>(i) * 120'000;
    m.blobs.push_back(ref);
  }
  return m;
}

// Handler time per message type, from a benchmark-installed fabric handler
// wrapping the public StationNode::handle. Types the workloads do not send
// are counted under "other".
constexpr const char* kHandledTypes[] = {net::kChunkBegin, net::kChunkData, net::kChunkAck,
                                         net::kSwarmBegin, net::kSwarmHave, net::kSwarmReq};
constexpr const char* kHandlerNames[] = {"chunk_begin", "chunk_data", "chunk_ack", "swarm_begin",
                                         "swarm_have",  "swarm_req",  "other"};
constexpr std::size_t kHandlers = std::size(kHandlerNames);

struct HandlerTimes {
  std::array<double, kHandlers> seconds{};
  std::array<double, kHandlers> count{};
};

std::size_t handler_index(const std::string& type) {
  std::size_t i = 0;
  while (i < std::size(kHandledTypes) && type != kHandledTypes[i]) ++i;
  return i;
}

void time_handlers(Cluster& c, HandlerTimes& h) {
  for (std::size_t i = 0; i < c.nodes.size(); ++i) {
    dist::StationNode* node = c.nodes[i].get();
    c.net.set_handler(c.ids[i], [node, &h](const net::Message& m) {
      const std::int64_t t0 = now_ns();
      node->handle(m);
      const std::int64_t t1 = now_ns();
      const std::size_t k = handler_index(m.type);
      h.seconds[k] += static_cast<double>(t1 - t0) * 1e-9;
      h.count[k] += 1;
    });
  }
}

struct PushOutcome {
  std::int64_t start_ns = 0;
  double wall_s = 0;  // broadcast_push + SimNetwork::run
  std::vector<double> delivery_us;  // receivers that materialized the lecture
  double makespan_s = 0;
  std::uint64_t receivers = 0;  // online stations other than the root
  std::uint64_t missing = 0;    // of those, without the lecture
  std::uint64_t chunks = 0;     // chunks verified at stations
  std::uint64_t events = 0;     // SimNetwork::run's return value
  std::uint64_t wire_bytes = 0;
  // Per-layer counters summed over stations, keyed by metric name.
  std::map<std::string, double> counts;
};

PushOutcome push(Cluster& c, const dist::DocManifest& doc, bool crash, HandlerTimes* h) {
  if (crash) {
    net::FaultPlan plan;
    plan.crashes.push_back({c.ids[kCrashIndex], SimTime::seconds(2), SimTime::zero()});
    c.net.inject(plan).expect("inject crash");
  }
  if (h != nullptr) time_handlers(c, *h);

  PushOutcome out;
  out.start_ns = now_ns();
  c.nodes[0]->broadcast_push(doc).expect("broadcast_push");
  out.events = c.net.run();
  out.wall_s = static_cast<double>(now_ns() - out.start_ns) * 1e-9;
  out.wire_bytes = c.net.total_bytes_on_wire();

  for (std::size_t i = 0; i < c.nodes.size(); ++i) {
    const dist::StationNode& node = *c.nodes[i];
    const dist::NodeStats& st = node.stats();
    const net::RpcStats rpc = node.rpc_stats();
    out.chunks += st.chunks_received;
    auto& n = out.counts;
    n["dist.chunk.retransmits"] += static_cast<double>(st.chunk_retransmits);
    n["dist.chunk.duplicate_rx"] += static_cast<double>(st.chunk_duplicate_rx);
    n["dist.chunk.wasted_bytes"] += static_cast<double>(st.chunk_wasted_bytes);
    n["swarm.haves"] += static_cast<double>(st.swarm_haves_sent);
    n["swarm.reqs"] += static_cast<double>(st.swarm_reqs_sent);
    n["swarm.served"] += static_cast<double>(st.swarm_chunks_served);
    n["rpc.retries"] += static_cast<double>(rpc.retries);
    n["rpc.attempt_timeouts"] += static_cast<double>(rpc.attempt_timeouts);
    if (i == 0 || !node.online()) continue;
    ++out.receivers;
    if (!c.stores[i]->has_materialized(doc.doc_key)) {
      ++out.missing;
      continue;
    }
    const SimTime at = node.last_delivery();
    out.delivery_us.push_back(static_cast<double>(at.as_micros()));
    out.makespan_s = std::max(out.makespan_s, at.as_seconds());
  }
  return out;
}

}  // namespace

Report run_lecture(const Options& opt, bool swarm) {
  dist::StationConfig cfg;  // chunked pipelined push
  std::uint64_t lecture_bytes = 150ull << 20;
  std::size_t blob_count = 15;
  if (swarm) {
    cfg.swarm.enabled = true;
    cfg.swarm.trees = 2;
    lecture_bytes = 10ull << 20;
    blob_count = 1;
  }
  // Smaller runs keep a complete tree: 1023 * scale rounded up to 2^k - 1.
  const std::size_t n = std::min(
      kStations,
      std::bit_ceil(static_cast<std::size_t>(std::ceil(kStations * opt.scale)) + 1) - 1);
  const std::vector<bool> scenarios = swarm ? std::vector<bool>{false, true}
                                            : std::vector<bool>{false};

  Report r;
  auto make_cluster = [&] { return std::make_unique<Cluster>(n, cfg, opt.seed); };
  double setup_s = 0;
  std::unique_ptr<Cluster> ready = timed_setup(make_cluster, setup_s);
  r.metrics["setup_s"] = {setup_s, "s"};
  if (opt.setup_only) return r;

  // Repetitions on fresh clusters until the next one would overrun
  // opt.seconds; always at least one.
  const std::uint64_t copied_before = net::Payload::bytes_copied_total();
  HandlerTimes handlers;
  std::vector<PushOutcome> pushes;
  int reps = 0;
  const std::int64_t start = now_ns();
  for (;;) {
    for (bool crash : scenarios) {
      std::unique_ptr<Cluster> c = ready ? std::move(ready) : make_cluster();
      const dist::DocManifest doc = make_lecture(lecture_bytes, blob_count, c->ids[0]);
      pushes.push_back(push(*c, doc, crash, opt.traced() ? &handlers : nullptr));
    }
    ++reps;
    const double elapsed = static_cast<double>(now_ns() - start) * 1e-9;
    if (elapsed * (reps + 1) / reps > opt.seconds) break;
  }
  const std::uint64_t bytes_copied = net::Payload::bytes_copied_total() - copied_before;

  std::vector<double> delivery_us;
  // Per repetition: wall time, and chunks verified per simulated and per
  // wall second.
  std::vector<double> rep_wall_s, sim_rate, wall_rate;
  double wall_s = 0, events = 0, wire = 0, receivers = 0;
  double rep_wall = 0, rep_sim = 0, rep_chunks = 0;
  std::map<std::string, double> counts;
  std::vector<TraceEvent> spans;
  for (std::size_t i = 0; i < pushes.size(); ++i) {
    const PushOutcome& p = pushes[i];
    r.attempted += p.receivers;
    r.failed += p.missing;
    r.check(p.makespan_s == pushes[i % scenarios.size()].makespan_s,
            "makespan differs between repetitions of one scenario");
    delivery_us.insert(delivery_us.end(), p.delivery_us.begin(), p.delivery_us.end());
    wall_s += p.wall_s;
    events += static_cast<double>(p.events);
    wire += static_cast<double>(p.wire_bytes);
    receivers += static_cast<double>(p.receivers);
    rep_wall += p.wall_s;
    rep_sim += p.makespan_s;
    rep_chunks += static_cast<double>(p.chunks);
    if ((i + 1) % scenarios.size() == 0) {
      rep_wall_s.push_back(rep_wall);
      sim_rate.push_back(rep_sim > 0 ? rep_chunks / rep_sim : 0);
      wall_rate.push_back(rep_chunks / rep_wall);
      rep_wall = rep_sim = rep_chunks = 0;
    }
    for (const auto& [name, v] : p.counts) counts[name] += v;
    spans.push_back({scenarios[i % scenarios.size()] ? "push.crash" : "push", p.start_ns,
                     static_cast<std::int64_t>(p.wall_s * 1e9), 1});
  }
  r.check(bytes_copied == 0, "payload bytes were copied on the relay path");
  const double makespan_s = pushes[0].makespan_s;
  if (!swarm && n == kStations) {
    r.check(std::abs(makespan_s - kPreloadMakespanS) <= 0.1,
            "preload makespan " + std::to_string(makespan_s) + " s is not 264.3 +- 0.1 s");
  }

  r.metrics["p50_us"] = {percentile(delivery_us, 0.50), "us"};
  r.metrics["p90_us"] = {percentile(delivery_us, 0.90), "us"};
  r.metrics["ops_per_s"] = {median(std::move(sim_rate)), "1/s"};
  r.metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  r.layers["lecture.wall_s"] = {median(std::move(rep_wall_s)), "s"};
  if (!opt.traced()) return r;

  // Per-layer values are per repetition (one push, or clean + crash).
  const double per_rep = 1.0 / reps;
  for (const auto& [name, v] : counts) {
    r.layers[name] = {v * per_rep, name.ends_with("bytes") ? "bytes" : "count"};
  }
  double handler_s = 0;
  std::map<std::string, double> aggregates;
  for (std::size_t k = 0; k < kHandlers; ++k) {
    const std::string name = kHandlerNames[k];
    const double s = handlers.seconds[k];
    const double count = handlers.count[k];
    handler_s += s;
    r.layers["dist.handle_s." + name] = {s * per_rep, "s"};
    r.layers["dist.handle_count." + name] = {count * per_rep, "count"};
    aggregates["handle_s." + name] = s;
    aggregates["handle_count." + name] = count;
  }
  const double bound_s = 8.0 * static_cast<double>(lecture_bytes) / kLinkBps;
  r.layers["net.events"] = {events * per_rep, "count"};
  r.layers["net.events_per_s"] = {events / wall_s, "1/s"};
  r.layers["net.other_s"] = {(wall_s - handler_s) * per_rep, "s"};
  r.layers["net.wire_bytes_per_lecture_byte"] = {
      wire / (static_cast<double>(lecture_bytes) * receivers), "ratio"};
  r.layers["net.payload.bytes_copied"] = {static_cast<double>(bytes_copied), "bytes"};
  r.layers["lecture.makespan_s"] = {makespan_s, "s"};
  r.layers["lecture.crash_makespan_s"] = {swarm ? pushes[1].makespan_s : 0.0, "s"};
  r.layers["lecture.chunks_per_wall_s"] = {median(std::move(wall_rate)), "1/s"};
  r.layers["makespan_over_bound"] = {makespan_s / bound_s, "ratio"};
  r.check(write_chrome_trace(opt.trace_dir + "/" + opt.workload + ".trace.json", spans,
                             aggregates),
          "could not write the trace file");
  return r;
}

}  // namespace wdoc::suite
