// AdminNode: the class administrator as a protocol actor on the fabric —
// the middle tier of the paper's three-tier architecture, made concrete.
//
// Stations send a join request; the administrator appends them to the
// broadcast vector in arrival order (the paper's "N networked stations join
// the database system in a linear order"), replies with their 1-based
// position, and pushes the updated vector + fan-out m to every member so
// each StationNode can re-derive its tree neighbours.
//
// Wire protocol:
//   admin.join_req   station -> admin   {}
//   admin.join_rsp   admin -> station   {position}
//   admin.vector     admin -> member    {m, vector of station ids}
#pragma once

#include <functional>

#include "dist/coordinator.hpp"
#include "net/fabric.hpp"
#include "net/rpc.hpp"

namespace wdoc::dist {

class AdminNode {
 public:
  // Result<Snapshot> carries scrape failures (timeout when the whole tree is
  // unreachable).
  using SnapshotCallback = net::Rpc<obs::Snapshot>;

  AdminNode(net::Fabric& fabric, StationId self, Coordinator& coordinator,
            std::uint64_t m = 2);

  void bind();
  [[nodiscard]] StationId id() const { return self_; }

  // Changes the announced fan-out and re-broadcasts the vector.
  [[nodiscard]] Status set_m(std::uint64_t m);

  // Re-sends the current vector to every member (e.g. after adapt()).
  [[nodiscard]] Status announce_vector();

  // Cluster-wide metrics scrape: sends obs.metrics_req to the broadcast
  // tree's root; the request fans down the m-ary tree and the per-station
  // snapshots merge on the way back up (hierarchical aggregation along the
  // same placement equations the lecture push uses). `cb` fires here with
  // the single merged snapshot — render it with obs::to_table / to_json.
  [[nodiscard]] Status scrape_cluster(SnapshotCallback cb);
  [[nodiscard]] std::uint64_t scrapes_completed() const { return scrapes_completed_; }

  [[nodiscard]] std::uint64_t joins_served() const { return joins_served_; }

  // Per-request lifecycle counters (retries, timeouts, duplicates).
  [[nodiscard]] net::RpcStats rpc_stats() const { return rpc_.stats(); }

  static constexpr const char* kJoinReq = "admin.join_req";
  static constexpr const char* kJoinRsp = "admin.join_rsp";
  static constexpr const char* kVector = "admin.vector";

 private:
  [[nodiscard]] Status send_scrape_req(std::uint64_t req_id);
  void on_message(const net::Message& msg);
  void on_scrape_rsp(const net::Message& msg);
  [[nodiscard]] Status send_vector_to(StationId to) const;

  net::Fabric* fabric_;
  StationId self_;
  Coordinator* coordinator_;
  std::uint64_t m_;
  net::RpcTracker rpc_;
  std::uint64_t joins_served_ = 0;
  std::uint64_t scrapes_completed_ = 0;
  std::uint64_t next_scrape_ = 0;
};

// Client side: lets a StationNode join through the administrator instead of
// being configured by hand. On every admin.vector message the node's tree
// is refreshed; `on_joined` fires once with the assigned position.
class AdminClient {
 public:
  AdminClient(net::Fabric& fabric, StationNode& node, StationId admin);

  // Installs a handler that demultiplexes admin.* messages and forwards
  // everything else to the StationNode.
  void bind();

  [[nodiscard]] Status request_join(std::function<void(std::uint64_t position)> on_joined);
  [[nodiscard]] bool joined() const { return joined_; }

 private:
  void on_message(const net::Message& msg);

  net::Fabric* fabric_;
  StationNode* node_;
  StationId admin_;
  bool joined_ = false;
  std::function<void(std::uint64_t)> on_joined_;
};

}  // namespace wdoc::dist
