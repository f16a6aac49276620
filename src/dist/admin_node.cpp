#include "dist/admin_node.hpp"

#include <span>

#include "common/log.hpp"

namespace wdoc::dist {

namespace {

Bytes encode_vector(std::uint64_t m, const std::vector<StationId>& vec) {
  Writer w;
  w.u64(m);
  w.u32(static_cast<std::uint32_t>(vec.size()));
  for (StationId s : vec) w.u64(s.value());
  return w.take();
}

Result<std::pair<std::uint64_t, std::vector<StationId>>> decode_vector(
    std::span<const std::uint8_t> b) {
  Reader r(b);
  auto m = r.u64();
  if (!m) return m.error();
  auto n = r.count(8);
  if (!n) return n.error();
  std::vector<StationId> vec;
  vec.reserve(n.value());
  for (std::uint32_t i = 0; i < n.value(); ++i) {
    auto s = r.u64();
    if (!s) return s.error();
    vec.push_back(StationId{s.value()});
  }
  return std::make_pair(m.value(), std::move(vec));
}

}  // namespace

AdminNode::AdminNode(net::Fabric& fabric, StationId self, Coordinator& coordinator,
                     std::uint64_t m)
    : fabric_(&fabric),
      self_(self),
      coordinator_(&coordinator),
      m_(m),
      rpc_(fabric, self) {}

void AdminNode::bind() {
  fabric_->set_handler(self_, [this](const net::Message& msg) { on_message(msg); });
}

Status AdminNode::set_m(std::uint64_t m) {
  if (m < 1) return {Errc::invalid_argument, "m must be >= 1"};
  m_ = m;
  return announce_vector();
}

Status AdminNode::send_vector_to(StationId to) const {
  net::Message msg;
  msg.from = self_;
  msg.to = to;
  msg.type = kVector;
  msg.payload = encode_vector(m_, coordinator_->broadcast_vector());
  return fabric_->send(std::move(msg));
}

Status AdminNode::announce_vector() {
  for (StationId member : coordinator_->broadcast_vector()) {
    WDOC_TRY(send_vector_to(member));
  }
  return Status::ok();
}

Status AdminNode::send_scrape_req(std::uint64_t req_id) {
  // Re-read the root on every attempt: the vector may have changed (or been
  // re-rooted) between retries.
  const auto& vec = coordinator_->broadcast_vector();
  if (vec.empty()) return {Errc::unavailable, "broadcast vector is empty"};
  net::Message msg;
  msg.from = self_;
  msg.to = vec.front();  // tree root: position 1 of the broadcast vector
  msg.type = net::kMetricsRequest;
  Writer w;
  w.u64(req_id);
  msg.payload = w.take();
  return fabric_->send(std::move(msg));
}

Status AdminNode::scrape_cluster(SnapshotCallback cb) {
  const auto& vec = coordinator_->broadcast_vector();
  if (vec.empty()) {
    // Nothing has joined yet: complete immediately with an empty snapshot.
    if (cb) cb(obs::Snapshot{}, fabric_->now());
    ++scrapes_completed_;
    return Status::ok();
  }
  std::uint64_t req_id = (self_.value() << 24) | ++next_scrape_;
  // The root needs to hear from its whole subtree before answering, so the
  // attempt deadline scales with the tree depth (+2: admin hop each way).
  net::RpcOptions opts;
  opts.deadline =
      opts.deadline * static_cast<std::int64_t>(tree_depth(vec.size(), m_) + 2);
  return rpc_.track<obs::Snapshot>(
      req_id, opts,
      [this, cb = std::move(cb)](Result<obs::Snapshot> r, SimTime t) {
        ++scrapes_completed_;
        if (cb) cb(std::move(r), t);
      },
      [this, req_id](std::uint32_t) { return send_scrape_req(req_id); });
}

void AdminNode::on_scrape_rsp(const net::Message& msg) {
  Reader r(msg.payload);
  auto req_id = r.u64();
  if (!req_id) return;
  if (!rpc_.in_flight(req_id.value())) {
    // Response for an already-completed scrape (a retry's extra answer):
    // counted and ignored.
    rpc_.note_duplicate();
    return;
  }
  auto snap = obs::decode_snapshot(r);
  if (!snap) {
    WDOC_ERROR("admin %llu: bad scrape response: %s",
               static_cast<unsigned long long>(self_.value()),
               snap.message().c_str());
    return;
  }
  (void)rpc_.complete<obs::Snapshot>(req_id.value(), std::move(snap).value());
}

void AdminNode::on_message(const net::Message& msg) {
  if (msg.type == net::kMetricsResponse) {
    on_scrape_rsp(msg);
    return;
  }
  if (msg.type != kJoinReq) {
    WDOC_WARN("admin %llu: unexpected message type %s",
              static_cast<unsigned long long>(self_.value()), msg.type.c_str());
    return;
  }
  ++joins_served_;
  coordinator_->register_station(msg.from);
  auto position = coordinator_->position_of(msg.from);
  WDOC_CHECK(position.has_value(), "registered station has no position");

  net::Message rsp;
  rsp.from = self_;
  rsp.to = msg.from;
  rsp.type = kJoinRsp;
  Writer w;
  w.u64(*position);
  rsp.payload = w.take();
  (void)fabric_->send(std::move(rsp));

  // Every member (including the newcomer) learns the new vector.
  (void)announce_vector();
}

// --- AdminClient -------------------------------------------------------------

AdminClient::AdminClient(net::Fabric& fabric, StationNode& node, StationId admin)
    : fabric_(&fabric), node_(&node), admin_(admin) {}

void AdminClient::bind() {
  fabric_->set_handler(node_->id(),
                       [this](const net::Message& msg) { on_message(msg); });
}

Status AdminClient::request_join(std::function<void(std::uint64_t)> on_joined) {
  on_joined_ = std::move(on_joined);
  net::Message msg;
  msg.from = node_->id();
  msg.to = admin_;
  msg.type = AdminNode::kJoinReq;
  return fabric_->send(std::move(msg));
}

void AdminClient::on_message(const net::Message& msg) {
  if (msg.type == AdminNode::kJoinRsp) {
    Reader r(msg.payload);
    auto position = r.u64();
    if (!position) return;
    joined_ = true;
    if (on_joined_) {
      auto cb = std::move(on_joined_);
      on_joined_ = nullptr;
      cb(position.value());
    }
    return;
  }
  if (msg.type == AdminNode::kVector) {
    auto decoded = decode_vector(msg.payload);
    if (!decoded) {
      WDOC_ERROR("bad admin.vector payload: %s", decoded.message().c_str());
      return;
    }
    node_->set_tree(std::move(decoded.value().second), decoded.value().first);
    return;
  }
  // Everything else belongs to the distribution protocol.
  node_->handle(msg);
}

}  // namespace wdoc::dist
