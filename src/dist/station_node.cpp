#include "dist/station_node.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <type_traits>
#include <utility>

#include "blob/chunk.hpp"
#include "common/hash.hpp"
#include "common/log.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "swarm/gossip.hpp"
#include "swarm/stripe_tree.hpp"

namespace wdoc::dist {

namespace {

constexpr std::size_t kNodeStatCount = std::size(kNodeStatRows);

// kNodeStatRows index of a NodeStats field (kNodeStatCount if absent).
constexpr std::size_t node_stat_index(std::uint64_t NodeStats::*field) {
  for (std::size_t i = 0; i < kNodeStatCount; ++i) {
    if (kNodeStatRows[i].field == field) return i;
  }
  return kNodeStatCount;
}

// Process-wide counter per kNodeStatRows row (null for station-only rows),
// resolved once per process and shared by every StationNode.
const std::array<obs::Counter*, kNodeStatCount>& registry_counters() {
  static const auto counters = [] {
    std::array<obs::Counter*, kNodeStatCount> out{};
    for (std::size_t i = 0; i < kNodeStatCount; ++i) {
      const char* name = kNodeStatRows[i].registry;
      if (name != nullptr) out[i] = &obs::MetricsRegistry::global().counter(name);
    }
    return out;
  }();
  return counters;
}

void cancel(const net::Fabric::TimerHandle& timer) {
  if (timer) timer->store(true);
}

// Packs (blob ordinal, chunk index) into the cursor queues' chunk key.
[[nodiscard]] constexpr std::uint64_t chunk_key(std::uint32_t ordinal, std::uint32_t index) {
  return (static_cast<std::uint64_t>(ordinal) << 32) | index;
}
[[nodiscard]] constexpr std::uint32_t key_ordinal(std::uint64_t key) {
  return static_cast<std::uint32_t>(key >> 32);
}
[[nodiscard]] constexpr std::uint32_t key_index(std::uint64_t key) {
  return static_cast<std::uint32_t>(key & 0xffffffffu);
}

// The relay path a fetch request and its response carry: station ids,
// originator first.
void write_path(Writer& w, const std::vector<StationId>& path) {
  w.u32(static_cast<std::uint32_t>(path.size()));
  for (StationId s : path) w.u64(s.value());
}

Status read_path(Reader& r, std::vector<StationId>& path) {
  auto n = r.count(8);
  if (!n) return n.status();
  path.reserve(n.value());
  for (std::uint32_t i = 0; i < n.value(); ++i) {
    auto s = r.u64();
    if (!s) return s.status();
    path.push_back(StationId{s.value()});
  }
  return Status::ok();
}

// fetch_req payload: req_id, doc_key, path of station ids walked so far.
struct FetchReq {
  std::uint64_t req_id = 0;
  std::string doc_key;
  std::vector<StationId> path;

  [[nodiscard]] Bytes encode() const {
    Writer w;
    w.u64(req_id);
    w.str(doc_key);
    write_path(w, path);
    return w.take();
  }
  [[nodiscard]] static Result<FetchReq> decode(std::span<const std::uint8_t> b) {
    Reader r(b);
    FetchReq out;
    auto id = r.u64();
    if (!id) return id.error();
    out.req_id = id.value();
    auto key = r.str();
    if (!key) return key.error();
    out.doc_key = std::move(key).value();
    WDOC_TRY(read_path(r, out.path));
    return out;
  }
};

// fetch_rsp payload: req_id, manifest, remaining relay path (the next hop
// is path.back()).
struct FetchRsp {
  std::uint64_t req_id = 0;
  DocManifest manifest;
  std::vector<StationId> path;

  [[nodiscard]] Bytes encode() const {
    Writer w;
    w.u64(req_id);
    manifest.serialize(w);
    write_path(w, path);
    return w.take();
  }
  [[nodiscard]] static Result<FetchRsp> decode(std::span<const std::uint8_t> b) {
    Reader r(b);
    FetchRsp out;
    auto id = r.u64();
    if (!id) return id.error();
    out.req_id = id.value();
    auto m = DocManifest::deserialize(r);
    if (!m) return m.error();
    out.manifest = std::move(m).value();
    WDOC_TRY(read_path(r, out.path));
    return out;
  }
};

// fetch_err payload: req_id, doc_key, terminal errc from the serving side.
struct FetchErr {
  std::uint64_t req_id = 0;
  std::string doc_key;
  Errc code = Errc::not_found;

  [[nodiscard]] Bytes encode() const {
    Writer w;
    w.u64(req_id);
    w.str(doc_key);
    w.u32(static_cast<std::uint32_t>(code));
    return w.take();
  }
  [[nodiscard]] static Result<FetchErr> decode(std::span<const std::uint8_t> b) {
    Reader r(b);
    FetchErr out;
    auto id = r.u64();
    auto key = r.str();
    if (!id || !key) return Error{Errc::corrupt, "bad fetch err"};
    out.req_id = id.value();
    out.doc_key = std::move(key).value();
    // Older peers omit the code; default stands.
    auto code = r.u32();
    if (code) out.code = static_cast<Errc>(code.value());
    return out;
  }
};

}  // namespace

template <auto Field>
void StationNode::count(std::uint64_t n) {
  constexpr std::size_t row = node_stat_index(Field);
  static_assert(row < kNodeStatCount, "field missing from kNodeStatRows");
  stats_.*Field += n;
  if constexpr (kNodeStatRows[row].registry != nullptr) registry_counters()[row]->inc(n);
}

Status ChunkConfig::validate() const {
  if (chunk_bytes == 0 || chunk_bytes > blob::kMaxChunkBytes) {
    return {Errc::invalid_argument,
            "chunk_bytes must be in [1, " + std::to_string(blob::kMaxChunkBytes) + "]"};
  }
  if (window == 0) return {Errc::invalid_argument, "chunk window must be >= 1"};
  if (repair_batch == 0) return {Errc::invalid_argument, "repair_batch must be >= 1"};
  return Status::ok();
}

Status StationConfig::validate() const {
  if (watermark == 0) {
    return {Errc::invalid_argument,
            "watermark must be >= 1 (use a large value to disable replication)"};
  }
  WDOC_TRY(rpc.validate());
  WDOC_TRY(chunk.validate());
  WDOC_TRY(swarm.validate());
  if (min_bandwidth_bps <= 0.0) {
    return {Errc::invalid_argument, "min_bandwidth_bps must be > 0"};
  }
  return Status::ok();
}

StationNode::StationNode(net::Fabric& fabric, StationId self, ObjectStore& store,
                         StationConfig config)
    : fabric_(&fabric),
      self_(self),
      store_(&store),
      config_(config),
      rpc_(fabric, self) {
  Status valid = config_.validate();
  WDOC_CHECK(valid.is_ok(), "StationConfig: " + valid.message());
  rpc_.set_timeout_observer([this](std::uint64_t req_id, std::uint32_t) {
    auto it = rpc_target_.find(req_id);
    if (it != rpc_target_.end()) note_attempt_timeout(it->second);
  });
}

StationNode::~StationNode() {
  for (auto& [id, t] : transfers_) cancel_timers(t);
  for (const auto& [id, scrape] : pending_scrapes_) cancel(scrape.timer);
}

void StationNode::bind() {
  fabric_->set_handler(self_, [this](const net::Message& msg) { on_message(msg); });
}

void StationNode::set_tree(std::shared_ptr<const std::vector<StationId>> broadcast_vector,
                           std::uint64_t m) {
  WDOC_CHECK(m >= 1, "set_tree: m must be >= 1");
  WDOC_CHECK(broadcast_vector != nullptr, "set_tree: null broadcast vector");
  broadcast_vector_ = std::move(broadcast_vector);
  m_ = m;
  const auto& order = tree_order();
  // Cluster builders list stations in id order, so this station's slot is
  // its id's distance from the first; scan only when the slot holds another.
  // Building N stations then costs O(N), not N²/2 comparisons.
  std::size_t slot = order.empty() ? 0 : self_.value() - order.front().value();
  if (slot >= order.size() || order[slot] != self_) {
    slot = static_cast<std::size_t>(std::find(order.begin(), order.end(), self_) -
                                    order.begin());
  }
  position_ = slot == order.size() ? 0 : slot + 1;
}

void StationNode::set_tree(std::vector<StationId> broadcast_vector, std::uint64_t m) {
  set_tree(std::make_shared<const std::vector<StationId>>(std::move(broadcast_vector)), m);
}

std::optional<StationId> StationNode::parent_station() const {
  if (position_ <= 1) return std::nullopt;
  std::uint64_t p = parent_position(position_, m_);
  return tree_order()[p - 1];
}

std::optional<StationId> StationNode::live_parent_station() const {
  if (position_ <= 1) return std::nullopt;
  // Walk the ancestor chain, skipping declared-dead stations: the paper's
  // parent equation applied repeatedly (grandparent_position and beyond).
  for (std::uint64_t pos : ancestry(position_, m_)) {
    if (pos == position_) continue;
    StationId s = tree_order()[pos - 1];
    if (!dead_.contains(s)) return s;
  }
  return std::nullopt;
}

// --- failure detector --------------------------------------------------------

void StationNode::note_attempt_timeout(StationId target) {
  if (dead_.contains(target)) return;
  std::uint32_t n = ++suspect_[target];
  if (n >= kFailoverThreshold) declare_dead(target);
}

void StationNode::declare_dead(StationId target) {
  suspect_.erase(target);
  if (!dead_.insert(target).second) return;
  count<&NodeStats::failovers>();
  obs::FlightRecorder::global().record(
      obs::FlightKind::failover,
      "station " + std::to_string(target.value()) + " declared dead after " +
          std::to_string(kFailoverThreshold) + " consecutive timeouts",
      self_.value(), target.value(), fabric_->now());
  if (parent_station() == target) {
    // Orphaned: announce the reparent route that live_parent_station()
    // will now resolve to (⌊(k−i−1)/m⌋+1 applied past the dead parent).
    auto next = live_parent_station();
    obs::FlightRecorder::global().record(
        obs::FlightKind::failover,
        "position " + std::to_string(position_) + " reparented to " +
            (next ? "station " + std::to_string(next->value())
                  : std::string("nothing: ancestor chain dead")),
        self_.value(), target.value(), fabric_->now());
  }
}

void StationNode::note_alive(StationId from) {
  suspect_.erase(from);
  if (dead_.erase(from) > 0) {
    count<&NodeStats::resurrections>();
    obs::FlightRecorder::global().record(
        obs::FlightKind::failover,
        "station " + std::to_string(from.value()) + " heard from again: resurrected",
        self_.value(), from.value(), fabric_->now());
  }
}

Status StationNode::send(StationId to, const char* type, net::Payload payload,
                         std::uint64_t wire_size, obs::TraceContext trace,
                         net::Payload body) {
  net::Message out;
  out.from = self_;
  out.to = to;
  out.type = type;
  out.payload = std::move(payload);
  out.body = std::move(body);
  out.wire_size = wire_size;
  out.trace = trace;
  return fabric_->send(std::move(out));
}

// --- push --------------------------------------------------------------------

Status StationNode::send_push(const net::Payload& manifest, std::uint64_t wire_size,
                              obs::TraceContext trace) {
  if (position_ == 0) return Status::ok();
  for (std::uint64_t child : children_of(position_, m_, tree_order().size())) {
    count<&NodeStats::push_attempts>();
    WDOC_TRY(send(tree_order()[child - 1], kPush, manifest, wire_size, trace));
    count<&NodeStats::pushes_forwarded>();
  }
  return Status::ok();
}

Status StationNode::broadcast_push(const DocManifest& manifest) {
  if (position_ == 0) return {Errc::invalid_argument, "station not in broadcast tree"};
  // Instructor's own persistent copy (idempotent).
  if (store_->doc(manifest.doc_key) == nullptr) {
    WDOC_TRY(store_->put_instance(manifest, /*ephemeral=*/false));
  }
  const std::uint64_t transfer_id = next_id();
  const std::uint32_t trees = config_.swarm.enabled ? config_.swarm.trees : 0;
  Transfer t;
  t.manifest = manifest;
  t.chunk_bytes = config_.chunk.chunk_bytes;
  for (const BlobRef& b : manifest.blobs) {
    t.total_chunks += blob::chunk_count(b.size, t.chunk_bytes);
  }
  if (trees != 0 && t.total_chunks > net::kMaxWireChunks) {
    return {Errc::invalid_argument, "transfer too large for swarm mode"};
  }
  t.delivered = true;  // the instructor holds the persistent instance
  last_delivery_ = fabric_->now();
  t.trace_id = obs::derive_trace_id(transfer_id);
  t.span = obs::Tracer::global().begin(
      (trees != 0 ? "swarm.push " : "dist.push ") + manifest.doc_key, 0, fabric_->now(),
      self_.value(), t.trace_id);
  open_transfer(transfer_id, std::move(t), trees);
  return Status::ok();
}

Status StationNode::broadcast_push_store_forward(const DocManifest& manifest) {
  if (position_ == 0) return {Errc::invalid_argument, "station not in broadcast tree"};
  if (store_->doc(manifest.doc_key) == nullptr) {
    WDOC_TRY(store_->put_instance(manifest, /*ephemeral=*/false));
  }
  last_delivery_ = fabric_->now();
  auto& tracer = obs::Tracer::global();
  const std::uint64_t trace_id = obs::derive_trace_id(next_id());
  std::uint64_t span = tracer.begin("dist.push " + manifest.doc_key, 0,
                                    fabric_->now(), self_.value(), trace_id);
  Writer w;
  manifest.serialize(w);
  WDOC_TRY(send_push(w.take(), manifest.total_bytes(),
                     obs::TraceContext{trace_id, span, false}));
  tracer.end(span, fabric_->now());
  return Status::ok();
}

// --- chunked push ------------------------------------------------------------

template <typename Begin>
void StationNode::on_begin(const net::Message& msg) {
  auto begin = Begin::decode(msg.payload);
  if (!begin) {
    WDOC_ERROR("%s decode failed: %s", msg.type.c_str(), begin.message().c_str());
    return;
  }
  Reader mr(begin.value().manifest);
  auto manifest = DocManifest::deserialize(mr);
  if (!manifest) {
    WDOC_ERROR("%s manifest decode failed: %s", msg.type.c_str(),
               manifest.message().c_str());
    return;
  }
  count<&NodeStats::pushes_received>();
  const std::uint64_t transfer_id = begin.value().transfer_id;
  // A station is a child in several stripe trees: every tree's parent
  // announces, the first begin wins, the rest are idempotent no-ops (and
  // the redundancy is what makes a lost begin survivable under loss).
  if (transfers_.contains(transfer_id)) return;
  // The stripe count comes from the wire, not local config — the whole
  // cluster must agree on the forest geometry.
  std::uint32_t trees = 0;
  if constexpr (std::is_same_v<Begin, net::SwarmBegin>) trees = begin.value().trees;
  const DocManifest& m = manifest.value();
  Transfer t;
  t.manifest = m;
  t.chunk_bytes = begin.value().chunk_bytes;
  for (const BlobRef& b : m.blobs) {
    t.total_chunks += blob::chunk_count(b.size, t.chunk_bytes);
  }
  if (trees != 0 && t.total_chunks > net::kMaxWireChunks) return;
  t.trace_id = msg.trace.trace_id;
  t.trace_sampled = msg.trace.sampled;
  t.span = obs::Tracer::global().begin(
      (trees != 0 ? "swarm.push.hop " : "dist.push.hop ") + m.doc_key, msg.trace.span_id,
      fabric_->now(), self_.value(), t.trace_id);
  // Mirror entry first, so even a transfer that loses its tail leaves the
  // routing information chunk-level repair needs.
  if (store_->doc(m.doc_key) == nullptr) (void)store_->put_reference(m);
  for (const BlobRef& b : missing_blobs(m)) {
    (void)store_->blobs().begin_partial(b.digest, b.size, b.type, t.chunk_bytes);
  }
  open_transfer(transfer_id, std::move(t), trees);
}

void StationNode::open_transfer(std::uint64_t transfer_id, Transfer t,
                                std::uint32_t trees) {
  auto [it, inserted] = transfers_.emplace(transfer_id, std::move(t));
  WDOC_CHECK(inserted, "duplicate transfer id");
  Transfer& tr = it->second;
  if (trees != 0) {
    init_swarm(transfer_id, tr, trees);
    open_swarm_children(transfer_id, tr);
  } else {
    open_transfer_children(transfer_id, tr);
  }
  deliver_if_complete(tr);
  maybe_retire_transfer(transfer_id);
}

net::Payload StationNode::begin_payload(std::uint64_t transfer_id,
                                        const Transfer& t) const {
  Writer w;
  t.manifest.serialize(w);
  if (t.swarm) {
    net::SwarmBegin begin;
    begin.transfer_id = transfer_id;
    begin.chunk_bytes = t.chunk_bytes;
    begin.trees = t.stripe_trees;
    begin.manifest = w.take();
    return net::Payload{begin.encode()};
  }
  net::ChunkBegin begin;
  begin.transfer_id = transfer_id;
  begin.chunk_bytes = t.chunk_bytes;
  begin.manifest = w.take();
  return net::Payload{begin.encode()};
}

Status StationNode::send_begin(StationId to, const Transfer& t, net::Payload payload) {
  if (t.swarm) {
    count<&NodeStats::swarm_begins_sent>();
  } else {
    count<&NodeStats::push_attempts>();
  }
  // The begin carries the structure (the small copied objects) plus the
  // manifest itself; blob bytes are charged chunk by chunk.
  const std::uint64_t wire_size = t.manifest.structure_bytes + payload.size();
  return send(to, t.swarm ? net::kSwarmBegin : net::kChunkBegin, std::move(payload),
              wire_size, obs::TraceContext{t.trace_id, t.span, t.trace_sampled});
}

void StationNode::open_transfer_children(std::uint64_t transfer_id, Transfer& t) {
  if (position_ == 0) return;
  // One refcounted buffer shared by every child's begin: m children bump a
  // refcount instead of copying the manifest m times.
  const net::Payload payload = begin_payload(transfer_id, t);
  for (std::uint64_t child : children_of(position_, m_, tree_order().size())) {
    StationId cid = tree_order()[child - 1];
    if (!send_begin(cid, t, payload).is_ok()) continue;
    count<&NodeStats::pushes_forwarded>();
    ChildCursor cursor;
    cursor.child = cid;
    t.children.push_back(std::move(cursor));
    enqueue_held_chunks(t, t.children.back());
  }
  for (ChildCursor& cursor : t.children) pump_cursor(transfer_id, cursor);
}

void StationNode::enqueue_held_chunks(Transfer& t, ChildCursor& cursor) {
  auto& bs = store_->blobs();
  for (std::uint32_t ordinal = 0; ordinal < t.manifest.blobs.size(); ++ordinal) {
    const BlobRef& b = t.manifest.blobs[ordinal];
    const std::uint32_t total = blob::chunk_count(b.size, t.chunk_bytes);
    for (std::uint32_t i = 0; i < total; ++i) {
      if (t.swarm) {
        // A stripe cursor carries only its own tree's chunks, and skips
        // any the child has already reported owning.
        const std::uint32_t g = t.chunk_prefix[ordinal] + i;
        if (swarm::stripe_of(g, t.stripe_trees) != cursor.tree) continue;
        if (t.sched && cursor.child_pos != 0 && t.sched->peer_has(cursor.child_pos, g)) {
          count<&NodeStats::swarm_relay_suppressed>();
          continue;
        }
      }
      if (bs.has_chunk(b.digest, i, t.chunk_bytes)) {
        cursor.pending.push_back(chunk_key(ordinal, i));
      }
    }
  }
}

void StationNode::pump_cursor(std::uint64_t transfer_id, ChildCursor& cursor) {
  auto it = transfers_.find(transfer_id);
  if (it == transfers_.end()) return;
  Transfer& t = it->second;
  const SimTime now = fabric_->now();
  // Each overdue chunk is one attempt timeout against the child, and the
  // failure detector rules on all of them before any is resent.
  for (const auto& [key, chunk] : cursor.in_flight) {
    if (chunk.due <= now) note_attempt_timeout(cursor.child);
  }
  if (dead_.contains(cursor.child)) {
    // Stop feeding a declared-dead child; its reparented subtree recovers
    // the tail through chunk-level repair instead.
    cursor.pending.clear();
    cursor.in_flight.clear();
  }
  // A chunk may legitimately wait behind every other in-flight chunk of
  // this transfer on the shared uplink before its ack can even start back
  // (the windows of ALL children serialize through one link — a star
  // parent queues children × window chunks); scale its deadline by that
  // worst-case backlog on the slowest modeled link.
  const SimTime due = now + config_.rpc.deadline +
                      SimTime::seconds(static_cast<double>(t.children.size()) *
                                       static_cast<double>(config_.chunk.window) *
                                       static_cast<double>(t.chunk_bytes) * 8.0 /
                                       config_.min_bandwidth_bps);
  for (auto f = cursor.in_flight.begin(); f != cursor.in_flight.end();) {
    if (f->second.due > now) {
      ++f;
    } else if (f->second.resends < net::kMaxRetries &&
               send_chunk(transfer_id, t, cursor.child, f->first, f->first + 1,
                          /*retransmit=*/true)
                   .is_ok()) {
      f->second = {due, f->second.resends + 1};
      ++f;
    } else {
      // Budget spent: the slot frees, and the child's chunk-level repair
      // re-pulls exactly the missing indices.
      f = cursor.in_flight.erase(f);
    }
  }
  while (!cursor.pending.empty() && cursor.in_flight.size() < config_.chunk.window) {
    const std::uint64_t key = cursor.pending.front();
    cursor.pending.pop_front();
    // The ack token is the chunk key + 1 (0 marks unacked data).
    if (send_chunk(transfer_id, t, cursor.child, key, key + 1, /*retransmit=*/false)
            .is_ok()) {
      cursor.in_flight.emplace(key, InFlightChunk{due});
    }
  }
  if (cursor.in_flight.empty()) {
    // Drained for good once every chunk is held here: nothing more can
    // queue behind it, so its deadline must not outlive the push.
    if (t.delivered) cancel(std::exchange(cursor.timer, nullptr));
    return;
  }
  // Every later due time is at or after the armed one, so the timer is only
  // re-armed when it fires.
  if (cursor.timer) return;
  SimTime first = due;
  for (const auto& [key, chunk] : cursor.in_flight) first = std::min(first, chunk.due);
  cursor.timer = fabric_->schedule_on(
      self_, first - now, [this, transfer_id, child = cursor.child] {
        settle_cursor(transfer_id, child, 0);
      });
}

void StationNode::settle_cursor(std::uint64_t transfer_id, StationId child,
                                std::uint64_t ack_token) {
  auto it = transfers_.find(transfer_id);
  if (it == transfers_.end()) return;
  for (ChildCursor& cursor : it->second.children) {
    if (cursor.child != child) continue;
    if (ack_token == 0) {
      cursor.timer = nullptr;  // this is the timer firing
    } else if (cursor.in_flight.erase(ack_token - 1) == 0) {
      return;  // a second ack for one chunk (the child also got its resend)
    }
    pump_cursor(transfer_id, cursor);
    maybe_retire_transfer(transfer_id);
    return;
  }
}

void StationNode::cancel_timers(Transfer& t) {
  cancel(t.gossip_timer);
  cancel(t.pace_timer);
  for (const ChildCursor& c : t.children) cancel(c.timer);
}

Status StationNode::send_chunk(std::uint64_t transfer_id, const Transfer& t,
                               StationId child, std::uint64_t key,
                               std::uint64_t req_id, bool retransmit) {
  const std::uint32_t ordinal = key_ordinal(key);
  const std::uint32_t index = key_index(key);
  if (ordinal >= t.manifest.blobs.size()) {
    return {Errc::invalid_argument, "chunk key out of range"};
  }
  const BlobRef& b = t.manifest.blobs[ordinal];
  auto d = held_chunk(b.digest, b.size, index, t.chunk_bytes);
  if (!d) return d.status();
  d.value().req_id = req_id;
  d.value().transfer_id = transfer_id;
  if (retransmit) count<&NodeStats::chunk_retransmits>();
  return send_chunk_data(child, d.value(),
                         obs::TraceContext{t.trace_id, t.span, t.trace_sampled});
}

Result<net::ChunkData> StationNode::held_chunk(const Digest128& digest, std::uint64_t size,
                                               std::uint32_t index,
                                               std::uint32_t chunk_bytes) const {
  auto payload = store_->blobs().chunk_payload(digest, index, chunk_bytes);
  if (!payload) return payload.status().error();
  net::ChunkData d;
  d.digest = digest;
  d.index = index;
  d.has_payload = !payload.value().empty();
  d.chunk_len = d.has_payload ? static_cast<std::uint32_t>(payload.value().size())
                              : blob::chunk_size_at(size, index, chunk_bytes);
  d.chunk_digest = d.has_payload ? blob::real_chunk_digest(payload.value())
                                 : blob::synthetic_chunk_digest(digest, index);
  if (d.has_payload) d.payload = std::move(payload).value();
  return d;
}

Status StationNode::send_chunk_data(StationId to, const net::ChunkData& d,
                                    obs::TraceContext trace) {
  count<&NodeStats::chunks_sent>();
  count<&NodeStats::chunk_bytes_sent>(d.chunk_len);
  // The small per-hop header is encoded anew; the chunk bytes ride
  // out-of-band, the slice from the blob store forwarded untouched (a
  // refcount bump, not a copy).
  return send(to, net::kChunkData, d.encode(),
              d.has_payload ? 0 : d.chunk_len + net::kWireHeaderBytes, trace, d.payload);
}

std::vector<BlobRef> StationNode::missing_blobs(const DocManifest& m,
                                                std::size_t limit) const {
  std::vector<BlobRef> out;
  const auto& bs = store_->blobs();
  for (const BlobRef& b : m.blobs) {
    if (out.size() == limit) break;
    if (b.size != 0 && !bs.find(b.digest).has_value()) out.push_back(b);
  }
  return out;
}

void StationNode::deliver_if_complete(Transfer& t) {
  if (t.delivered || !missing_blobs(t.manifest, 1).empty()) return;
  t.delivered = true;
  last_delivery_ = fabric_->now();
  (void)hold_ephemeral(t.manifest);
}

Status StationNode::hold_ephemeral(const DocManifest& m) {
  const StoredDoc* d = store_->doc(m.doc_key);
  if (d == nullptr) return store_->put_instance(m, /*ephemeral=*/true);
  if (d->form != ObjectForm::reference) return Status::ok();
  return store_->materialize(m.doc_key, /*ephemeral=*/true);
}

void StationNode::maybe_retire_transfer(std::uint64_t transfer_id) {
  auto it = transfers_.find(transfer_id);
  if (it == transfers_.end()) return;
  const Transfer& t = it->second;
  if (!t.delivered) return;
  // A swarm transfer stays alive while its gossip loop runs — it may still
  // be serving chunks to (or pulling them for) incomplete neighbors.
  if (t.swarm && !t.gossip_done) return;
  if (t.swarm && !(t.swarm_queue.empty() && t.swarm_serve_queue.empty())) return;
  for (const ChildCursor& c : t.children) {
    if (!c.pending.empty() || !c.in_flight.empty()) return;
  }
  cancel_timers(it->second);
  obs::Tracer::global().end(t.span, fabric_->now());
  transfers_.erase(it);
}

void StationNode::on_chunk_data(const net::Message& msg) {
  auto data = net::ChunkData::decode(msg.payload, msg.body);
  if (!data) {
    count<&NodeStats::chunk_rejects>();
    return;
  }
  const net::ChunkData& d = data.value();
  if (d.req_id != 0) {
    // Receipt (not acceptance) frees the sender's window slot; duplicates
    // and rejects are acked too — integrity gaps are repair's job.
    net::ChunkAck ack;
    ack.req_id = d.req_id;
    ack.transfer_id = d.transfer_id;
    ack.digest = d.digest;
    ack.index = d.index;
    (void)send(msg.from, net::kChunkAck, ack.encode());
  }
  auto add = store_->blobs().add_chunk(d.digest, d.index, d.chunk_digest,
                                       d.payload.span());
  if (!add) {
    if (add.code() == Errc::not_found) {
      // No assembly state here: the transfer's begin was lost, or this is
      // stray repair data. Dropped — repair re-pulls under a fresh partial.
      count<&NodeStats::chunk_orphans>();
    } else {
      count<&NodeStats::chunk_rejects>();
    }
    return;
  }
  const bool duplicate = add.value() == blob::BlobStore::ChunkAdd::duplicate;
  if (duplicate) {
    // The wire bytes were spent either way — account the waste (swarm mode
    // is where overlapping sources make this reachable at scale).
    count<&NodeStats::chunk_duplicate_rx>();
    count<&NodeStats::chunk_wasted_bytes>(d.chunk_len);
  } else {
    count<&NodeStats::chunks_received>();
  }
  if (d.transfer_id == 0) return;  // repair/pull data: no relay, no transfer state
  auto it = transfers_.find(d.transfer_id);
  if (it == transfers_.end()) return;
  Transfer& t = it->second;
  const auto& blobs = t.manifest.blobs;
  const auto blob = std::find_if(blobs.begin(), blobs.end(),
                                 [&d](const BlobRef& b) { return b.digest == d.digest; });
  if (blob == blobs.end()) return;
  const auto ordinal = static_cast<std::uint32_t>(blob - blobs.begin());
  if (t.swarm && t.sched && ordinal + 1 < t.chunk_prefix.size()) {
    // Even a duplicate settles the in-flight request for this chunk.
    t.sched->mark_have(t.chunk_prefix[ordinal] + d.index, fabric_->now());
  }
  if (duplicate) return;
  // Cut-through relay: this verified chunk forwards to every child now,
  // before the next chunk arrives. In swarm mode only the chunk's stripe
  // cursors carry it, and children already known to hold it are skipped.
  const std::uint64_t key = chunk_key(ordinal, d.index);
  if (t.swarm) {
    const std::uint32_t g = t.chunk_prefix[ordinal] + d.index;
    const std::uint32_t tree = swarm::stripe_of(g, t.stripe_trees);
    for (ChildCursor& c : t.children) {
      if (c.tree != tree) continue;
      if (t.sched && c.child_pos != 0 && t.sched->peer_covered(c.child_pos, g)) {
        count<&NodeStats::swarm_relay_suppressed>();
        continue;
      }
      enqueue_swarm_send(d.transfer_id, t, {c.child, c.child_pos, key, false});
    }
  } else {
    for (ChildCursor& c : t.children) c.pending.push_back(key);
    for (ChildCursor& c : t.children) pump_cursor(d.transfer_id, c);
  }
  deliver_if_complete(t);
  maybe_retire_transfer(d.transfer_id);
}

void StationNode::on_chunk_ack(const net::Message& msg) {
  auto ack = net::ChunkAck::decode(msg.payload);
  if (ack && ack.value().req_id != 0) {
    settle_cursor(ack.value().transfer_id, msg.from, ack.value().req_id);
  }
}

void StationNode::on_chunk_req(const net::Message& msg) {
  auto req = net::ChunkReq::decode(msg.payload);
  if (!req) return;
  const net::ChunkReq& q = req.value();
  std::uint32_t served = 0;
  for (std::uint32_t index : q.indices) {
    // A chunk not held here is skipped: a round that serves nothing ends
    // the pull `unavailable`, and the next repair round retries. Repair
    // data carries neither req_id (unacked; the rsp summary closes the rpc)
    // nor transfer_id (not part of a push: no relay downstream).
    auto d = held_chunk(q.digest, q.size, index, q.chunk_bytes);
    if (!d || d.value().chunk_len == 0) continue;
    if (send_chunk_data(msg.from, d.value()).is_ok()) ++served;
  }
  count<&NodeStats::chunk_repair_served>(served);
  // FIFO links guarantee the data above lands before this summary.
  net::ChunkRsp rsp;
  rsp.req_id = q.req_id;
  rsp.served = served;
  rsp.requested = static_cast<std::uint32_t>(q.indices.size());
  (void)send(msg.from, net::kChunkRsp, rsp.encode());
}

void StationNode::on_chunk_rsp(const net::Message& msg) {
  auto rsp = net::ChunkRsp::decode(msg.payload);
  if (!rsp) return;
  (void)rpc_.complete<std::uint32_t>(rsp.value().req_id, rsp.value().served);
}

// --- swarm mode (multi-source distribution, DESIGN.md §4f) -------------------

void StationNode::init_swarm(std::uint64_t transfer_id, Transfer& t, std::uint32_t trees) {
  t.swarm = true;
  t.stripe_trees = std::clamp<std::uint32_t>(trees, 1, net::kMaxWireTrees);
  t.chunk_prefix.assign(1, 0);
  for (const BlobRef& b : t.manifest.blobs) {
    t.chunk_prefix.push_back(t.chunk_prefix.back() +
                             blob::chunk_count(b.size, t.chunk_bytes));
  }
  const std::uint64_t n = tree_order().size();
  const std::uint32_t total = static_cast<std::uint32_t>(t.total_chunks);
  // The tie-break seed is per-station (different stations spread their
  // pulls differently); the neighbor seed is the transfer id, which every
  // station knows, so both ends of a tree link derive the same sets.
  t.sched = std::make_unique<swarm::SwarmScheduler>(
      total, t.stripe_trees, hash_combine(self_.value(), transfer_id), fabric_->now());
  t.acting_parent.assign(t.stripe_trees, 0);
  t.acting_since.assign(t.stripe_trees, fabric_->now());
  for (std::uint32_t tree = 0; tree < t.stripe_trees; ++tree) {
    auto p = swarm::stripe_parent(position_, tree, t.stripe_trees, m_, n);
    t.sched->set_stripe_parent(tree, p.value_or(0));
    t.acting_parent[tree] = p.value_or(0);
  }
  for (std::uint64_t nb : swarm::gossip_neighbors(position_, m_, n, t.stripe_trees,
                                                  swarm::kExtraPeers, transfer_id)) {
    t.sched->add_peer(nb);
  }
  // Seed our own bitmap from whatever the blob store already holds
  // (everything at the instructor; possibly shared blobs elsewhere).
  std::vector<std::uint64_t> words((total + 63) / 64, 0);
  const auto& bs = store_->blobs();
  for (std::uint32_t ordinal = 0; ordinal < t.manifest.blobs.size(); ++ordinal) {
    const BlobRef& b = t.manifest.blobs[ordinal];
    bs.chunk_bits(b.digest, b.size, t.chunk_bytes, t.chunk_prefix[ordinal], words);
  }
  swarm::Bitmap have;
  have.assign_words(std::move(words), total);
  t.sched->seed_self(have, fabric_->now());
  schedule_swarm_tick(transfer_id);
}

void StationNode::open_swarm_children(std::uint64_t transfer_id, Transfer& t) {
  if (position_ == 0) return;
  const std::uint64_t n = tree_order().size();
  // One refcounted begin shared by every stripe child; a station that is
  // our child in several trees gets one begin but one cursor per tree.
  const net::Payload payload = begin_payload(transfer_id, t);
  std::set<std::uint64_t> announced;
  for (std::uint32_t tree = 0; tree < t.stripe_trees; ++tree) {
    for (std::uint64_t child_pos :
         swarm::stripe_children(position_, tree, t.stripe_trees, m_, n)) {
      if (child_pos < 1 || child_pos > n || child_pos == position_) continue;
      StationId cid = tree_order()[child_pos - 1];
      if (announced.insert(child_pos).second) {
        (void)send_begin(cid, t, payload);
        count<&NodeStats::pushes_forwarded>();
      }
      ChildCursor cursor;
      cursor.child = cid;
      cursor.tree = tree;
      cursor.child_pos = child_pos;
      t.children.push_back(std::move(cursor));
      enqueue_held_chunks(t, t.children.back());
    }
  }
  // Drain the cursors round-robin into the paced send queue, so the
  // instructor's uplink interleaves stripe trees fairly (a sequential
  // drain would delay one whole tree by the other's backlog).
  bool more = true;
  while (more) {
    more = false;
    for (ChildCursor& c : t.children) {
      if (c.pending.empty()) continue;
      enqueue_swarm_send(transfer_id, t,
                         {c.child, c.child_pos, c.pending.front(), false});
      c.pending.pop_front();
      more = true;
    }
  }
}

SimTime StationNode::swarm_pace_interval(const Transfer& t) const {
  // One chunk's serialization time on our own uplink (fabrics without a
  // link model fall back to the configured floor). Sending at most one
  // chunk per interval keeps the fabric's FIFO queue a chunk or two deep.
  double bps = fabric_->uplink_bps(self_);
  if (bps <= 0) bps = config_.min_bandwidth_bps;
  const double bytes = static_cast<double>(t.chunk_bytes) + net::kWireHeaderBytes;
  return SimTime::seconds(bytes * 8.0 / bps);
}

void StationNode::enqueue_swarm_send(std::uint64_t transfer_id, Transfer& t,
                                     SwarmSend entry) {
  (entry.serve ? t.swarm_serve_queue : t.swarm_queue).push_back(entry);
  if (t.pacing) return;
  t.pacing = true;
  // First send goes out immediately (cut-through); the timer only paces
  // the backlog behind it.
  swarm_pace_tick(transfer_id);
}

void StationNode::swarm_pace_tick(std::uint64_t transfer_id) {
  auto it = transfers_.find(transfer_id);
  if (it == transfers_.end()) return;
  Transfer& t = it->second;
  // Swarm relays are unacked: a per-chunk ack would ride the child's
  // already-saturated uplink FIFO behind its own relays, and the window
  // stalls would halve pipeline throughput. Loss shows up as a bitmap
  // hole and is recovered by the rarest-first pull path instead.
  bool sent = false;
  while (!sent && !(t.swarm_queue.empty() && t.swarm_serve_queue.empty())) {
    // Relays before serves, but after kServeStride consecutive relays one
    // serve cuts in (see the queue comment in the header).
    const bool serve_turn =
        !t.swarm_serve_queue.empty() &&
        (t.swarm_queue.empty() ||
         t.relays_since_serve >= swarm::kServeStride);
    std::deque<SwarmSend>& q =
        serve_turn ? t.swarm_serve_queue : t.swarm_queue;
    const SwarmSend entry = q.front();
    q.pop_front();
    if (dead_.contains(entry.to)) continue;
    if (t.sched && entry.peer_pos != 0) {
      const std::uint32_t ordinal = key_ordinal(entry.key);
      const std::uint32_t g = ordinal + 1 < t.chunk_prefix.size()
                                  ? t.chunk_prefix[ordinal] + key_index(entry.key)
                                  : 0;
      // A relay yields to the receiver's own pull of the chunk (its
      // pending bit); a serve IS that pull being answered, so it only
      // yields to confirmed possession.
      const bool covered = entry.serve ? t.sched->peer_has(entry.peer_pos, g)
                                       : t.sched->peer_covered(entry.peer_pos, g);
      if (ordinal + 1 < t.chunk_prefix.size() && covered) {
        // The receiver reported the chunk (or a request for it) after this
        // send was queued — drop it, count it.
        count<&NodeStats::swarm_relay_suppressed>();
        continue;
      }
    }
    if (!send_chunk(transfer_id, t, entry.to, entry.key, /*req_id=*/0,
                    /*retransmit=*/false)
             .is_ok()) {
      continue;
    }
    sent = true;
    if (entry.serve) {
      t.relays_since_serve = 0;
      count<&NodeStats::swarm_chunks_served>();
    } else {
      ++t.relays_since_serve;
    }
  }
  if (!sent && t.swarm_queue.empty() && t.swarm_serve_queue.empty()) {
    // Idle tick with nothing left: the link goes quiet immediately.
    t.pacing = false;
    maybe_retire_transfer(transfer_id);
    return;
  }
  // Stay "busy" for one chunk-time after every send even if the queue is
  // momentarily empty — a relay enqueued a moment later must not bypass
  // the pace and burst onto the wire behind the chunk still serializing.
  t.pacing = true;
  t.pace_timer = fabric_->schedule_on(
      self_, swarm_pace_interval(t),
      [this, transfer_id] { swarm_pace_tick(transfer_id); });
}

void StationNode::schedule_swarm_tick(std::uint64_t transfer_id) {
  auto it = transfers_.find(transfer_id);
  if (it == transfers_.end()) return;
  it->second.gossip_timer =
      fabric_->schedule_on(self_, swarm::kGossipInterval,
                           [this, transfer_id] { on_swarm_tick(transfer_id); });
}

void StationNode::on_swarm_tick(std::uint64_t transfer_id) {
  auto it = transfers_.find(transfer_id);
  if (it == transfers_.end()) return;
  Transfer& t = it->second;
  if (!t.swarm || t.sched == nullptr || t.gossip_done) return;
  if (!fabric_->is_online(self_)) {
    // Crashed mid-transfer: the swarm is done with us. If we restart later
    // the blob-level pull/repair path catches us up; keeping the gossip
    // timer alive would run the simulation clock out to kMaxRounds.
    t.gossip_done = true;
    maybe_retire_transfer(transfer_id);
    return;
  }
  ++t.gossip_rounds;
  const SimTime now = fabric_->now();
  const std::uint64_t n = tree_order().size();
  const std::uint32_t total = static_cast<std::uint32_t>(t.total_chunks);
  // Stripe-ancestor adoption: while the closest expected ancestor of a
  // stripe tree stays gossip-silent past kStallTimeout, walk one level up
  // and start gossiping with that ancestor too (one level per walk — each
  // adopted ancestor gets a full timeout to answer before we pass it).
  // Only the head of an orphaned subtree walks; its descendants keep
  // hearing their (recovering) parent.
  for (std::uint32_t tree = 0; tree < t.stripe_trees; ++tree) {
    const std::uint64_t ap = t.acting_parent[tree];
    if (ap == 0 || t.sched->complete()) continue;
    const SimTime heard = t.sched->peer_heard_at(ap);
    const SimTime ref = heard > t.acting_since[tree] ? heard : t.acting_since[tree];
    if (now - ref <= swarm::kStallTimeout) continue;
    auto up = swarm::stripe_parent(ap, tree, t.stripe_trees, m_, n);
    t.acting_parent[tree] = up.value_or(0);
    t.acting_since[tree] = now;
    if (up.has_value() && up.value() != position_) t.sched->add_peer(up.value());
  }
  // A child that has never gossiped may simply have lost its SwarmBegin
  // (it is sent once per stripe tree; a lossy link can drop every copy,
  // and gossip for an unknown transfer is discarded on arrival). After a
  // startup grace — a healthy child's first gossip arrives within a round
  // or two, and begins carry a whole manifest, so eager re-sends would
  // steal chunk-sized slots from the uplink right at ramp-up — re-send
  // every few rounds until the child speaks; begins are idempotent.
  if (t.gossip_rounds > 8 && t.gossip_rounds % 4 == 1) {
    std::set<std::uint64_t> silent;
    for (const ChildCursor& c : t.children) {
      if (c.child_pos < 1 || c.child_pos > n) continue;
      if (dead_.contains(c.child)) continue;
      if (t.sched->peer_heard_at(c.child_pos) != SimTime::zero()) continue;
      if (silent.insert(c.child_pos).second) {
        (void)send_begin(c.child, t, begin_payload(transfer_id, t));
      }
    }
  }
  // Advertised backlog approximates a new request's serve latency in
  // chunk-times, not raw queue length: while the uplink is relay-busy a
  // queued serve waits kServeStride relay slots per position, so each one
  // costs (stride + 1) chunk-times. A raw count makes a stride-throttled
  // interior server look as cheap as an idle leaf, and every requester
  // herds onto it.
  const std::size_t relay_q = t.swarm_queue.size();
  const std::size_t serve_q = t.swarm_serve_queue.size();
  // "Relay-busy" can't be read off the queue (cut-through keeps it near
  // empty between arrivals): a station with stripe children keeps relaying
  // until its own bitmap completes.
  const bool relay_busy = !t.children.empty() && !t.sched->complete();
  const std::size_t serve_cost =
      relay_busy ? std::min<std::size_t>(swarm::kServeStride, 3) + 1 : 1;
  // The relay-busy base term prices the latency a FIRST serve would see
  // even with an empty queue: cut-through keeps a busy relay's queue near
  // zero between arrivals, and without the base term such a station
  // advertises the same zero as a genuinely idle leaf.
  const std::size_t base = relay_busy ? serve_cost : 0;
  const auto backlog = static_cast<std::uint32_t>(std::min<std::size_t>(
      base + relay_q + serve_q * serve_cost,
      std::numeric_limits<std::uint32_t>::max()));
  // Our bitmap to every known peer — one refcounted buffer for all sends.
  // Gossip goes out BEFORE the termination check below: the round on which
  // a station terminates is the round its neighbors learn it is complete,
  // otherwise their view of us freezes one chunk short and they gossip
  // until kMaxRounds waiting for it.
  net::SwarmHave have;
  have.transfer_id = transfer_id;
  have.position = position_;
  have.backlog = backlog;
  have.recovering = t.sched->recovering_mask();
  have.total_chunks = total;
  have.words = t.sched->self().words();
  have.pending_words = t.sched->pending_words();
  const net::Payload have_payload{have.encode()};
  for (std::uint64_t pos : t.sched->peer_positions()) {
    if (pos < 1 || pos > n || pos == position_) continue;
    StationId peer = tree_order()[pos - 1];
    if (dead_.contains(peer)) continue;
    if (send(peer, net::kSwarmHave, have_payload).is_ok()) {
      count<&NodeStats::swarm_haves_sent>();
    }
  }
  // Rarest-first pulls for stalled stripes, our bitmap piggybacked.
  for (const swarm::SwarmPlan& plan : t.sched->plan(now)) {
    if (plan.peer < 1 || plan.peer > n || plan.chunks.empty()) continue;
    StationId peer = tree_order()[plan.peer - 1];
    if (dead_.contains(peer)) continue;
    net::SwarmReq req;
    req.transfer_id = transfer_id;
    req.position = position_;
    req.backlog = backlog;
    req.indices = plan.chunks;
    req.total_chunks = total;
    req.have_words = t.sched->self().words();
    req.pending_words = t.sched->pending_words();
    if (send(peer, net::kSwarmReq, req.encode()).is_ok()) {
      count<&NodeStats::swarm_reqs_sent>();
      count<&NodeStats::swarm_chunks_requested>(plan.chunks.size());
    }
  }
  // Termination: stop once we are complete and, as far as gossip shows,
  // every neighbor is too — or nothing has changed and no needy neighbor
  // has been heard for kIdleRounds (a crashed neighbor's bitmap freezes
  // forever; waiting on it would keep the whole cluster's timers alive).
  const std::uint64_t sum = t.sched->state_sum();
  const bool self_done = t.delivered && t.sched->complete();
  const bool quiet = sum == t.last_state_sum && !t.gossip_heard;
  t.idle_rounds = (self_done && quiet) ? t.idle_rounds + 1 : 0;
  t.last_state_sum = sum;
  t.gossip_heard = false;
  if (t.gossip_rounds >= swarm::kMaxRounds ||
      (self_done &&
       (t.sched->peers_complete() || t.idle_rounds >= swarm::kIdleRounds))) {
    t.gossip_done = true;
    maybe_retire_transfer(transfer_id);
    return;
  }
  schedule_swarm_tick(transfer_id);
}

StationNode::Transfer* StationNode::take_gossip(std::uint64_t transfer_id,
                                                std::uint32_t total_chunks,
                                                std::uint64_t position, StationId from,
                                                swarm::PeerReport report) {
  auto it = transfers_.find(transfer_id);
  if (it == transfers_.end()) {
    count<&NodeStats::swarm_orphans>();
    return nullptr;
  }
  Transfer& t = it->second;
  // The geometry must match, and the claimed position must be the sender's.
  if (!t.swarm || t.sched == nullptr || std::uint64_t{total_chunks} != t.total_chunks ||
      position < 1 || position > tree_order().size() ||
      tree_order()[position - 1] != from) {
    return nullptr;
  }
  report.now = fabric_->now();
  t.sched->peer_update(position, report);
  return &t;
}

void StationNode::on_swarm_have(const net::Message& msg) {
  auto have = net::SwarmHave::decode(msg.payload);
  if (!have) return;
  const net::SwarmHave& h = have.value();
  swarm::PeerReport report;
  report.have = &h.words;
  report.pending = &h.pending_words;
  report.backlog = h.backlog;
  report.recovering = h.recovering;
  Transfer* t = take_gossip(h.transfer_id, h.total_chunks, h.position, msg.from, report);
  // Only an *incomplete* neighbor holds this transfer open — it may still
  // need our serves. Completed neighbors echoing their full bitmaps must
  // not reset the idle countdown, or the cluster keep-alives itself to
  // kMaxRounds after everyone is done.
  if (t != nullptr && !t->sched->peer_complete(h.position)) t->gossip_heard = true;
}

void StationNode::on_swarm_req(const net::Message& msg) {
  auto req = net::SwarmReq::decode(msg.payload);
  if (!req) return;
  const net::SwarmReq& q = req.value();
  // A request doubles as gossip: the piggybacked bitmaps update our view
  // (and suppress future relays of chunks the requester has or is pulling).
  swarm::PeerReport report;
  report.have = &q.have_words;
  report.pending = &q.pending_words;
  report.backlog = q.backlog;
  Transfer* gossip =
      take_gossip(q.transfer_id, q.total_chunks, q.position, msg.from, report);
  if (gossip == nullptr) return;
  Transfer& t = *gossip;
  t.gossip_heard = true;  // an explicit request is always a sign of need
  std::uint32_t queued = 0;
  for (std::uint32_t g : q.indices) {
    if (queued >= swarm::kRequestBatch) break;  // hostile-length guard
    // g -> (ordinal, index) through the prefix table; zero-chunk blobs make
    // prefix values repeat, so take the last blob whose base covers g.
    auto ub = std::upper_bound(t.chunk_prefix.begin(), t.chunk_prefix.end(), g);
    if (ub == t.chunk_prefix.begin()) continue;
    const auto ordinal = static_cast<std::uint32_t>(ub - t.chunk_prefix.begin()) - 1;
    if (ordinal >= t.manifest.blobs.size()) continue;
    const std::uint32_t index = g - t.chunk_prefix[ordinal];
    // Serves share the paced send queue with stripe relays, so a burst of
    // requests can't stack a multi-second FIFO on our uplink. Chunks we
    // don't hold fail the send at pace time and the requester re-plans.
    enqueue_swarm_send(q.transfer_id, t,
                       {msg.from, q.position, chunk_key(ordinal, index), true});
    ++queued;
  }
}

Status StationNode::pull_blob_chunks(BlobPull pull) {
  auto& bs = store_->blobs();
  if (bs.find(pull.blob.digest).has_value() || pull.blob.size == 0) {
    pull.done(Status::ok(), fabric_->now());
    return Status::ok();
  }
  // Resume an existing partial at its own geometry; otherwise open one at
  // this node's configured chunk size.
  const blob::BlobStore::PartialInfo* p = bs.partial(pull.blob.digest);
  pull.chunk_bytes = p != nullptr ? p->chunk_bytes : config_.chunk.chunk_bytes;
  WDOC_TRY(bs.begin_partial(pull.blob.digest, pull.blob.size, pull.blob.type,
                            pull.chunk_bytes)
               .status());
  return start_pull_round(std::make_shared<BlobPull>(std::move(pull)));
}

Status StationNode::start_pull_round(std::shared_ptr<BlobPull> pull) {
  const std::size_t missing_before =
      store_->blobs()
          .missing_chunks(pull->blob.digest, std::numeric_limits<std::uint32_t>::max())
          .size();
  const std::uint64_t req_id = next_id();
  net::RpcOptions opts = config_.rpc;
  // The server streams up to repair_batch chunks ahead of its summary;
  // scale this round's deadline by that serialized burst.
  const std::uint64_t batch =
      std::min<std::uint64_t>(missing_before, config_.chunk.repair_batch);
  opts.deadline += SimTime::seconds(static_cast<double>(batch) *
                                    static_cast<double>(pull->chunk_bytes) * 8.0 /
                                    config_.min_bandwidth_bps);
  Status sent = rpc_.track<std::uint32_t>(
      req_id, opts,
      [this, pull, missing_before, req_id](Result<std::uint32_t> r, SimTime t) {
        rpc_target_.erase(req_id);
        auto& bs = store_->blobs();
        if (bs.find(pull->blob.digest).has_value()) {
          pull->done(Status::ok(), t);
          return;
        }
        if (!r) {
          pull->done(r.status(), t);
          return;
        }
        const std::size_t now_missing =
            bs.missing_chunks(pull->blob.digest,
                              std::numeric_limits<std::uint32_t>::max())
                .size();
        if (now_missing < missing_before) {
          // Progress: keep pulling. The next round re-routes, so a repaired
          // parent chain (or resurrected holder) is picked up mid-pull.
          Status s = start_pull_round(pull);
          if (!s.is_ok()) pull->done(s, t);
          return;
        }
        pull->done({Errc::unavailable, "chunk repair made no progress"}, t);
      },
      [this, pull, req_id](std::uint32_t) { return send_chunk_req(req_id, *pull); });
  if (!sent.is_ok()) {
    rpc_target_.erase(req_id);
    return sent;
  }
  count<&NodeStats::chunk_repair_reqs>();
  return Status::ok();
}

Status StationNode::send_chunk_req(std::uint64_t req_id, const BlobPull& pull) {
  // Route: pinned holder if given, else the nearest live ancestor, else the
  // document's home station (the instructor always holds the full blob).
  std::optional<StationId> target = pull.holder;
  if (!target.has_value()) target = live_parent_station();
  if (!target.has_value() && pull.home.value() != 0 && pull.home != self_) {
    target = pull.home;
  }
  if (!target.has_value()) return {Errc::unavailable, "no route for chunk repair"};
  auto missing =
      store_->blobs().missing_chunks(pull.blob.digest, config_.chunk.repair_batch);
  if (missing.empty()) return {Errc::already_exists, "no chunks missing"};
  rpc_target_[req_id] = *target;
  net::ChunkReq q;
  q.req_id = req_id;
  q.doc_key = pull.doc_key;
  q.digest = pull.blob.digest;
  q.size = pull.blob.size;
  q.media_type = static_cast<std::uint8_t>(pull.blob.type);
  q.chunk_bytes = pull.chunk_bytes;
  q.indices = std::move(missing);
  return send(*target, net::kChunkReq, q.encode());
}

Status StationNode::repair_pull(const DocManifest& manifest, FetchCallback cb) {
  if (store_->doc(manifest.doc_key) == nullptr) {
    WDOC_TRY(store_->put_reference(manifest));
  }
  if (store_->has_materialized(manifest.doc_key)) {
    cb(manifest, fabric_->now());
    return Status::ok();
  }
  const std::vector<BlobRef> incomplete = missing_blobs(manifest);
  if (incomplete.empty()) {
    WDOC_TRY(hold_ephemeral(manifest));
    cb(manifest, fabric_->now());
    return Status::ok();
  }
  struct RepairState {
    std::size_t remaining = 0;
    Status first_error = Status::ok();
    DocManifest manifest;
    FetchCallback cb;
  };
  auto state = std::make_shared<RepairState>();
  state->remaining = incomplete.size();
  state->manifest = manifest;
  state->cb = std::move(cb);
  for (const BlobRef& b : incomplete) {
    BlobPull pull;
    pull.doc_key = manifest.doc_key;
    pull.blob = b;
    pull.home = manifest.home;
    pull.done = [this, state](Status s, SimTime t) {
      if (!s.is_ok() && state->first_error.is_ok()) state->first_error = s;
      if (--state->remaining != 0) return;
      if (missing_blobs(state->manifest, 1).empty()) {
        (void)hold_ephemeral(state->manifest);
        // A push that lost chunks on the way here is delivered now too, and
        // retires once its own children are fed.
        for (auto it = transfers_.begin(); it != transfers_.end();) {
          const std::uint64_t id = it->first;
          Transfer& pushed = (it++)->second;  // retiring erases only this entry
          if (pushed.manifest.doc_key != state->manifest.doc_key) continue;
          deliver_if_complete(pushed);
          maybe_retire_transfer(id);
        }
        state->cb(state->manifest, t);
        return;
      }
      Status err = state->first_error.is_ok()
                       ? Status{Errc::unavailable, "repair incomplete"}
                       : state->first_error;
      state->cb(Result<DocManifest>(err.error()), t);
    };
    Status s = pull_blob_chunks(std::move(pull));
    if (!s.is_ok()) {
      // Account the failed start without firing cb from inside the loop.
      if (state->first_error.is_ok()) state->first_error = s;
      --state->remaining;
    }
  }
  // No pull completes synchronously, so none left means none started.
  return state->remaining == 0 ? state->first_error : Status::ok();
}

void StationNode::on_message(const net::Message& msg) {
  using Handler = void (StationNode::*)(const net::Message&);
  static constexpr std::pair<const char*, Handler> kHandlers[] = {
      {kPush, &StationNode::on_push},
      {kFetchReq, &StationNode::on_fetch_req},
      {kFetchRsp, &StationNode::on_fetch_rsp},
      {kFetchErr, &StationNode::on_fetch_err},
      {net::kChunkBegin, &StationNode::on_begin<net::ChunkBegin>},
      {net::kChunkData, &StationNode::on_chunk_data},
      {net::kChunkAck, &StationNode::on_chunk_ack},
      {net::kChunkReq, &StationNode::on_chunk_req},
      {net::kChunkRsp, &StationNode::on_chunk_rsp},
      {net::kSwarmBegin, &StationNode::on_begin<net::SwarmBegin>},
      {net::kSwarmHave, &StationNode::on_swarm_have},
      {net::kSwarmReq, &StationNode::on_swarm_req},
      {net::kMetricsRequest, &StationNode::on_scrape_req},
      {net::kMetricsResponse, &StationNode::on_scrape_rsp},
  };
  // Any traffic from a station is proof of life: clear its suspicion and
  // resurrect it if it was declared dead (crash + restart, healed link).
  note_alive(msg.from);
  for (const auto& [type, handler] : kHandlers) {
    if (msg.type == type) {
      (this->*handler)(msg);
      return;
    }
  }
  WDOC_WARN("station %llu: unknown message type %s",
            static_cast<unsigned long long>(self_.value()), msg.type.c_str());
}

void StationNode::on_push(const net::Message& msg) {
  Reader r(msg.payload);
  auto manifest = DocManifest::deserialize(r);
  if (!manifest) {
    WDOC_ERROR("push decode failed: %s", manifest.message().c_str());
    return;
  }
  count<&NodeStats::pushes_received>();
  const DocManifest& m = manifest.value();
  // Child span of the sender's push span: the trace mirrors the m-ary tree.
  auto& tracer = obs::Tracer::global();
  std::uint64_t span = tracer.begin("dist.push.hop " + m.doc_key, msg.trace.span_id,
                                    fabric_->now(), self_.value(), msg.trace.trace_id);
  if (Status s = hold_ephemeral(m); !s.is_ok()) {
    WDOC_WARN("station %llu: push store failed: %s",
              static_cast<unsigned long long>(self_.value()), s.message().c_str());
  }
  last_delivery_ = fabric_->now();
  // Forward down the tree: the received manifest itself, refcounted.
  (void)send_push(msg.payload, m.total_bytes(),
                  obs::TraceContext{msg.trace.trace_id, span, msg.trace.sampled});
  tracer.end(span, fabric_->now());
}

// --- pull --------------------------------------------------------------------

Status StationNode::send_fetch_req(std::uint64_t req_id, const std::string& doc_key) {
  // Route per attempt: parent chain skipping declared-dead ancestors. When
  // the whole ancestry is suspected dead, probe the direct parent anyway —
  // suspicion is not certainty, and any reply resurrects it. With no tree
  // at all, go straight to the document's home.
  std::optional<StationId> target = live_parent_station();
  if (!target) target = parent_station();
  if (!target) {
    const StoredDoc* d = store_->doc(doc_key);
    if (d != nullptr && d->manifest.home.valid() && d->manifest.home != self_) {
      target = d->manifest.home;
    } else {
      return {Errc::unavailable, "no parent and no home reference for " + doc_key};
    }
  }
  rpc_target_[req_id] = *target;
  FetchReq req;
  req.req_id = req_id;
  req.doc_key = doc_key;
  req.path.push_back(self_);
  return send(*target, kFetchReq, req.encode());
}

Status StationNode::fetch(const std::string& doc_key, FetchCallback cb) {
  const StoredDoc* d = store_->doc(doc_key);
  if (d != nullptr && d->form != ObjectForm::reference) {
    count<&NodeStats::fetches_local>();
    cb(d->manifest, fabric_->now());
    return Status::ok();
  }
  count<&NodeStats::pulls>();

  net::RpcOptions opts = config_.rpc;
  if (d != nullptr) {
    // A local reference knows the document's size: give each attempt room
    // for the transfer itself on the slowest link this cluster models,
    // just as fetch_blob does.
    opts.deadline += SimTime::seconds(
        static_cast<double>(d->manifest.total_bytes()) * 8.0 / config_.min_bandwidth_bps);
  }
  const std::uint64_t req_id = next_id();
  std::string key = doc_key;
  Status sent = rpc_.track<DocManifest>(
      req_id, opts,
      [this, req_id, cb = std::move(cb)](Result<DocManifest> r, SimTime t) {
        rpc_target_.erase(req_id);
        if (!r.is_ok()) count<&NodeStats::failed_fetches>();
        cb(std::move(r), t);
      },
      [this, req_id, key](std::uint32_t) { return send_fetch_req(req_id, key); });
  if (!sent.is_ok()) {
    // Never left the station: reported synchronously, the "no route"
    // contract callers rely on.
    rpc_target_.erase(req_id);
    count<&NodeStats::failed_fetches>();
    return sent;
  }
  count<&NodeStats::fetches_remote>();
  return Status::ok();
}

void StationNode::on_fetch_req(const net::Message& msg) {
  auto req = FetchReq::decode(msg.payload);
  if (!req) return;
  FetchReq& q = req.value();

  const StoredDoc* d = store_->doc(q.doc_key);
  if (d != nullptr && d->form != ObjectForm::reference) {
    // Serve: relay the data back down the request path, store-and-forward.
    count<&NodeStats::serves>();
    FetchRsp rsp;
    rsp.req_id = q.req_id;
    rsp.manifest = d->manifest;
    rsp.path = q.path;
    StationId next = rsp.path.back();
    rsp.path.pop_back();
    (void)send(next, kFetchRsp, rsp.encode(), d->manifest.total_bytes());
    return;
  }

  // Not here: forward up the live chain (or probe the direct parent when
  // the whole ancestry is suspected dead — only a true root gives up).
  std::optional<StationId> up = live_parent_station();
  if (!up) up = parent_station();
  if (!up) {
    // Root (or an effective root with its ancestry dead) without the
    // document: report failure back to the originator.
    FetchErr err;
    err.req_id = q.req_id;
    err.doc_key = q.doc_key;
    err.code = Errc::not_found;
    (void)send(q.path.front(), kFetchErr, err.encode());
    return;
  }
  count<&NodeStats::forwards_up>();
  q.path.push_back(self_);
  (void)send(*up, kFetchReq, q.encode());
}

void StationNode::on_fetch_rsp(const net::Message& msg) {
  auto rsp = FetchRsp::decode(msg.payload);
  if (!rsp) return;
  FetchRsp& r = rsp.value();

  if (r.path.empty()) {
    // Final delivery to the originator. The store bookkeeping happens
    // regardless of rpc state: a response that arrives after its request
    // already resolved (a retry raced the original answer, or the attempt
    // budget ran out while the data was in flight) still carries the
    // document — wasting it would only force another full transfer.
    const std::string& key = r.manifest.doc_key;
    const StoredDoc* d = store_->doc(key);
    if (d == nullptr) {
      (void)store_->put_reference(r.manifest);
      d = store_->doc(key);
    }
    std::uint64_t retrievals = store_->note_remote_retrieval(key);
    if (retrievals >= config_.watermark && d != nullptr &&
        d->form == ObjectForm::reference) {
      // Watermark hit: copy the physical multimedia data locally.
      Status s = store_->materialize(key, /*ephemeral=*/true);
      if (s.is_ok()) {
        count<&NodeStats::replications>();
        obs::FlightRecorder::global().record(
            obs::FlightKind::replication,
            key + " retrieval " + std::to_string(retrievals) + "/" +
                std::to_string(config_.watermark) + ": materialized locally",
            self_.value(), 0, fabric_->now());
      }
    }
    // The callback fires exactly once: the tracker counts and ignores a
    // duplicate.
    (void)rpc_.complete<DocManifest>(r.req_id, r.manifest);
    return;
  }

  // Intermediate hop: relay downward (store-and-forward).
  count<&NodeStats::relays>();
  if (config_.relay_cache) (void)hold_ephemeral(r.manifest);
  StationId next = r.path.back();
  r.path.pop_back();
  (void)send(next, kFetchRsp, r.encode(), r.manifest.total_bytes());
}

void StationNode::on_fetch_err(const net::Message& msg) {
  auto err = FetchErr::decode(msg.payload);
  if (!err) return;
  rpc_.fail(err.value().req_id,
            Error{err.value().code,
                  "document not found in tree: " + err.value().doc_key});
}

// --- blobs -------------------------------------------------------------------

Status StationNode::fetch_blob(StationId holder, const std::string& doc_key,
                               const BlobRef& blob, BlobFetchCallback cb) {
  // Already resident (e.g. a previous fetch or a pushed lecture): no wire
  // traffic needed.
  if (store_->blobs().find(blob.digest).has_value()) {
    count<&NodeStats::fetches_local>();
    cb(blob, fabric_->now());
    return Status::ok();
  }
  // Chunk granularity from the pinned holder: an interrupted fetch resumes
  // from the bitmap instead of restarting the whole transfer.
  BlobPull pull;
  pull.doc_key = doc_key;
  pull.blob = blob;
  pull.holder = holder;
  pull.home = holder;
  pull.done = [cb = std::move(cb), blob](Status s, SimTime t) {
    if (s.is_ok()) {
      cb(blob, t);
    } else {
      cb(Result<BlobRef>(s.error()), t);
    }
  };
  return pull_blob_chunks(std::move(pull));
}

std::uint64_t StationNode::end_lecture() {
  std::uint64_t demoted = 0;
  for (const std::string& key : store_->keys()) {
    const StoredDoc* d = store_->doc(key);
    if (d != nullptr && d->form == ObjectForm::instance && d->ephemeral) {
      if (store_->demote_to_reference(key).is_ok()) {
        ++demoted;
        count<&NodeStats::demotions>();
      }
    }
  }
  // "Essentially, buffer spaces are used only" — reclaim them.
  std::uint64_t reclaimed = store_->blobs().gc();
  if (demoted > 0) {
    obs::FlightRecorder::global().record(
        obs::FlightKind::migration,
        std::to_string(demoted) + " instance(s) demoted to references, " +
            std::to_string(reclaimed) + " B reclaimed",
        self_.value(), 0, fabric_->now());
  }
  return reclaimed;
}

// --- observability plane -----------------------------------------------------

obs::Snapshot StationNode::local_snapshot() const {
  obs::Labels labels{{"station", std::to_string(self_.value())}};
  obs::Snapshot snap;
  auto sample = [&](const char* name, obs::MetricSample::Kind kind, std::uint64_t v) {
    obs::MetricSample s;
    s.name = name;
    s.labels = labels;
    s.kind = kind;
    s.value = static_cast<double>(v);
    snap.samples.push_back(std::move(s));
  };
  constexpr auto kCounter = obs::MetricSample::Kind::counter;
  for (const NodeStatRow& row : kNodeStatRows) {
    sample(row.scrape, kCounter, stats_.*row.field);
  }
  const net::RpcStats rpc = rpc_.stats();
  sample("station.rpc_exhausted", kCounter, rpc.exhausted);
  sample("station.rpc_retries", kCounter, rpc.retries);
  sample("station.rpc_timeouts", kCounter, rpc.attempt_timeouts);
  sample("station.disk_bytes", obs::MetricSample::Kind::gauge, store_->disk_bytes());
  sample("station.docs", obs::MetricSample::Kind::gauge, store_->doc_count());
  std::sort(snap.samples.begin(), snap.samples.end(),
            [](const obs::MetricSample& a, const obs::MetricSample& b) {
              return a.key() < b.key();
            });
  return snap;
}

Status StationNode::send_scrape_rsp(StationId to, std::uint64_t req_id,
                                    const obs::Snapshot& snap) {
  Writer w;
  w.u64(req_id);
  obs::encode_snapshot(w, snap);
  return send(to, net::kMetricsResponse, w.take());
}

Status StationNode::start_scrape(std::uint64_t req_id, StationId reply_to) {
  // Duplicate request for an in-flight merge — a retried scrape, or a
  // station covered twice while tree views are momentarily inconsistent.
  // Register the requester as an extra waiter: the merge in flight answers
  // everyone when it completes. Fanning out again would clobber it.
  auto in_flight = pending_scrapes_.find(req_id);
  if (in_flight != pending_scrapes_.end()) {
    auto& waiters = in_flight->second.reply_to;
    if (std::find(waiters.begin(), waiters.end(), reply_to) == waiters.end()) {
      waiters.push_back(reply_to);
    }
    return Status::ok();
  }
  // A retry that crossed the completed merge's response on the wire: answer
  // from the cache instead of re-running the whole subtree fan-out.
  for (const auto& [done_id, snap] : recent_merges_) {
    if (done_id == req_id) return send_scrape_rsp(reply_to, req_id, snap);
  }

  PendingScrape pending;
  pending.reply_to.push_back(reply_to);
  pending.acc = local_snapshot();

  std::vector<StationId> targets;
  if (position_ != 0) {
    for (std::uint64_t child : children_of(position_, m_, tree_order().size())) {
      targets.push_back(tree_order()[child - 1]);
    }
  }
  pending.outstanding = targets.size();
  if (!targets.empty()) {
    // A dead subtree must not hang the merge (and everything above it)
    // forever: after a deadline scaled by how deep below us the slowest
    // answer can originate, deliver what has arrived.
    std::uint64_t height =
        position_ == 0 ? 1 : subtree_height(position_, m_, tree_order().size());
    pending.timer =
        fabric_->schedule_on(self_, config_.rpc.deadline * static_cast<std::int64_t>(height + 1),
                             [this, req_id] { on_scrape_deadline(req_id); });
  }
  pending_scrapes_[req_id] = std::move(pending);

  for (StationId child : targets) {
    Writer w;
    w.u64(req_id);
    Status s = send(child, net::kMetricsRequest, w.take());
    if (!s.is_ok()) {
      // An unreachable child still has to be accounted for, or the merge
      // would wait forever. Its subtree is simply absent from the result.
      --pending_scrapes_[req_id].outstanding;
      WDOC_WARN("station %llu: scrape fan-out to %llu failed: %s",
                static_cast<unsigned long long>(self_.value()),
                static_cast<unsigned long long>(child.value()), s.message().c_str());
    }
  }
  finish_scrape_if_done(req_id);
  return Status::ok();
}

void StationNode::on_scrape_req(const net::Message& msg) {
  Reader r(msg.payload);
  auto req_id = r.u64();
  if (!req_id) return;
  (void)start_scrape(req_id.value(), msg.from);
}

void StationNode::on_scrape_rsp(const net::Message& msg) {
  Reader r(msg.payload);
  auto req_id = r.u64();
  if (!req_id) return;
  auto it = pending_scrapes_.find(req_id.value());
  if (it == pending_scrapes_.end()) {
    // Merge already completed (deadline fired, or a duplicate child
    // answer): counted and ignored.
    rpc_.note_duplicate();
    return;
  }
  auto child_snap = obs::decode_snapshot(r);
  if (!child_snap) {
    WDOC_WARN("station %llu: bad scrape response from %llu: %s",
              static_cast<unsigned long long>(self_.value()),
              static_cast<unsigned long long>(msg.from.value()),
              child_snap.message().c_str());
  } else {
    obs::merge_snapshot(it->second.acc, child_snap.value());
  }
  if (it->second.outstanding > 0) --it->second.outstanding;
  finish_scrape_if_done(req_id.value());
}

void StationNode::on_scrape_deadline(std::uint64_t req_id) {
  auto it = pending_scrapes_.find(req_id);
  if (it == pending_scrapes_.end()) return;
  count<&NodeStats::scrape_partials>();
  obs::FlightRecorder::global().record(
      obs::FlightKind::scrape,
      "scrape merge timed out with " + std::to_string(it->second.outstanding) +
          " child subtree(s) missing: delivering partial merge",
      self_.value(), req_id, fabric_->now());
  it->second.outstanding = 0;
  finish_scrape_if_done(req_id);
}

void StationNode::finish_scrape_if_done(std::uint64_t req_id) {
  auto it = pending_scrapes_.find(req_id);
  if (it == pending_scrapes_.end() || it->second.outstanding != 0) return;
  PendingScrape done = std::move(it->second);
  pending_scrapes_.erase(it);
  cancel(done.timer);
  // Keep the merge around briefly for retries that crossed it on the wire.
  recent_merges_.emplace_back(req_id, done.acc);
  if (recent_merges_.size() > kRecentMerges) recent_merges_.pop_front();
  for (StationId waiter : done.reply_to) {
    (void)send_scrape_rsp(waiter, req_id, done.acc);
  }
}

}  // namespace wdoc::dist
