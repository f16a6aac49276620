// StationNode: the distribution protocol actor running at every station.
//
// Implements the paper's mechanisms (§4):
//   * pre-broadcast push: lectures multicast down the full m-ary tree —
//     each node stores an ephemeral copy and forwards to its children from
//     the broadcast vector;
//   * on-demand pull: a station missing a document asks up its parent
//     chain; the response relays back down the same chain store-and-forward
//     ("a child node copies information from its parent node");
//   * watermark replication: after `watermark` remote retrievals of the
//     same document, the physical data is materialized locally;
//   * post-lecture migration: ephemeral instances demote to references,
//     releasing BLOB references ("duplicated document instances migrate to
//     document references");
//   * blob-level fetches for on-demand streaming (experiment E3).
//
// Fetches and chunk pulls run through the unified rpc lifecycle layer
// (net/rpc.hpp): per-request deadlines, capped exponential backoff with
// seeded jitter, and terminal error delivery; a pushed chunk is a slot in
// its child's cursor instead. Consecutive attempt timeouts of either kind
// against one peer feed a failure detector: after kFailoverThreshold of
// them the peer is declared dead, and routing falls back to the nearest
// live ancestor — the paper's placement equation ⌊(k−i−1)/m⌋+1 applied
// repeatedly (see grandparent_position in mtree.hpp). Any message later
// received from a declared-dead station resurrects it.
//
// The node is transport-agnostic: it runs identically over SimNetwork and
// ThreadTransport (Fabric).
#pragma once

#include <deque>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "dist/mtree.hpp"
#include "dist/object_store.hpp"
#include "net/chunk_wire.hpp"
#include "net/fabric.hpp"
#include "net/rpc.hpp"
#include "net/swarm_wire.hpp"
#include "obs/scrape.hpp"
#include "swarm/config.hpp"
#include "swarm/scheduler.hpp"

namespace wdoc::dist {

// Knobs of the chunked cut-through push/pull paths. A push splits every
// BLOB into `chunk_bytes` chunks; an interior station relays chunk k to its
// children as soon as it verifies, holding at most `window` unacked chunks
// in flight per child (each one a slot in the child's cursor, with a due
// time and the rpc retry budget). Pull-side repair and fetch_blob request
// at most `repair_batch` missing indices per round.
struct ChunkConfig {
  std::uint32_t chunk_bytes = 256 * 1024;
  std::uint32_t window = 32;
  std::uint32_t repair_batch = 64;

  [[nodiscard]] Status validate() const;
};

// All of a station's protocol settings in one validated place: replication
// behavior plus the rpc lifecycle every remote operation runs under. The
// tunings no deployment varies are constants: kFailoverThreshold below,
// the retry budget and backoff shape in net/rpc.hpp, and the swarm's in
// swarm/config.hpp.
struct StationConfig {
  // Remote retrievals of one document before it is replicated locally.
  // 1 replicates on first fetch; a very large value disables replication.
  // Zero is rejected by validate() — it would mean "replicate before the
  // first retrieval", which no code path can honor.
  std::uint64_t watermark = 4;
  // If true, intermediate stations relaying a pull response also keep an
  // ephemeral copy (ablation of the paper's "only reviewers duplicate").
  bool relay_cache = false;
  // Deadline and backoff of every rpc this node issues.
  net::RpcOptions rpc;
  // Floor on the assumed transfer rate when scaling a blob fetch's deadline
  // by payload size (a 25 MB blob legitimately serializes for ~40 s on a
  // 10 Mb/s campus link; a flat deadline would retransmit mid-transfer).
  double min_bandwidth_bps = 1e6;
  // Chunked transfer knobs (push pipelining, windowing, chunk repair).
  ChunkConfig chunk;
  // Multi-source swarm distribution (stripe trees + bitmap gossip +
  // rarest-first pull). Off by default: pushes use the single-tree chunked
  // pipeline.
  swarm::SwarmConfig swarm;

  [[nodiscard]] Status validate() const;
};

// Consecutive attempt timeouts against one peer before it is declared
// dead and routing reparents around it.
inline constexpr std::uint32_t kFailoverThreshold = 3;

// A station's event counters. Every field is listed once in kNodeStatRows
// below, which is the single definition behind local_snapshot() (and thus
// scrapes) and the process-wide registry counters.
struct NodeStats {
  std::uint64_t pushes_received = 0;
  std::uint64_t pushes_forwarded = 0;  // pushes/begins sent to tree children
  std::uint64_t push_attempts = 0;     // push/chunk-begin sends attempted
  std::uint64_t fetches_local = 0;     // resolved from local materialized copy
  std::uint64_t fetches_remote = 0;    // had to go up the chain
  std::uint64_t pulls = 0;             // remote fetches attempted, routable or not
  std::uint64_t serves = 0;            // requests answered from local data
  std::uint64_t relays = 0;            // pull responses relayed downward
  std::uint64_t forwards_up = 0;       // pull requests forwarded to parent
  std::uint64_t replications = 0;      // watermark-triggered materializations
  std::uint64_t demotions = 0;         // instances migrated back to references
  std::uint64_t failed_fetches = 0;
  std::uint64_t failovers = 0;         // peers this node declared dead
  std::uint64_t resurrections = 0;     // declared-dead peers heard from again
  std::uint64_t scrape_partials = 0;   // scrape merges cut short by their deadline
  // Chunked transfer path:
  std::uint64_t chunks_sent = 0;          // data chunks sent (push + repair)
  std::uint64_t chunks_received = 0;      // chunks verified into partial assembly
  std::uint64_t chunk_duplicate_rx = 0;   // already-held chunks received again
  std::uint64_t chunk_wasted_bytes = 0;   // wire bytes those duplicates cost
  std::uint64_t chunk_rejects = 0;        // failed digest/bounds verification
  std::uint64_t chunk_orphans = 0;        // chunks without assembly state here
  std::uint64_t chunk_retransmits = 0;    // resends of an overdue pushed chunk
  std::uint64_t chunk_repair_reqs = 0;    // chunk pull rounds sent
  std::uint64_t chunk_repair_served = 0;  // chunks served to pull requests
  std::uint64_t chunk_bytes_sent = 0;     // payload bytes across chunk sends
  // Swarm path:
  std::uint64_t swarm_begins_sent = 0;       // SwarmBegins sent, resends included
  std::uint64_t swarm_haves_sent = 0;        // gossip bitmaps sent
  std::uint64_t swarm_reqs_sent = 0;         // rarest-first request messages
  std::uint64_t swarm_chunks_requested = 0;  // chunk indices across those
  std::uint64_t swarm_chunks_served = 0;     // chunks served to swarm requests
  std::uint64_t swarm_relay_suppressed = 0;  // relays skipped: child already has it
  std::uint64_t swarm_orphans = 0;           // gossip for a transfer unknown here
};

// One row per NodeStats field: its scrape name (`station.<field>`) and the
// process-wide registry counter that sums it over every station in the
// process (null for station-only rows).
struct NodeStatRow {
  const char* scrape;
  std::uint64_t NodeStats::*field;
  const char* registry;
};

inline constexpr NodeStatRow kNodeStatRows[] = {
    {"station.pushes_received", &NodeStats::pushes_received, nullptr},
    {"station.pushes_forwarded", &NodeStats::pushes_forwarded, nullptr},
    {"station.push_attempts", &NodeStats::push_attempts, "dist.pushes"},
    {"station.fetches_local", &NodeStats::fetches_local, nullptr},
    {"station.fetches_remote", &NodeStats::fetches_remote, nullptr},
    {"station.pulls", &NodeStats::pulls, "dist.pulls"},
    {"station.serves", &NodeStats::serves, "dist.serves"},
    {"station.relays", &NodeStats::relays, nullptr},
    {"station.forwards_up", &NodeStats::forwards_up, nullptr},
    {"station.replications", &NodeStats::replications, "dist.replications"},
    {"station.demotions", &NodeStats::demotions, "dist.migrations"},
    {"station.failed_fetches", &NodeStats::failed_fetches, "dist.failed_fetches"},
    {"station.failovers", &NodeStats::failovers, "dist.failovers"},
    {"station.resurrections", &NodeStats::resurrections, "dist.resurrections"},
    {"station.scrape_partials", &NodeStats::scrape_partials, "dist.scrape_partials"},
    {"station.chunks_sent", &NodeStats::chunks_sent, "dist.chunk.sent"},
    {"station.chunks_received", &NodeStats::chunks_received, nullptr},
    {"station.chunk_duplicate_rx", &NodeStats::chunk_duplicate_rx,
     "dist.chunk.duplicate_rx"},
    {"station.chunk_wasted_bytes", &NodeStats::chunk_wasted_bytes,
     "dist.chunk.wasted_bytes"},
    {"station.chunk_rejects", &NodeStats::chunk_rejects, "dist.chunk.rejects"},
    {"station.chunk_orphans", &NodeStats::chunk_orphans, "dist.chunk.orphaned"},
    {"station.chunk_retransmits", &NodeStats::chunk_retransmits,
     "dist.chunk.retransmits"},
    {"station.chunk_repair_reqs", &NodeStats::chunk_repair_reqs,
     "dist.chunk.repair_reqs"},
    {"station.chunk_repair_served", &NodeStats::chunk_repair_served,
     "dist.chunk.repair_served"},
    {"station.chunk_bytes_sent", &NodeStats::chunk_bytes_sent, "dist.chunk.bytes_sent"},
    {"station.swarm_begins_sent", &NodeStats::swarm_begins_sent, "swarm.begins"},
    {"station.swarm_haves_sent", &NodeStats::swarm_haves_sent, "swarm.haves"},
    {"station.swarm_reqs_sent", &NodeStats::swarm_reqs_sent, "swarm.reqs"},
    {"station.swarm_chunks_requested", &NodeStats::swarm_chunks_requested,
     "swarm.req_chunks"},
    {"station.swarm_chunks_served", &NodeStats::swarm_chunks_served, "swarm.served"},
    {"station.swarm_relay_suppressed", &NodeStats::swarm_relay_suppressed,
     "swarm.relay_suppressed"},
    {"station.swarm_orphans", &NodeStats::swarm_orphans, "swarm.orphans"},
};
static_assert(sizeof(NodeStats) == std::size(kNodeStatRows) * sizeof(std::uint64_t),
              "every NodeStats field needs exactly one kNodeStatRows row");

class StationNode {
 public:
  // Canonical completion shape for every remote operation: (Result<T>,
  // completion time). See net/rpc.hpp.
  using FetchCallback = net::Rpc<DocManifest>;
  using BlobFetchCallback = net::Rpc<BlobRef>;
  using SnapshotCallback = net::Rpc<obs::Snapshot>;

  StationNode(net::Fabric& fabric, StationId self, ObjectStore& store,
              StationConfig config = {});
  // Cancels every timer the node armed, so the fabric may run on after the
  // node is gone (its owner clears the fabric handler first).
  ~StationNode();
  StationNode(const StationNode&) = delete;
  StationNode& operator=(const StationNode&) = delete;

  // Installs this node's message handler on the fabric.
  void bind();
  // Feeds one message to the protocol directly — for wrappers (e.g.
  // AdminClient) that own the fabric handler and demultiplex.
  void handle(const net::Message& msg) { on_message(msg); }

  // --- topology -----------------------------------------------------------
  // The class administrator's broadcast vector (stations in linear join
  // order) and the tree fan-out m. The node derives its own position.
  // The shared-ownership overload lets every node of an N-station cluster
  // alias one vector instead of holding its own copy — at N=10,000 that is
  // the difference between one 80 kB vector and 800 MB of duplicates.
  void set_tree(std::shared_ptr<const std::vector<StationId>> broadcast_vector,
                std::uint64_t m);
  void set_tree(std::vector<StationId> broadcast_vector, std::uint64_t m);
  [[nodiscard]] std::uint64_t position() const { return position_; }
  // Static tree parent from the placement equation — ignores liveness.
  [[nodiscard]] std::optional<StationId> parent_station() const;
  // Failover route: the nearest ancestor not declared dead (grandparent,
  // great-grandparent, ... when parents have failed). nullopt at the root
  // or when the whole ancestor chain is declared dead.
  [[nodiscard]] std::optional<StationId> live_parent_station() const;

  // --- failure detector ----------------------------------------------------
  [[nodiscard]] bool is_declared_dead(StationId s) const { return dead_.contains(s); }
  [[nodiscard]] const std::set<StationId>& dead_stations() const { return dead_; }
  // This station's own fabric-level liveness (false while crashed).
  [[nodiscard]] bool online() const { return fabric_->is_online(self_); }

  // --- instructor side ------------------------------------------------------
  // Root of a multicast: stores a persistent instance (if not already held)
  // and pushes down the tree. Children receive ephemeral copies. The push
  // is chunked and pipelined: interior stations relay each verified chunk
  // before the next arrives, so makespan approaches
  // blob_time + depth * chunk_time instead of depth * blob_time. With
  // config().swarm.enabled it is the multi-source swarm push instead.
  [[nodiscard]] Status broadcast_push(const DocManifest& manifest);
  // The paper's whole-manifest store-and-forward push, kept as the
  // reference for A/B comparison (bench_prebroadcast, bench_broadcast_fanout,
  // the pipelining regression test). Only reachable through this call.
  [[nodiscard]] Status broadcast_push_store_forward(const DocManifest& manifest);

  // "References to the instance are broadcasted and stored in many remote
  // stations" (§4): multicasts a reference record (manifest only, tiny wire
  // size) down the tree so every station can later pull on demand.
  [[nodiscard]] Status announce_reference(const DocManifest& manifest);

  // --- student side --------------------------------------------------------
  // Resolves a document: local hit completes synchronously; otherwise the
  // request travels up the live parent chain (or straight to `home` when no
  // tree is configured) and `cb` fires exactly once — with the manifest, or
  // with a terminal error (Errc::timeout / Errc::unreachable / the remote
  // Errc) once the retry budget is spent.
  [[nodiscard]] Status fetch(const std::string& doc_key, FetchCallback cb);

  // Fetches one BLOB's payload from `holder`, pulled chunk by chunk (a blob
  // no larger than one chunk is a single chunk), so an interrupted fetch
  // resumes from the bitmap. On completion the payload is registered in
  // the local BlobStore, so a repeat fetch of the same content completes
  // locally without network traffic.
  [[nodiscard]] Status fetch_blob(StationId holder, const std::string& doc_key,
                                  const BlobRef& blob, BlobFetchCallback cb);

  // Chunk-granularity anti-entropy: ensures a local reference, then pulls
  // only the chunks of the manifest's blobs this station is missing (up the
  // live parent chain, falling back to the manifest home), and materializes
  // an ephemeral instance once every blob is complete. A station whose push
  // was partially lost re-transfers kilobytes, not whole BLOBs. `cb` fires
  // exactly once: with the manifest after materialization, or with the
  // first terminal error of the round (partial progress is kept — the next
  // repair round continues from the bitmap).
  [[nodiscard]] Status repair_pull(const DocManifest& manifest, FetchCallback cb);

  // Post-lecture migration: every ephemeral instance demotes to a
  // reference; returns reclaimable bytes (after the BlobStore gc).
  std::uint64_t end_lecture();

  // --- observability plane -------------------------------------------------
  // This station's own counters as a metrics snapshot, every sample tagged
  // with a `station=<id>` label: one counter per kNodeStatRows row, the rpc
  // lifecycle counters, and the disk/doc gauges. This is what a scrape
  // response carries.
  [[nodiscard]] obs::Snapshot local_snapshot() const;

  // Initiates a hierarchical scrape of this node's subtree: the request
  // fans down the broadcast tree, each node merges its children's responses
  // into its own station-labeled snapshot on the way back up, and `cb`
  // fires once here with the subtree-wide merge. Called on the tree root
  // (directly or via AdminNode::scrape_cluster) this yields the whole
  // cluster in one snapshot. A merge waiting on a dead subtree completes
  // partially after a height-scaled deadline instead of hanging.
  [[nodiscard]] Status scrape_tree(SnapshotCallback cb);

  [[nodiscard]] ObjectStore& store() { return *store_; }
  [[nodiscard]] const NodeStats& stats() const { return stats_; }
  [[nodiscard]] net::RpcStats rpc_stats() const { return rpc_.stats(); }
  // Fetches and chunk-pull rounds still awaiting a response or retry (0
  // once the fabric drains). A push's unacked chunks show in active_transfers().
  [[nodiscard]] std::size_t pending_rpcs() const { return rpc_.pending(); }
  [[nodiscard]] StationId id() const { return self_; }
  [[nodiscard]] const StationConfig& config() const { return config_; }
  void set_watermark(std::uint64_t w) { config_.watermark = w; }

  // Chunked transfers (push) still assembling here, including fully-received
  // ones whose children have unacked chunks in flight.
  [[nodiscard]] std::size_t active_transfers() const { return transfers_.size(); }

  // When this station last materialized a pushed lecture (zero before the
  // first push completes locally). Benches compute a broadcast's makespan
  // as the max across stations, which — unlike the fabric's quiescence
  // time — excludes the swarm gossip tail after the last delivery.
  [[nodiscard]] SimTime last_delivery() const { return last_delivery_; }

  // Message type tags (public for tests). Chunk and swarm tags live in
  // net/chunk_wire.hpp and net/swarm_wire.hpp.
  static constexpr const char* kPush = "dist.push";
  static constexpr const char* kRefAnnounce = "dist.ref";
  static constexpr const char* kFetchReq = "dist.fetch_req";
  static constexpr const char* kFetchRsp = "dist.fetch_rsp";
  static constexpr const char* kFetchErr = "dist.fetch_err";

 private:
  void on_message(const net::Message& msg);
  void on_push(const net::Message& msg);
  void on_ref_announce(const net::Message& msg);
  void on_fetch_req(const net::Message& msg);
  void on_fetch_rsp(const net::Message& msg);
  void on_fetch_err(const net::Message& msg);
  void on_chunk_data(const net::Message& msg);
  void on_chunk_ack(const net::Message& msg);
  void on_chunk_req(const net::Message& msg);
  void on_chunk_rsp(const net::Message& msg);
  void on_scrape_req(const net::Message& msg);
  void on_scrape_rsp(const net::Message& msg);

  // Sends one `type` message: the only place the node builds a
  // net::Message. A zero wire_size charges the payload and body themselves.
  [[nodiscard]] Status send(StationId to, const char* type, net::Payload payload,
                            std::uint64_t wire_size = 0, obs::TraceContext trace = {},
                            net::Payload body = {});
  // A fresh id for a request, transfer or scrape, unique per station.
  [[nodiscard]] std::uint64_t next_id() { return (self_.value() << 24) | ++next_req_; }
  // One (re)send of an in-flight pull: recomputes the route each attempt,
  // so retries travel the repaired chain after a reparent.
  [[nodiscard]] Status send_fetch_req(std::uint64_t req_id, const std::string& doc_key);
  // The store-and-forward push: the manifest to every tree child, charged
  // at the document's full size.
  [[nodiscard]] Status send_push(const net::Payload& manifest, std::uint64_t wire_size,
                                 obs::TraceContext trace);

  // Adds `n` to stats_.*Field and, for a row with a registry name, to its
  // process-wide counter.
  template <auto Field>
  void count(std::uint64_t n = 1);

  // Failure detector: consecutive attempt timeouts per routed-to peer.
  void note_attempt_timeout(StationId target);
  void declare_dead(StationId target);
  void note_alive(StationId from);

  // --- chunked push ---------------------------------------------------------
  // A pushed chunk awaiting its ChunkAck, and how often it was resent.
  struct InFlightChunk {
    SimTime due;
    std::uint32_t resends = 0;
  };
  // Per-child relay state of one transfer: chunks not yet sent (in arrival
  // order — the cut-through queue) and the bounded in-flight window, the
  // only ledger of a pushed chunk. One fabric timer, armed at or before the
  // window's earliest due time, covers every slot.
  struct ChildCursor {
    StationId child;
    std::deque<std::uint64_t> pending;                 // (blob_ordinal<<32)|index
    std::map<std::uint64_t, InFlightChunk> in_flight;  // chunk key -> its slot
    net::Fabric::TimerHandle timer;                    // null: no deadline armed
    // Swarm mode: which stripe tree this cursor feeds (only that tree's
    // chunks are relayed through it) and the child's 1-based position,
    // for bitmap-based relay suppression. tree is 0 and child_pos unset
    // on the single-tree pipeline.
    std::uint32_t tree = 0;
    std::uint64_t child_pos = 0;
  };
  // One queued swarm-mode chunk send: a stripe relay to a tree child
  // (serve=false) or a requested chunk to a pulling peer (serve=true).
  // peer_pos is the receiver's 1-based tree position, for last-moment
  // bitmap suppression.
  struct SwarmSend {
    StationId to;
    std::uint64_t peer_pos = 0;
    std::uint64_t key = 0;  // (blob_ordinal<<32)|index
    bool serve = false;
  };
  struct Transfer {
    DocManifest manifest;
    std::uint32_t chunk_bytes = 0;
    std::uint64_t total_chunks = 0;
    bool delivered = false;  // local instance materialized
    std::vector<ChildCursor> children;
    std::uint64_t span = 0;  // trace span covering this hop of the multicast
    // End-to-end trace of the whole multicast: derived deterministically
    // from the transfer id at the root, inherited from msg.trace.trace_id
    // at every hop below it (together with the head-sample verdict).
    std::uint64_t trace_id = 0;
    bool trace_sampled = false;
    // Swarm mode (DESIGN.md §4f):
    bool swarm = false;
    bool gossip_done = false;     // gossip loop finished; transfer may retire
    std::uint32_t stripe_trees = 1;
    // Global chunk index base per blob ordinal (size blobs+1): chunk g of
    // the transfer is blob upper_bound(g)-1, index g - prefix[ordinal].
    std::vector<std::uint32_t> chunk_prefix;
    std::unique_ptr<swarm::SwarmScheduler> sched;
    // Stripe-ancestor adoption (the swarm analogue of tree failover): the
    // closest ancestor per stripe tree we currently expect gossip from.
    // While it stays silent past kStallTimeout we walk one level further
    // up and adopt that ancestor as a gossip peer — a shallow ancestor
    // sees the chunk frontier seconds before the orphaned subtree does,
    // and its uplink has the dead child's relay slots to spare.
    std::vector<std::uint64_t> acting_parent;  // per tree; 0 = walked out
    std::vector<SimTime> acting_since;         // per tree: last walk time
    net::Fabric::TimerHandle gossip_timer;
    std::uint32_t gossip_rounds = 0;
    std::uint32_t idle_rounds = 0;
    std::uint64_t last_state_sum = 0;
    // Any SwarmHave/SwarmReq received since the last gossip tick. An
    // incomplete neighbor that is still *alive* keeps gossiping even when
    // its bitmap is frozen (it may be waiting on our serves) — hearing it
    // must hold this transfer open, or we retire while it still needs us.
    bool gossip_heard = false;
    // Paced swarm send queues: sends drain one chunk per uplink
    // chunk-time, so the fabric queue never grows beyond a chunk or two
    // and small control traffic (begins, gossip) is never stuck behind
    // seconds of bulk data. Stripe relays (swarm_queue) take priority over
    // request serves (swarm_serve_queue) — a relay feeds a whole subtree —
    // but after kServeStride consecutive relays one serve is interleaved,
    // so crash recovery drains steadily instead of waiting for the entire
    // relay backlog (see swarm::kServeStride).
    std::deque<SwarmSend> swarm_queue;
    std::deque<SwarmSend> swarm_serve_queue;
    std::uint32_t relays_since_serve = 0;
    net::Fabric::TimerHandle pace_timer;
    bool pacing = false;
  };

  // Receiving side: a ChunkBegin or SwarmBegin from the parent opens the
  // transfer here (the first begin wins; later ones are idempotent no-ops).
  template <typename Begin>
  void on_begin(const net::Message& msg);
  // Registers the transfer and opens its children; `trees` > 0 selects
  // swarm mode with that many stripe trees.
  void open_transfer(std::uint64_t transfer_id, Transfer t, std::uint32_t trees);
  // The transfer's ChunkBegin (or SwarmBegin in swarm mode), encoded once
  // and shared by every child it is sent to.
  [[nodiscard]] net::Payload begin_payload(std::uint64_t transfer_id,
                                           const Transfer& t) const;
  [[nodiscard]] Status send_begin(StationId to, const Transfer& t, net::Payload payload);
  // Forwards the transfer's begin to this node's tree children and creates
  // their cursors; enqueues every locally-held chunk (cut-through for the
  // rest happens as chunks verify in on_chunk_data).
  void open_transfer_children(std::uint64_t transfer_id, Transfer& t);
  void enqueue_held_chunks(Transfer& t, ChildCursor& cursor);
  // Resends overdue chunks (each an attempt timeout against the child) up
  // to net::kMaxRetries times, fills free slots from pending, then arms the
  // cursor's timer, or cancels it once the window has drained for good.
  void pump_cursor(std::uint64_t transfer_id, ChildCursor& cursor);
  // An ack for `child`'s window (its token, the chunk key + 1, frees the
  // slot) or the cursor's timer firing (token 0); then pumps the cursor.
  void settle_cursor(std::uint64_t transfer_id, StationId child, std::uint64_t ack_token);
  static void cancel_timers(Transfer& t);
  [[nodiscard]] Status send_chunk(std::uint64_t transfer_id, const Transfer& t,
                                  StationId child, std::uint64_t key,
                                  std::uint64_t req_id, bool retransmit);
  // Chunk `index` of a blob held here (or nothing: not held), its body the
  // stored slice itself; a synthetic blob's chunk has no body and is
  // charged chunk_len on the wire.
  [[nodiscard]] Result<net::ChunkData> held_chunk(const Digest128& digest,
                                                  std::uint64_t size, std::uint32_t index,
                                                  std::uint32_t chunk_bytes) const;
  [[nodiscard]] Status send_chunk_data(StationId to, const net::ChunkData& d,
                                       obs::TraceContext trace = {});
  // The manifest's blobs not yet complete here, at most `limit` of them.
  [[nodiscard]] std::vector<BlobRef> missing_blobs(const DocManifest& m,
                                                   std::size_t limit = SIZE_MAX) const;
  // Materializes the transfer here once every blob is held.
  void deliver_if_complete(Transfer& t);
  // Holds an ephemeral materialized copy of `m` here: a new instance, or
  // the local reference materialized (an instance already held stays).
  [[nodiscard]] Status hold_ephemeral(const DocManifest& m);
  void maybe_retire_transfer(std::uint64_t transfer_id);

  // --- swarm mode (multi-source distribution, DESIGN.md §4f) ---------------
  // Builds the transfer's swarm state: chunk prefix table, scheduler with
  // stripe parents and gossip neighbors, self bitmap seeded from the blob
  // store, and the first gossip tick.
  void init_swarm(std::uint64_t transfer_id, Transfer& t, std::uint32_t trees);
  // Sends SwarmBegin to every stripe-tree child and creates one cursor per
  // (child, tree); each cursor relays only its tree's chunks.
  void open_swarm_children(std::uint64_t transfer_id, Transfer& t);
  void enqueue_swarm_send(std::uint64_t transfer_id, Transfer& t, SwarmSend entry);
  void swarm_pace_tick(std::uint64_t transfer_id);
  [[nodiscard]] SimTime swarm_pace_interval(const Transfer& t) const;
  void schedule_swarm_tick(std::uint64_t transfer_id);
  // One gossip round: progress/idle bookkeeping, termination check, then
  // SwarmHave to every known peer and SwarmReq per scheduler plan.
  void on_swarm_tick(std::uint64_t transfer_id);
  void on_swarm_have(const net::Message& msg);
  void on_swarm_req(const net::Message& msg);
  // Gossip (a SwarmHave, or the bitmaps a SwarmReq piggybacks): feeds the
  // sender's report to the scheduler of the swarm transfer it names and
  // returns that transfer; null when the transfer is unknown here, its
  // geometry differs, or `position` is not the sender's.
  [[nodiscard]] Transfer* take_gossip(std::uint64_t transfer_id,
                                      std::uint32_t total_chunks, std::uint64_t position,
                                      StationId from, swarm::PeerReport report);

  // --- chunked pull / repair ------------------------------------------------
  // One blob's pull loop: request up to repair_batch missing chunks per
  // round from `holder` (or the live parent chain / `home` when unset),
  // repeat while rounds make progress, finish via `done`.
  struct BlobPull {
    std::string doc_key;
    BlobRef blob;
    std::optional<StationId> holder;
    StationId home;
    std::uint32_t chunk_bytes = 0;
    std::function<void(Status, SimTime)> done;
  };
  [[nodiscard]] Status pull_blob_chunks(BlobPull pull);
  [[nodiscard]] Status start_pull_round(std::shared_ptr<BlobPull> pull);
  [[nodiscard]] Status send_chunk_req(std::uint64_t req_id, const BlobPull& pull);

  // Starts pending-scrape state for `req_id` and fans the request to this
  // node's tree children; completes immediately at a leaf.
  [[nodiscard]] Status start_scrape(std::uint64_t req_id,
                                    std::optional<StationId> reply_to,
                                    SnapshotCallback cb);
  void finish_scrape_if_done(std::uint64_t req_id);
  void on_scrape_deadline(std::uint64_t req_id);
  [[nodiscard]] Status send_scrape_rsp(StationId to, std::uint64_t req_id,
                                       const obs::Snapshot& snap);

  net::Fabric* fabric_;
  StationId self_;
  ObjectStore* store_;
  StationConfig config_;
  NodeStats stats_;
  net::RpcTracker rpc_;

  // Shared with every other node of the cluster (see set_tree); read-only
  // through tree_order(). Never null — starts as an empty vector.
  std::shared_ptr<const std::vector<StationId>> broadcast_vector_ =
      std::make_shared<const std::vector<StationId>>();
  std::uint64_t m_ = 2;
  std::uint64_t position_ = 0;  // 1-based; 0 = not in tree

  [[nodiscard]] const std::vector<StationId>& tree_order() const {
    return *broadcast_vector_;
  }

  // Failure detector state: consecutive timeouts per peer, peers declared
  // dead, and the peer each in-flight fetch or pull round last routed to.
  std::map<StationId, std::uint32_t> suspect_;
  std::set<StationId> dead_;
  std::map<std::uint64_t, StationId> rpc_target_;

  // Chunked push transfers in flight (keyed by transfer id).
  std::map<std::uint64_t, Transfer> transfers_;

  // Hierarchical scrape in flight: requesters waiting on the merge (a retry
  // of an in-flight req_id registers as an extra waiter, never a second
  // fan-out), children yet to answer, the merged snapshot so far, and the
  // merge's own deadline.
  struct PendingScrape {
    std::vector<StationId> reply_to;
    SnapshotCallback cb;
    std::size_t outstanding = 0;
    obs::Snapshot acc;
    net::Fabric::TimerHandle timer;
  };
  std::map<std::uint64_t, PendingScrape> pending_scrapes_;
  // Bounded cache of recently-completed merges, so a retry that crossed the
  // original response on the wire gets the cached answer instead of
  // triggering a whole new subtree fan-out.
  std::deque<std::pair<std::uint64_t, obs::Snapshot>> recent_merges_;
  static constexpr std::size_t kRecentMerges = 8;

  SimTime last_delivery_{};
  std::uint64_t next_req_ = 0;
};

}  // namespace wdoc::dist
