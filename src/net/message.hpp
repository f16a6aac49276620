// Messages exchanged between stations, over either the discrete-event
// simulator or the in-process threaded transport.
//
// `wire_size` is what the network charges for the message; simulations send
// multi-megabyte lectures as declared sizes with small payloads, while the
// threaded transport carries real payload bytes.
#pragma once

#include <cstdint>
#include <string>

#include "common/ids.hpp"
#include "common/serialize.hpp"
#include "net/payload.hpp"
#include "obs/trace.hpp"

namespace wdoc::net {

// Framing overhead the fabric charges on top of the payload bytes when no
// explicit wire_size is declared. SimNetwork and ThreadTransport both
// account through charged_size(), so this is the single point of truth.
inline constexpr std::uint64_t kWireHeaderBytes = 64;

struct Message {
  StationId from;
  StationId to;
  std::string type;  // protocol discriminator, e.g. "dist.push"
  Payload payload;   // protocol-defined header/body bytes
  // Bulk bytes riding behind the protocol header (chunk payloads). Kept out
  // of `payload` so a relay sends them as a refcounted view, never copied,
  // while re-encoding only the small per-hop header. Empty for most messages.
  Payload body;
  std::uint64_t wire_size = 0;  // bytes charged on the wire (0 -> payload size)
  std::uint64_t seq = 0;        // assigned by the fabric
  // End-to-end trace this message belongs to: the trace id minted at the
  // initiator, the sender-side span acting as parent (receivers parent
  // their own spans on it, so a trace follows a push down the whole
  // distribution tree — both fabrics are in-process), and the initiator's
  // head-sample verdict so downstream stations never re-flip the coin.
  obs::TraceContext trace;

  [[nodiscard]] std::uint64_t charged_size() const {
    return wire_size != 0 ? wire_size : payload.size() + body.size() + kWireHeaderBytes;
  }
};

// In-fabric metrics scraping (the observability plane's own protocol):
//   MetricsRequest   {req_id}                  fans down the m-ary tree —
//                                              each node forwards to its
//                                              broadcast-tree children;
//   MetricsResponse  {req_id, snapshot}        aggregates back up — a node
//                                              merges every child response
//                                              into its own station-labeled
//                                              snapshot before replying.
// Payloads are built with obs::encode_snapshot; see StationNode::on_scrape_*.
inline constexpr const char* kMetricsRequest = "obs.metrics_req";
inline constexpr const char* kMetricsResponse = "obs.metrics_rsp";

}  // namespace wdoc::net
