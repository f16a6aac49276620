#include "net/fabric.hpp"

#include "obs/metrics.hpp"

namespace wdoc::net {

const FabricTraffic& FabricTraffic::get() {
  static const FabricTraffic* traffic = [] {
    auto& reg = obs::MetricsRegistry::global();
    return new FabricTraffic{
        reg.counter("net.messages_sent"),
        reg.counter("net.messages_received"),
        reg.counter("net.bytes_sent"),
        reg.counter("net.bytes_received"),
        reg.histogram("net.delivery_latency", {{"unit", "us"}}),
    };
  }();
  return *traffic;
}

}  // namespace wdoc::net
