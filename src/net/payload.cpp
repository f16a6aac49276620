#include "net/payload.hpp"

#include "obs/metrics.hpp"

namespace wdoc::net {

namespace {

// Process-wide: one pair of counters across every fabric and store.
struct PayloadMetrics {
  obs::Counter& copies;
  obs::Counter& bytes_copied;

  static PayloadMetrics& get() {
    static PayloadMetrics* m = [] {
      auto& reg = obs::MetricsRegistry::global();
      return new PayloadMetrics{
          reg.counter("net.payload.copies"),
          reg.counter("net.payload.bytes_copied"),
      };
    }();
    return *m;
  }
};

// Register at startup so the counters appear (at zero) in every metrics
// dump: CI drift-checks "no bytes copied", which must be distinguishable
// from "counter never existed".
const bool kRegisteredAtStartup = (PayloadMetrics::get(), true);

}  // namespace

Payload::Payload(Bytes&& b) {
  auto buf = std::make_shared<Bytes>(std::move(b));
  data_ = buf->data();
  size_ = buf->size();
  owner_ = std::move(buf);
}

Payload::Payload(std::string&& s) {
  auto buf = std::make_shared<std::string>(std::move(s));
  data_ = reinterpret_cast<const std::uint8_t*>(buf->data());
  size_ = buf->size();
  owner_ = std::move(buf);
}

Payload Payload::wrap(std::shared_ptr<const Bytes> buf, std::size_t offset, std::size_t len) {
  Payload p;
  if (!buf || offset >= buf->size()) return p;
  len = std::min(len, buf->size() - offset);
  p.data_ = buf->data() + offset;
  p.size_ = len;
  p.owner_ = std::move(buf);
  return p;
}

std::uint64_t Payload::copies_total() {
  return static_cast<std::uint64_t>(PayloadMetrics::get().copies.value());
}

std::uint64_t Payload::bytes_copied_total() {
  return static_cast<std::uint64_t>(PayloadMetrics::get().bytes_copied.value());
}

}  // namespace wdoc::net
