// Refcounted immutable payload buffers — the fabric's unit of bulk bytes.
//
// A Payload is a view (pointer + length) into a shared heap buffer. Copying
// a Payload bumps a refcount; wrap() views a window of a shared buffer
// without touching the bytes. That makes the chunked distribution tree
// genuinely zero-copy: a verified chunk lands once in a station's
// reassembly buffer and every relay hop forwards a view of that same
// buffer (ChunkPipeline.RealPayloadRelayIsZeroCopy checks it).
//
// The bytes behind a live Payload never change (see DESIGN.md "Buffer
// ownership"); Payload has no way to copy or mutate them.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "common/serialize.hpp"

namespace wdoc::net {

class Payload {
 public:
  Payload() = default;

  // Takes ownership of an owned buffer (e.g. Writer::take()) — no copy.
  /*implicit*/ Payload(Bytes&& b);
  /*implicit*/ Payload(std::string&& s);

  // Shares the [offset, offset+len) window of `buf` — no copy. The buffer
  // must outlive nothing: the Payload keeps it alive. Out-of-range windows
  // are clamped to the buffer's end.
  [[nodiscard]] static Payload wrap(std::shared_ptr<const Bytes> buf, std::size_t offset,
                                    std::size_t len);

  [[nodiscard]] const std::uint8_t* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::span<const std::uint8_t> span() const { return {data_, size_}; }
  /*implicit*/ operator std::span<const std::uint8_t>() const { return span(); }
  // The bytes viewed as text (HTTP bodies, JSON exports).
  [[nodiscard]] std::string_view text() const {
    return {reinterpret_cast<const char*>(data_), size_};
  }

  // Process-wide deep-copy totals (the net.payload.* counters, registered
  // at startup so every metrics dump shows them). Payload itself makes no
  // copy, so they read 0.
  [[nodiscard]] static std::uint64_t copies_total();
  [[nodiscard]] static std::uint64_t bytes_copied_total();

 private:
  std::shared_ptr<const void> owner_;
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

[[nodiscard]] inline bool operator==(const Payload& a, const Payload& b) {
  return std::equal(a.data(), a.data() + a.size(), b.data(), b.data() + b.size());
}

}  // namespace wdoc::net
