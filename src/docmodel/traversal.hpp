// Web-traversal message logs ("windowing messages which control a Web
// document traversal", §3). The QA tool records a stream of UI events while
// exercising an implementation; the stream is stored in the test-record row
// and replayed to reproduce bugs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "common/serialize.hpp"

namespace wdoc::docmodel {

enum class TraversalEventKind : std::uint8_t {
  navigate = 0,   // follow a link to a URL
  click = 1,      // mouse click at (x, y)
  scroll = 2,     // scroll by dy
  back = 3,
  forward = 4,
  play_media = 5, // start a multimedia resource
  close = 6,
};

struct TraversalEvent {
  TraversalEventKind kind = TraversalEventKind::navigate;
  std::int64_t at_ms = 0;   // offset from session start
  std::string target;       // URL / resource digest, when applicable
  std::int32_t x = 0, y = 0;

  friend bool operator==(const TraversalEvent&, const TraversalEvent&) = default;
};

class TraversalLog {
 public:
  void add(TraversalEvent ev) { events_.push_back(std::move(ev)); }
  [[nodiscard]] const std::vector<TraversalEvent>& events() const { return events_; }
  [[nodiscard]] std::size_t size() const { return events_.size(); }
  [[nodiscard]] bool empty() const { return events_.empty(); }

  [[nodiscard]] Bytes encode() const;
  [[nodiscard]] static Result<TraversalLog> decode(const Bytes& data);

  friend bool operator==(const TraversalLog&, const TraversalLog&) = default;

 private:
  std::vector<TraversalEvent> events_;
};

}  // namespace wdoc::docmodel
