#include "docmodel/traversal.hpp"

namespace wdoc::docmodel {

Bytes TraversalLog::encode() const {
  Writer w;
  w.str("WDTRV1");
  w.u32(static_cast<std::uint32_t>(events_.size()));
  for (const TraversalEvent& ev : events_) {
    w.u8(static_cast<std::uint8_t>(ev.kind));
    w.i64(ev.at_ms);
    w.str(ev.target);
    w.u32(static_cast<std::uint32_t>(ev.x));
    w.u32(static_cast<std::uint32_t>(ev.y));
  }
  return w.take();
}

Result<TraversalLog> TraversalLog::decode(const Bytes& data) {
  Reader r(data);
  auto magic = r.str();
  if (!magic) return magic.error();
  if (magic.value() != "WDTRV1") return Error{Errc::corrupt, "bad traversal magic"};
  auto n = r.count();
  if (!n) return n.error();
  TraversalLog log;
  for (std::uint32_t i = 0; i < n.value(); ++i) {
    TraversalEvent ev;
    auto kind = r.u8();
    if (!kind) return kind.error();
    if (kind.value() > static_cast<std::uint8_t>(TraversalEventKind::close)) {
      return Error{Errc::corrupt, "bad traversal event kind"};
    }
    ev.kind = static_cast<TraversalEventKind>(kind.value());
    auto at = r.i64();
    if (!at) return at.error();
    ev.at_ms = at.value();
    auto target = r.str();
    if (!target) return target.error();
    ev.target = std::move(target).value();
    auto x = r.u32();
    auto y = r.u32();
    if (!x || !y) return Error{Errc::corrupt, "truncated traversal event"};
    ev.x = static_cast<std::int32_t>(x.value());
    ev.y = static_cast<std::int32_t>(y.value());
    log.add(std::move(ev));
  }
  return log;
}

}  // namespace wdoc::docmodel
