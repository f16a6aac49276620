#include "dist/coordinator.hpp"

#include <algorithm>

namespace wdoc::dist {

void Coordinator::register_station(StationId id) {
  if (positions_.contains(id)) return;
  stations_.push_back(id);
  positions_[id] = stations_.size();  // 1-based linear join order
}

std::optional<std::uint64_t> Coordinator::position_of(StationId id) const {
  auto it = positions_.find(id);
  if (it == positions_.end()) return std::nullopt;
  return it->second;
}

std::uint64_t Coordinator::m_for(blob::MediaType type) const {
  std::uint64_t m = m_by_media_[static_cast<std::size_t>(type)];
  return m == 0 ? 2 : m;  // conservative binary tree until adapted
}

void Coordinator::adapt(double uplink_bps, double latency_s) {
  const std::uint64_t n = std::max<std::uint64_t>(stations_.size(), 1);
  for (std::size_t t = 0; t < blob::kMediaTypeCount; ++t) {
    const std::uint64_t bytes =
        blob::typical_media_bytes(static_cast<blob::MediaType>(t));
    m_by_media_[t] = choose_m(n, bytes, uplink_bps, latency_s);
  }
}

}  // namespace wdoc::dist
