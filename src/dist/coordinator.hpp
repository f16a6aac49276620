// Coordinator: the paper's "class administrator" front end for network
// information. It owns the broadcast vector ("a linear sequence of
// workstation IP addresses") and "maintains the sizes of m's, based on the
// number of workstations and the physical network bandwidth for different
// types of multimedia data" (§4). Course registration is core::Registrar's.
#pragma once

#include <array>
#include <map>
#include <vector>

#include "blob/media.hpp"
#include "dist/station_node.hpp"

namespace wdoc::dist {

class Coordinator {
 public:
  // --- station registry (join order defines tree positions) --------------
  void register_station(StationId id);
  [[nodiscard]] const std::vector<StationId>& broadcast_vector() const {
    return stations_;
  }
  [[nodiscard]] std::size_t station_count() const { return stations_.size(); }
  [[nodiscard]] std::optional<std::uint64_t> position_of(StationId id) const;

  // --- fan-out management ---------------------------------------------
  [[nodiscard]] std::uint64_t m_for(blob::MediaType type) const;
  // Recomputes m for every media type from the current station count and a
  // measured uplink bandwidth — "adaptive to changing network conditions".
  void adapt(double uplink_bps, double latency_s);

 private:
  std::vector<StationId> stations_;
  std::map<StationId, std::uint64_t> positions_;
  std::array<std::uint64_t, blob::kMediaTypeCount> m_by_media_{};
};

}  // namespace wdoc::dist
