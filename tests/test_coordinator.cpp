// Coordinator (class administrator) tests: broadcast vector bookkeeping
// and per-media adaptive m.
#include <gtest/gtest.h>

#include "dist/coordinator.hpp"

namespace wdoc::dist {
namespace {

TEST(Coordinator, JoinOrderDefinesPositions) {
  Coordinator coord;
  coord.register_station(StationId{10});
  coord.register_station(StationId{20});
  coord.register_station(StationId{30});
  coord.register_station(StationId{20});  // duplicate join ignored
  EXPECT_EQ(coord.station_count(), 3u);
  EXPECT_EQ(coord.position_of(StationId{10}), 1u);
  EXPECT_EQ(coord.position_of(StationId{30}), 3u);
  EXPECT_EQ(coord.position_of(StationId{99}), std::nullopt);
  EXPECT_EQ(coord.broadcast_vector(),
            (std::vector<StationId>{StationId{10}, StationId{20}, StationId{30}}));
}

TEST(Coordinator, DefaultMIsConservative) {
  Coordinator coord;
  EXPECT_EQ(coord.m_for(blob::MediaType::video), 2u);
}

TEST(Coordinator, AdaptPicksSmallerFanoutForHeavierMedia) {
  Coordinator coord;
  for (std::uint64_t i = 1; i <= 500; ++i) coord.register_station(StationId{i});
  coord.adapt(/*uplink_bps=*/10e6, /*latency_s=*/0.05);
  // Video (10 MB) should broadcast through a narrower tree than MIDI (12 KB).
  EXPECT_LE(coord.m_for(blob::MediaType::video), coord.m_for(blob::MediaType::midi));
  EXPECT_GE(coord.m_for(blob::MediaType::midi), 2u);
}

}  // namespace
}  // namespace wdoc::dist
