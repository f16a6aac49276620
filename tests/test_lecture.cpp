// LectureSession tests: the broadcast/audit/repair/migrate life cycle,
// including failure injection (lossy links dropping pushes) and repeated
// weekly sessions.
#include <gtest/gtest.h>

#include "dist/lecture.hpp"
#include "net/sim_network.hpp"

namespace wdoc::dist {
namespace {

struct Station {
  StationId id;
  std::unique_ptr<blob::BlobStore> blobs;
  std::unique_ptr<ObjectStore> store;
  std::unique_ptr<StationNode> node;
};

class LectureFixture : public ::testing::Test {
 protected:
  void build(std::size_t n, double loss, std::uint64_t m = 2,
             std::uint64_t seed = 11) {
    net_ = std::make_unique<net::SimNetwork>(seed);
    net::StationLink link;
    link.loss_rate = loss;
    std::vector<StationId> vec;
    for (std::size_t i = 0; i < n; ++i) {
      Station s;
      s.id = net_->add_station(link);
      s.blobs = std::make_unique<blob::BlobStore>();
      s.store = std::make_unique<ObjectStore>(*s.blobs);
      s.node = std::make_unique<StationNode>(*net_, s.id, *s.store);
      s.node->bind();
      vec.push_back(s.id);
      stations_.push_back(std::move(s));
    }
    for (auto& s : stations_) s.node->set_tree(vec, m);
  }

  DocManifest lecture_doc() {
    DocManifest doc;
    doc.doc_key = "http://mmu.edu/lecture";
    doc.structure_bytes = 1000;
    doc.home = stations_[0].id;
    BlobRef blob;
    blob.digest = digest128("lecture blob");
    blob.size = 100000;
    blob.type = blob::MediaType::video;
    doc.blobs.push_back(blob);
    return doc;
  }

  std::vector<StationNode*> audience() {
    std::vector<StationNode*> out;
    for (std::size_t i = 1; i < stations_.size(); ++i) {
      out.push_back(stations_[i].node.get());
    }
    return out;
  }

  std::unique_ptr<net::SimNetwork> net_;
  std::vector<Station> stations_;
};

TEST_F(LectureFixture, HappyPathLifeCycle) {
  build(7, /*loss=*/0.0);
  LectureSession session(LectureId{1}, lecture_doc(), *stations_[0].node, audience());
  EXPECT_EQ(session.state(), LectureState::pending);
  EXPECT_EQ(session.missing().size(), 6u);  // nothing distributed yet

  ASSERT_TRUE(session.begin().is_ok());
  EXPECT_EQ(session.state(), LectureState::live);
  net_->run();
  EXPECT_TRUE(session.fully_distributed());

  std::uint64_t reclaimed = session.end();
  EXPECT_GT(reclaimed, 0u);
  EXPECT_EQ(session.state(), LectureState::ended);
  for (std::size_t i = 1; i < stations_.size(); ++i) {
    EXPECT_EQ(stations_[i].store->disk_bytes(), 0u) << i;
  }
  // The instructor's persistent copy survives.
  EXPECT_TRUE(stations_[0].store->has_materialized("http://mmu.edu/lecture"));
}

TEST_F(LectureFixture, LossyBroadcastLeavesGaps) {
  build(15, /*loss=*/0.35, 2, /*seed=*/3);
  LectureSession session(LectureId{1}, lecture_doc(), *stations_[0].node, audience());
  ASSERT_TRUE(session.begin().is_ok());
  net_->run();
  // With 35% loss per message and subtree forwarding, gaps are certain at
  // this seed; a dropped push also silences the whole subtree below it.
  EXPECT_FALSE(session.fully_distributed());
}

TEST_F(LectureFixture, RepairFillsGaps) {
  build(15, /*loss=*/0.35, 2, /*seed=*/3);
  LectureSession session(LectureId{1}, lecture_doc(), *stations_[0].node, audience());
  ASSERT_TRUE(session.begin().is_ok());
  net_->run();
  ASSERT_FALSE(session.fully_distributed());

  // Lift the loss (the burst is over) and repair until complete.
  for (auto& s : stations_) {
    // build()'s link without the loss.
    ASSERT_TRUE(net_->set_link(s.id, net::StationLink{}).is_ok());
  }
  int rounds = 0;
  while (!session.fully_distributed() && rounds < 10) {
    ASSERT_TRUE(session.repair().is_ok());
    net_->run();
    ++rounds;
  }
  EXPECT_TRUE(session.fully_distributed()) << "after " << rounds << " rounds";
  EXPECT_GT(session.repairs_issued(), 0u);
}

TEST_F(LectureFixture, RepairUnderResidualLossConverges) {
  build(15, /*loss=*/0.2, 2, /*seed=*/7);
  LectureSession session(LectureId{1}, lecture_doc(), *stations_[0].node, audience());
  ASSERT_TRUE(session.begin().is_ok());
  net_->run();
  // Repair keeps retrying over the lossy fabric; each round is independent.
  int rounds = 0;
  while (!session.fully_distributed() && rounds < 50) {
    ASSERT_TRUE(session.repair().is_ok());
    net_->run();
    ++rounds;
  }
  EXPECT_TRUE(session.fully_distributed()) << "rounds: " << rounds;
}

TEST_F(LectureFixture, OfflineStationCatchesUpAfterReconnect) {
  build(7, /*loss=*/0.0);
  // Station 4 (and therefore its subtree) is offline during the broadcast.
  ASSERT_TRUE(net_->set_online(stations_[4].id, false).is_ok());
  LectureSession session(LectureId{1}, lecture_doc(), *stations_[0].node, audience());
  ASSERT_TRUE(session.begin().is_ok());
  net_->run();
  auto missing = session.missing();
  ASSERT_FALSE(missing.empty());
  EXPECT_NE(std::find(missing.begin(), missing.end(), stations_[4].id), missing.end());

  // The station dials back in; repair pulls the lecture up its chain.
  ASSERT_TRUE(net_->set_online(stations_[4].id, true).is_ok());
  int rounds = 0;
  while (!session.fully_distributed() && rounds < 10) {
    ASSERT_TRUE(session.repair().is_ok());
    net_->run();
    ++rounds;
  }
  EXPECT_TRUE(session.fully_distributed());
}

TEST_F(LectureFixture, StateGuards) {
  build(3, 0.0);
  LectureSession session(LectureId{1}, lecture_doc(), *stations_[0].node, audience());
  // repair before begin is a conflict.
  EXPECT_EQ(session.repair().code(), Errc::conflict);
  ASSERT_TRUE(session.begin().is_ok());
  net_->run();
  std::uint64_t first_end = session.end();
  EXPECT_GT(first_end, 0u);
  EXPECT_EQ(session.end(), 0u);                       // idempotent
  EXPECT_EQ(session.begin().code(), Errc::conflict);  // cannot restart
  EXPECT_EQ(session.repair().code(), Errc::conflict);
}

TEST_F(LectureFixture, WeeklySessionsReuseStations) {
  build(7, 0.0);
  for (std::uint64_t week = 1; week <= 4; ++week) {
    DocManifest doc = lecture_doc();
    doc.doc_key = "http://mmu.edu/week" + std::to_string(week);
    LectureSession session(LectureId{week}, doc, *stations_[0].node, audience());
    ASSERT_TRUE(session.begin().is_ok());
    net_->run();
    EXPECT_TRUE(session.fully_distributed()) << "week " << week;
    (void)session.end();
  }
  // After four weeks every student station is back to references only.
  for (std::size_t i = 1; i < stations_.size(); ++i) {
    EXPECT_EQ(stations_[i].store->disk_bytes(), 0u);
    EXPECT_EQ(stations_[i].store->doc_count(), 4u);  // 4 references kept
  }
}

}  // namespace
}  // namespace wdoc::dist
