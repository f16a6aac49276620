// Awareness tests: room membership, roster propagation and chat relay —
// over the simulator and over real threads.
#include <gtest/gtest.h>

#include <atomic>
#include <map>

#include "core/awareness.hpp"
#include "net/sim_network.hpp"
#include "net/thread_transport.hpp"

namespace wdoc::core {
namespace {

class AwarenessFixture : public ::testing::Test {
 protected:
  AwarenessFixture() : net_(9) {
    host_id_ = net_.add_station();
    host_ = std::make_unique<AwarenessHost>(net_, host_id_);
    host_->bind();
  }

  AwarenessClient& add_client(const std::string& name, std::uint64_t user) {
    StationId id = net_.add_station();
    clients_.push_back(std::make_unique<AwarenessClient>(net_, id, host_id_,
                                                         UserId{user}, name));
    clients_.back()->bind();
    return *clients_.back();
  }

  net::SimNetwork net_;
  StationId host_id_;
  std::unique_ptr<AwarenessHost> host_;
  std::vector<std::unique_ptr<AwarenessClient>> clients_;
};

TEST_F(AwarenessFixture, JoinBuildsRosterEveryoneSees) {
  auto& shih = add_client("shih", 1);
  auto& alice = add_client("alice", 100);
  std::map<std::string, std::vector<std::string>> seen;  // client -> last roster
  for (auto* client : {&shih, &alice}) {
    const std::string who = client == &shih ? "shih" : "alice";
    client->set_roster_handler(
        [&seen, who](const std::string& room, const std::vector<std::string>& names) {
          EXPECT_EQ(room, "cs101");
          seen[who] = names;
        });
  }
  ASSERT_TRUE(shih.join("cs101").is_ok());
  net_.run();
  ASSERT_TRUE(alice.join("cs101").is_ok());
  net_.run();

  EXPECT_EQ(host_->roster("cs101").size(), 2u);
  EXPECT_EQ(seen["shih"], (std::vector<std::string>{"shih", "alice"}));
  EXPECT_EQ(seen["alice"], seen["shih"]);
  EXPECT_EQ(host_->room_count(), 1u);
}

TEST_F(AwarenessFixture, DuplicateJoinIsRefreshNotDuplicate) {
  auto& shih = add_client("shih", 1);
  ASSERT_TRUE(shih.join("cs101").is_ok());
  ASSERT_TRUE(shih.join("cs101").is_ok());
  net_.run();
  EXPECT_EQ(host_->roster("cs101").size(), 1u);
}

TEST_F(AwarenessFixture, ChatRelaysToOthersOnly) {
  auto& shih = add_client("shih", 1);
  auto& alice = add_client("alice", 100);
  auto& bob = add_client("bob", 101);
  for (auto* c : {&shih, &alice, &bob}) {
    ASSERT_TRUE(c->join("cs101").is_ok());
  }
  net_.run();

  std::vector<std::string> alice_saw, shih_saw;
  alice.set_chat_handler([&](const std::string&, const std::string& from,
                             const std::string& text) {
    alice_saw.push_back(from + ": " + text);
  });
  shih.set_chat_handler([&](const std::string&, const std::string& from,
                            const std::string& text) {
    shih_saw.push_back(from + ": " + text);
  });

  ASSERT_TRUE(shih.chat("cs101", "does everyone see lecture 3?").is_ok());
  net_.run();
  EXPECT_EQ(alice_saw, std::vector<std::string>{"shih: does everyone see lecture 3?"});
  EXPECT_TRUE(shih_saw.empty());  // no echo to the sender
  EXPECT_EQ(host_->chats_relayed(), 1u);
}

TEST_F(AwarenessFixture, NonMemberChatIgnored) {
  auto& shih = add_client("shih", 1);
  ASSERT_TRUE(shih.join("cs101").is_ok());
  net_.run();
  auto& lurker = add_client("lurker", 999);
  ASSERT_TRUE(lurker.chat("cs101", "hello?").is_ok());
  net_.run();
  EXPECT_EQ(host_->chats_relayed(), 0u);
}

TEST_F(AwarenessFixture, RoomsAreIndependent) {
  auto& shih = add_client("shih", 1);
  auto& alice = add_client("alice", 100);
  ASSERT_TRUE(shih.join("cs101").is_ok());
  ASSERT_TRUE(alice.join("cs102").is_ok());
  net_.run();
  EXPECT_EQ(host_->room_count(), 2u);
  int alice_msgs = 0;
  alice.set_chat_handler(
      [&](const std::string&, const std::string&, const std::string&) {
        ++alice_msgs;
      });
  ASSERT_TRUE(shih.chat("cs101", "cs101 only").is_ok());
  net_.run();
  EXPECT_EQ(alice_msgs, 0);
}

TEST(AwarenessLive, RunsOverRealThreads) {
  net::ThreadTransport transport;
  StationId host_id = transport.add_station([](const net::Message&) {});
  AwarenessHost host(transport, host_id);
  host.bind();

  StationId a_id = transport.add_station([](const net::Message&) {});
  StationId b_id = transport.add_station([](const net::Message&) {});
  AwarenessClient a(transport, a_id, host_id, UserId{1}, "shih");
  AwarenessClient b(transport, b_id, host_id, UserId{2}, "alice");
  a.bind();
  b.bind();

  std::atomic<int> b_received{0};
  b.set_chat_handler(
      [&](const std::string&, const std::string&, const std::string&) {
        b_received++;
      });
  ASSERT_TRUE(a.join("room").is_ok());
  ASSERT_TRUE(b.join("room").is_ok());
  ASSERT_TRUE(transport.quiesce());
  ASSERT_TRUE(a.chat("room", "live message").is_ok());
  ASSERT_TRUE(transport.quiesce());
  EXPECT_EQ(b_received.load(), 1);
  EXPECT_EQ(host.roster("room").size(), 2u);
  transport.shutdown();
}

}  // namespace
}  // namespace wdoc::core
