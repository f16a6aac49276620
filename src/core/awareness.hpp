// Awareness — the paper's second criterion: "since instructors and students
// are separated spatially, they are sometimes hard to 'feel' the existence
// of each other. A virtual university supporting environment needs to
// provide reasonable communication tools such that awareness is realized."
// (§1; the student workstation receives daemons for "group discussions").
//
// A host station (typically the instructor's) keeps per-room rosters;
// member daemons join and chat. The host relays chat to every other member
// and pushes the roster to the room whenever someone joins.
//
// Wire protocol (all via net::Fabric, so it runs on the simulator and on
// real threads alike):
//   aw.join       member -> host    {user, name, room}
//   aw.chat       member -> host    {user, room, text}
//   aw.chat_fwd   host -> member    {room, from_name, text}
//   aw.roster     host -> member    {room, names...}
#pragma once

#include <functional>
#include <map>

#include "common/ids.hpp"
#include "net/fabric.hpp"

namespace wdoc::core {

struct RoomMember {
  UserId user;
  std::string name;
  StationId station;
};

class AwarenessHost {
 public:
  AwarenessHost(net::Fabric& fabric, StationId self);

  void bind();
  [[nodiscard]] StationId id() const { return self_; }

  [[nodiscard]] std::vector<RoomMember> roster(const std::string& room) const;
  [[nodiscard]] std::size_t room_count() const { return rooms_.size(); }
  [[nodiscard]] std::uint64_t chats_relayed() const { return chats_relayed_; }

  static constexpr const char* kJoin = "aw.join";
  static constexpr const char* kChat = "aw.chat";
  static constexpr const char* kChatFwd = "aw.chat_fwd";
  static constexpr const char* kRoster = "aw.roster";

 private:
  void on_message(const net::Message& msg);
  void broadcast_roster(const std::string& room);

  net::Fabric* fabric_;
  StationId self_;
  std::map<std::string, std::vector<RoomMember>> rooms_;
  std::uint64_t chats_relayed_ = 0;
};

class AwarenessClient {
 public:
  using ChatHandler =
      std::function<void(const std::string& room, const std::string& from,
                         const std::string& text)>;
  using RosterHandler =
      std::function<void(const std::string& room, const std::vector<std::string>&)>;

  AwarenessClient(net::Fabric& fabric, StationId self, StationId host, UserId user,
                  std::string name);

  void bind();
  [[nodiscard]] StationId id() const { return self_; }

  [[nodiscard]] Status join(const std::string& room);
  [[nodiscard]] Status chat(const std::string& room, const std::string& text);

  void set_chat_handler(ChatHandler handler) { on_chat_ = std::move(handler); }
  void set_roster_handler(RosterHandler handler) { on_roster_ = std::move(handler); }

 private:
  void on_message(const net::Message& msg);

  net::Fabric* fabric_;
  StationId self_;
  StationId host_;
  UserId user_;
  std::string name_;
  ChatHandler on_chat_;
  RosterHandler on_roster_;
};

}  // namespace wdoc::core
