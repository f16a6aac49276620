#include "core/awareness.hpp"

#include <algorithm>
#include <span>

#include "common/log.hpp"
#include "common/serialize.hpp"

namespace wdoc::core {

namespace {

Bytes encode_member_msg(UserId user, const std::string& name, const std::string& room,
                        const std::string& text) {
  Writer w;
  w.u64(user.value());
  w.str(name);
  w.str(room);
  w.str(text);
  return w.take();
}

struct MemberMsg {
  UserId user;
  std::string name;
  std::string room;
  std::string text;
};

Result<MemberMsg> decode_member_msg(std::span<const std::uint8_t> b) {
  Reader r(b);
  MemberMsg out;
  auto user = r.u64();
  if (!user) return user.error();
  out.user = UserId{user.value()};
  auto name = r.str();
  if (!name) return name.error();
  out.name = std::move(name).value();
  auto room = r.str();
  if (!room) return room.error();
  out.room = std::move(room).value();
  auto text = r.str();
  if (!text) return text.error();
  out.text = std::move(text).value();
  return out;
}

}  // namespace

// --- host ---------------------------------------------------------------------

AwarenessHost::AwarenessHost(net::Fabric& fabric, StationId self)
    : fabric_(&fabric), self_(self) {}

void AwarenessHost::bind() {
  fabric_->set_handler(self_, [this](const net::Message& msg) { on_message(msg); });
}

void AwarenessHost::on_message(const net::Message& msg) {
  auto decoded = decode_member_msg(msg.payload);
  if (!decoded) return;
  MemberMsg& m = decoded.value();
  auto& members = rooms_[m.room];
  auto it = std::find_if(members.begin(), members.end(),
                         [&](const RoomMember& r) { return r.user == m.user; });

  if (msg.type == kJoin) {
    if (it == members.end()) {
      members.push_back(RoomMember{m.user, m.name, msg.from});
      broadcast_roster(m.room);
    } else {
      it->station = msg.from;
    }
    return;
  }
  if (it == members.end()) return;  // everything else requires membership

  if (msg.type == kChat) {
    ++chats_relayed_;
    for (const RoomMember& member : members) {
      if (member.user == m.user) continue;
      net::Message out;
      out.from = self_;
      out.to = member.station;
      out.type = kChatFwd;
      out.payload = encode_member_msg(m.user, it->name, m.room, m.text);
      (void)fabric_->send(std::move(out));
    }
    return;
  }
  WDOC_WARN("awareness host: unknown message type %s", msg.type.c_str());
}

void AwarenessHost::broadcast_roster(const std::string& room) {
  auto it = rooms_.find(room);
  if (it == rooms_.end()) return;
  Writer w;
  w.str(room);
  w.u32(static_cast<std::uint32_t>(it->second.size()));
  for (const RoomMember& m : it->second) w.str(m.name);
  // One refcounted roster buffer shared across the room fan-out.
  const net::Payload payload{w.take()};
  for (const RoomMember& m : it->second) {
    net::Message out;
    out.from = self_;
    out.to = m.station;
    out.type = kRoster;
    out.payload = payload;
    (void)fabric_->send(std::move(out));
  }
}

std::vector<RoomMember> AwarenessHost::roster(const std::string& room) const {
  auto it = rooms_.find(room);
  return it == rooms_.end() ? std::vector<RoomMember>{} : it->second;
}

// --- client ---------------------------------------------------------------------

AwarenessClient::AwarenessClient(net::Fabric& fabric, StationId self, StationId host,
                                 UserId user, std::string name)
    : fabric_(&fabric), self_(self), host_(host), user_(user), name_(std::move(name)) {}

void AwarenessClient::bind() {
  fabric_->set_handler(self_, [this](const net::Message& msg) { on_message(msg); });
}

Status AwarenessClient::join(const std::string& room) {
  net::Message msg;
  msg.from = self_;
  msg.to = host_;
  msg.type = AwarenessHost::kJoin;
  msg.payload = encode_member_msg(user_, name_, room, "");
  return fabric_->send(std::move(msg));
}

Status AwarenessClient::chat(const std::string& room, const std::string& text) {
  net::Message msg;
  msg.from = self_;
  msg.to = host_;
  msg.type = AwarenessHost::kChat;
  msg.payload = encode_member_msg(user_, name_, room, text);
  return fabric_->send(std::move(msg));
}

void AwarenessClient::on_message(const net::Message& msg) {
  if (msg.type == AwarenessHost::kChatFwd) {
    auto decoded = decode_member_msg(msg.payload);
    if (!decoded) return;
    if (on_chat_) {
      on_chat_(decoded.value().room, decoded.value().name, decoded.value().text);
    }
    return;
  }
  if (msg.type == AwarenessHost::kRoster) {
    Reader r(msg.payload);
    auto room = r.str();
    if (!room) return;
    auto n = r.count(4);
    if (!n) return;
    std::vector<std::string> names;
    names.reserve(n.value());
    for (std::uint32_t i = 0; i < n.value(); ++i) {
      auto name = r.str();
      if (!name) return;
      names.push_back(std::move(name).value());
    }
    if (on_roster_) on_roster_(room.value(), names);
    return;
  }
}

}  // namespace wdoc::core
