#include "scm/scm_store.hpp"

#include <algorithm>
#include <set>
#include <string_view>

namespace wdoc::scm {

namespace {

std::vector<std::string_view> split_lines(std::string_view s) {
  std::vector<std::string_view> lines;
  std::size_t start = 0;
  while (start <= s.size()) {
    std::size_t nl = s.find('\n', start);
    if (nl == std::string_view::npos) {
      if (start < s.size()) lines.push_back(s.substr(start));
      break;
    }
    lines.push_back(s.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

}  // namespace

DiffSummary diff_lines(std::string_view a, std::string_view b) {
  DiffSummary out;
  if (a == b) {
    out.identical = true;
    auto lines = split_lines(a);
    out.lines_common = lines.size();
    return out;
  }
  auto la = split_lines(a);
  auto lb = split_lines(b);
  // Guard the O(n*m) LCS; beyond the guard fall back to hashes-of-lines
  // multiset intersection (order-insensitive approximation).
  constexpr std::size_t kLcsGuard = 4000;
  if (la.size() <= kLcsGuard && lb.size() <= kLcsGuard) {
    std::vector<std::uint32_t> prev(lb.size() + 1, 0), cur(lb.size() + 1, 0);
    for (std::size_t i = 1; i <= la.size(); ++i) {
      for (std::size_t j = 1; j <= lb.size(); ++j) {
        if (la[i - 1] == lb[j - 1]) {
          cur[j] = prev[j - 1] + 1;
        } else {
          cur[j] = std::max(prev[j], cur[j - 1]);
        }
      }
      std::swap(prev, cur);
    }
    out.lines_common = prev[lb.size()];
  } else {
    std::multiset<std::uint64_t> ha;
    for (auto l : la) ha.insert(fnv1a64(l));
    std::size_t common = 0;
    for (auto l : lb) {
      auto it = ha.find(fnv1a64(l));
      if (it != ha.end()) {
        ha.erase(it);
        ++common;
      }
    }
    out.lines_common = common;
  }
  out.lines_removed = la.size() - out.lines_common;
  out.lines_added = lb.size() - out.lines_common;
  return out;
}

Status ScmStore::add_item(const std::string& key, Bytes initial_content,
                          const std::string& author, std::int64_t now,
                          const std::string& comment) {
  if (items_.contains(key)) return {Errc::already_exists, "item exists: " + key};
  Item item;
  VersionMeta meta;
  meta.id = version_ids_.next();
  meta.number = 1;
  meta.author = author;
  meta.created_at = now;
  meta.comment = comment;
  meta.digest = digest128(std::span<const std::uint8_t>(initial_content));
  meta.size = initial_content.size();
  item.versions.push_back(std::move(meta));
  items_.emplace(key, std::move(item));
  return Status::ok();
}

const ScmStore::Item* ScmStore::find(const std::string& key) const {
  auto it = items_.find(key);
  return it == items_.end() ? nullptr : &it->second;
}

ScmStore::Item* ScmStore::find(const std::string& key) {
  auto it = items_.find(key);
  return it == items_.end() ? nullptr : &it->second;
}

Result<VersionMeta> ScmStore::head(const std::string& key) const {
  const Item* item = find(key);
  if (item == nullptr) return Error{Errc::not_found, "no item: " + key};
  return item->versions.back();
}

Result<std::vector<VersionMeta>> ScmStore::history(const std::string& key) const {
  const Item* item = find(key);
  if (item == nullptr) return Error{Errc::not_found, "no item: " + key};
  return item->versions;
}

Status ScmStore::check_out(const std::string& key, UserId user, bool write,
                           std::int64_t now) {
  Item* item = find(key);
  if (item == nullptr) return {Errc::not_found, "no item: " + key};
  for (const CheckoutInfo& c : item->active_checkouts) {
    if (c.user == user) {
      return {Errc::already_exists, "user already holds a check-out on " + key};
    }
    if (write && c.write) {
      return {Errc::lock_conflict,
              key + " checked out for writing by user " + std::to_string(c.user.value())};
    }
  }
  if (write) {
    // A write check-out also conflicts with an existing write holder (checked
    // above); readers may coexist with a writer (they hold the old version).
    for (const CheckoutInfo& c : item->active_checkouts) {
      if (c.write) {
        return {Errc::lock_conflict, key + " already write-locked"};
      }
    }
  }
  item->active_checkouts.push_back(CheckoutInfo{user, write, now});
  return Status::ok();
}

Result<VersionMeta> ScmStore::check_in(const std::string& key, UserId user,
                                       Bytes new_content, const std::string& comment,
                                       std::int64_t now) {
  Item* item = find(key);
  if (item == nullptr) return Error{Errc::not_found, "no item: " + key};
  auto holder = std::find_if(item->active_checkouts.begin(), item->active_checkouts.end(),
                             [&](const CheckoutInfo& c) { return c.user == user && c.write; });
  if (holder == item->active_checkouts.end()) {
    return Error{Errc::lock_conflict,
                 "check-in requires a write check-out on " + key};
  }
  Digest128 digest = digest128(std::span<const std::uint8_t>(new_content));
  if (digest == item->versions.back().digest) {
    return Error{Errc::conflict, "nothing to check in (content unchanged)"};
  }
  VersionMeta meta;
  meta.id = version_ids_.next();
  meta.number = item->versions.back().number + 1;
  meta.author = "user-" + std::to_string(user.value());
  meta.created_at = now;
  meta.comment = comment;
  meta.digest = digest;
  meta.size = new_content.size();
  item->versions.push_back(meta);
  item->active_checkouts.erase(holder);
  return meta;
}

}  // namespace wdoc::scm
