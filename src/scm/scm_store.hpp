// Software-configuration management of SCIs (paper §1: "A software
// configuration management system allows checking in/out of course
// components and maintain versions of a course").
//
// Each item is an append-only chain of version records (number, author,
// comment, content digest and size). Write check-outs are exclusive per
// item; read check-outs are unlimited. Check-in requires holding the write
// check-out and bumps the version.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "common/ids.hpp"
#include "common/result.hpp"
#include "common/serialize.hpp"

namespace wdoc::scm {

struct VersionMeta {
  VersionId id;
  std::uint64_t number = 0;  // 1-based, monotonically increasing per item
  std::string author;
  std::int64_t created_at = 0;
  std::string comment;
  Digest128 digest;
  std::uint64_t size = 0;
};

struct DiffSummary {
  std::uint64_t lines_added = 0;
  std::uint64_t lines_removed = 0;
  std::uint64_t lines_common = 0;
  bool identical = false;
};

struct CheckoutInfo {
  UserId user;
  bool write = false;
  std::int64_t at = 0;
};

class ScmStore {
 public:
  // --- items & versions -----------------------------------------------
  [[nodiscard]] Status add_item(const std::string& key, Bytes initial_content,
                                const std::string& author, std::int64_t now,
                                const std::string& comment = "initial");
  [[nodiscard]] bool has_item(const std::string& key) const { return items_.contains(key); }

  [[nodiscard]] Result<VersionMeta> head(const std::string& key) const;
  [[nodiscard]] Result<std::vector<VersionMeta>> history(const std::string& key) const;

  // --- check-out / check-in ---------------------------------------------
  // Read check-outs always succeed and are counted. Write check-outs are
  // exclusive: a second write check-out fails with lock_conflict.
  [[nodiscard]] Status check_out(const std::string& key, UserId user, bool write,
                                 std::int64_t now);
  // Requires `user` to hold the write check-out. Identical content is
  // rejected with Errc::conflict ("nothing to check in").
  [[nodiscard]] Result<VersionMeta> check_in(const std::string& key, UserId user,
                                             Bytes new_content, const std::string& comment,
                                             std::int64_t now);

 private:
  struct Item {
    std::vector<VersionMeta> versions;
    std::vector<CheckoutInfo> active_checkouts;
  };

  [[nodiscard]] const Item* find(const std::string& key) const;
  [[nodiscard]] Item* find(const std::string& key);

  std::map<std::string, Item> items_;
  IdAllocator<VersionId> version_ids_;
};

// Line diff of two whole text bodies (LCS-based; a multiset of line hashes
// past 4,000 lines a side).
[[nodiscard]] DiffSummary diff_lines(std::string_view a, std::string_view b);

}  // namespace wdoc::scm
