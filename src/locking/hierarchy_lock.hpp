// The paper's object-locking compatibility table (§3):
//
//   "If a container has a read lock by a user, its components (and itself)
//    can have the read access by another user, but not the write access.
//    However, the parent objects of the container can have both read and
//    write access by another user."
//
// Semantics implemented here:
//   - A lock on node N constrains N and N's whole subtree for OTHER users:
//     a read lock leaves the subtree readable but not writable; a write
//     lock makes it inaccessible.
//   - Ancestors of N stay fully accessible to other users (this is the
//     paper's deliberate departure from classic intention locking, where an
//     IX on every ancestor would block a sibling's S at the root).
//   - A user's own locks never conflict with that user's requests; a read
//     lock can be upgraded to write when no other user constrains the node.
//
// Locks are granted try-lock style (Errc::lock_conflict on refusal), which
// matches the paper's interactive check-out workflow; callers poll/retry.
#pragma once

#include <cstdint>
#include <map>
#include <optional>

#include "common/ids.hpp"
#include "common/result.hpp"

namespace wdoc::locking {

enum class Access : std::uint8_t { read = 0, write = 1 };

[[nodiscard]] constexpr const char* access_name(Access a) {
  return a == Access::read ? "read" : "write";
}

// Relation of a request target to a held lock's container.
enum class Relation : std::uint8_t {
  self = 0,        // request target == locked container
  component = 1,   // target inside the locked container's subtree
  parent = 2,      // target is an ancestor of the locked container
  disjoint = 3,    // unrelated subtrees
};

// The compatibility table itself, exposed for tests and the E7 bench:
// may OTHER users get `requested` on a node in relation `rel` to a container
// locked with `held`?
[[nodiscard]] constexpr bool paper_compatible(Relation rel, Access held, Access requested) {
  switch (rel) {
    case Relation::self:
    case Relation::component:
      if (held == Access::write) return false;
      return requested == Access::read;
    case Relation::parent:
    case Relation::disjoint:
      return true;
  }
  return false;
}

class HierarchyLockManager {
 public:
  // --- hierarchy -------------------------------------------------------
  // parent == nullopt makes a root. Nodes form a forest.
  [[nodiscard]] Status add_node(LockResourceId id, std::optional<LockResourceId> parent);
  [[nodiscard]] bool has_node(LockResourceId id) const { return nodes_.contains(id); }

  // --- locking ----------------------------------------------------------
  // A refused lock is Errc::lock_conflict: with the table, the system
  // controls which instructor is changing a Web document.
  [[nodiscard]] Status lock(UserId user, LockResourceId node, Access mode);
  [[nodiscard]] Status unlock(UserId user, LockResourceId node);

 private:
  struct Node {
    std::optional<LockResourceId> parent;
    // mode per holder on this node.
    std::map<UserId, Access> holders;
  };

  // Does any lock held by someone other than `user` forbid `mode` on `node`?
  [[nodiscard]] bool blocked(UserId user, LockResourceId node, Access mode) const;

  std::map<LockResourceId, Node> nodes_;
};

}  // namespace wdoc::locking
