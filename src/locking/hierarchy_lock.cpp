#include "locking/hierarchy_lock.hpp"

#include <string>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"

namespace wdoc::locking {

namespace {

// Grants and refusals of the paper's compatibility table, by mode.
obs::Counter& lock_counter(const char* what, Access mode) {
  static obs::Counter& grant_r = obs::MetricsRegistry::global().counter(
      "locking.locks_granted", {{"mode", "read"}});
  static obs::Counter& grant_w = obs::MetricsRegistry::global().counter(
      "locking.locks_granted", {{"mode", "write"}});
  static obs::Counter& conflict_r = obs::MetricsRegistry::global().counter(
      "locking.conflicts", {{"mode", "read"}});
  static obs::Counter& conflict_w = obs::MetricsRegistry::global().counter(
      "locking.conflicts", {{"mode", "write"}});
  if (what[0] == 'g') return mode == Access::read ? grant_r : grant_w;
  return mode == Access::read ? conflict_r : conflict_w;
}

}  // namespace

Status HierarchyLockManager::add_node(LockResourceId id,
                                      std::optional<LockResourceId> parent) {
  if (!id.valid()) return {Errc::invalid_argument, "invalid node id"};
  if (nodes_.contains(id)) return {Errc::already_exists, "node exists"};
  if (parent && !nodes_.contains(*parent)) return {Errc::not_found, "no such parent"};
  Node n;
  n.parent = parent;
  nodes_.emplace(id, std::move(n));
  return Status::ok();
}

bool HierarchyLockManager::blocked(UserId user, LockResourceId node, Access mode) const {
  // A lock on `node` itself or on any ancestor of `node` covers `node`
  // (node is then the container itself or a component of the container).
  // Locks strictly below `node`, or in disjoint subtrees, never block —
  // that is the paper's "parent objects … can have both read and write
  // access" rule.
  auto it = nodes_.find(node);
  WDOC_CHECK(it != nodes_.end(), "blocked() on unknown node");
  for (const Node* n = &it->second;;) {
    for (const auto& [holder, held] : n->holders) {
      if (holder == user) continue;
      Relation rel = (n == &it->second) ? Relation::self : Relation::component;
      if (!paper_compatible(rel, held, mode)) return true;
    }
    if (!n->parent) break;
    n = &nodes_.at(*n->parent);
  }
  return false;
}

Status HierarchyLockManager::lock(UserId user, LockResourceId node, Access mode) {
  auto it = nodes_.find(node);
  if (it == nodes_.end()) return {Errc::not_found, "no such node"};
  auto hit = it->second.holders.find(user);
  // Re-entrant request covered by the held mode: always granted, even if
  // new locks would currently be refused (e.g. a reader arrived above).
  if (hit != it->second.holders.end() &&
      (hit->second == Access::write || mode == Access::read)) {
    return Status::ok();
  }
  if (blocked(user, node, mode)) {
    lock_counter("conflict", mode).inc();
    obs::FlightRecorder::global().record(
        obs::FlightKind::lock_conflict,
        std::string(access_name(mode)) + " refused on node " +
            std::to_string(node.value()),
        /*station=*/0, /*actor=*/user.value());
    return {Errc::lock_conflict,
            std::string("lock refused: ") + access_name(mode) + " on node " +
                std::to_string(node.value())};
  }
  if (hit != it->second.holders.end()) {
    hit->second = Access::write;  // read -> write upgrade
  } else {
    it->second.holders.emplace(user, mode);
  }
  lock_counter("grant", mode).inc();
  return Status::ok();
}

Status HierarchyLockManager::unlock(UserId user, LockResourceId node) {
  auto it = nodes_.find(node);
  if (it == nodes_.end()) return {Errc::not_found, "no such node"};
  if (it->second.holders.erase(user) == 0) {
    return {Errc::not_found, "user holds no lock on node"};
  }
  return Status::ok();
}

}  // namespace wdoc::locking
