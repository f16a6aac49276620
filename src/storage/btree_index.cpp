#include "storage/btree_index.hpp"

#include "obs/metrics.hpp"

#include <algorithm>
#include <cassert>

namespace wdoc::storage {

namespace {

// Composite ordering on (key, rid) so duplicate keys are totally ordered.
int cmp(const Value& ak, RowId ar, const Value& bk, RowId br) {
  int c = ak.compare(bk);
  if (c != 0) return c;
  if (ar.value() < br.value()) return -1;
  if (ar.value() > br.value()) return 1;
  return 0;
}

}  // namespace

struct BTreeIndex::Node {
  bool leaf = true;
  // Leaf: entries sorted by (key, rid); keys/children unused.
  std::vector<Entry> entries;
  // Internal: children.size() == keys.size() + 1. keys[i] is a copy of the
  // smallest (key,rid) in children[i+1]'s subtree.
  std::vector<Entry> keys;
  std::vector<std::unique_ptr<Node>> children;
  Node* next = nullptr;  // leaf chain

  [[nodiscard]] std::size_t count() const { return leaf ? entries.size() : children.size(); }
};

BTreeIndex::BTreeIndex(std::size_t order) : order_(order < 4 ? 4 : order) {
  root_ = std::make_unique<Node>();
}

BTreeIndex::~BTreeIndex() = default;
BTreeIndex::BTreeIndex(BTreeIndex&&) noexcept = default;

void BTreeIndex::insert(const Value& key, RowId rid) {
  struct Helper {
    std::size_t order;

    // Returns a (separator, new right sibling) when `n` splits.
    struct Split {
      Entry sep;
      std::unique_ptr<BTreeIndex::Node> right;
    };

    std::unique_ptr<Split> insert(BTreeIndex::Node* n, const Value& key, RowId rid) {
      if (n->leaf) {
        auto it = std::lower_bound(
            n->entries.begin(), n->entries.end(), std::pair(&key, rid),
            [](const Entry& e, const std::pair<const Value*, RowId>& probe) {
              return cmp(e.key, e.rid, *probe.first, probe.second) < 0;
            });
        n->entries.insert(it, Entry{key, rid});
        if (n->entries.size() <= order) return nullptr;
        // Split leaf.
        auto right = std::make_unique<BTreeIndex::Node>();
        right->leaf = true;
        std::size_t mid = n->entries.size() / 2;
        right->entries.assign(std::make_move_iterator(n->entries.begin() + static_cast<std::ptrdiff_t>(mid)),
                              std::make_move_iterator(n->entries.end()));
        n->entries.resize(mid);
        right->next = n->next;
        n->next = right.get();
        obs::MetricsRegistry::global().counter("storage.btree_splits").inc();
        auto split = std::make_unique<Split>();
        split->sep = right->entries.front();
        split->right = std::move(right);
        return split;
      }
      // Internal: find child.
      std::size_t slot = child_index(n, key, rid);
      auto split = insert(n->children[slot].get(), key, rid);
      if (!split) return nullptr;
      n->keys.insert(n->keys.begin() + static_cast<std::ptrdiff_t>(slot), split->sep);
      n->children.insert(n->children.begin() + static_cast<std::ptrdiff_t>(slot) + 1,
                         std::move(split->right));
      if (n->children.size() <= order) return nullptr;
      // Split internal node.
      auto right = std::make_unique<BTreeIndex::Node>();
      right->leaf = false;
      std::size_t mid = n->keys.size() / 2;  // keys[mid] moves up
      Entry up = std::move(n->keys[mid]);
      right->keys.assign(std::make_move_iterator(n->keys.begin() + static_cast<std::ptrdiff_t>(mid) + 1),
                         std::make_move_iterator(n->keys.end()));
      right->children.assign(
          std::make_move_iterator(n->children.begin() + static_cast<std::ptrdiff_t>(mid) + 1),
          std::make_move_iterator(n->children.end()));
      n->keys.resize(mid);
      n->children.resize(mid + 1);
      obs::MetricsRegistry::global().counter("storage.btree_splits").inc();
      auto out = std::make_unique<Split>();
      out->sep = std::move(up);
      out->right = std::move(right);
      return out;
    }

    static std::size_t child_index(const BTreeIndex::Node* n, const Value& key, RowId rid) {
      // First key strictly greater than probe -> descend left of it.
      std::size_t lo = 0, hi = n->keys.size();
      while (lo < hi) {
        std::size_t mid = (lo + hi) / 2;
        if (cmp(n->keys[mid].key, n->keys[mid].rid, key, rid) <= 0) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      return lo;
    }
  };

  Helper h{order_};
  auto split = h.insert(root_.get(), key, rid);
  if (split) {
    auto new_root = std::make_unique<Node>();
    new_root->leaf = false;
    new_root->keys.push_back(std::move(split->sep));
    new_root->children.push_back(std::move(root_));
    new_root->children.push_back(std::move(split->right));
    root_ = std::move(new_root);
  }
  ++size_;
}

bool BTreeIndex::erase(const Value& key, RowId rid) {
  // Rebalancing deletion. Underflow is fixed by borrow-from-sibling or merge.
  struct Helper {
    std::size_t order;
    [[nodiscard]] std::size_t min_fill() const { return order / 2; }

    bool erase(BTreeIndex::Node* n, const Value& key, RowId rid) {
      if (n->leaf) {
        auto it = std::lower_bound(
            n->entries.begin(), n->entries.end(), std::pair(&key, rid),
            [](const Entry& e, const std::pair<const Value*, RowId>& probe) {
              return cmp(e.key, e.rid, *probe.first, probe.second) < 0;
            });
        if (it == n->entries.end() || cmp(it->key, it->rid, key, rid) != 0) return false;
        n->entries.erase(it);
        return true;
      }
      std::size_t slot = child_index(n, key, rid);
      BTreeIndex::Node* child = n->children[slot].get();
      if (!erase(child, key, rid)) return false;
      if (child->count() >= min_fill()) return true;
      rebalance(n, slot);
      return true;
    }

    void rebalance(BTreeIndex::Node* parent, std::size_t slot) {
      BTreeIndex::Node* child = parent->children[slot].get();
      // Try borrow from left sibling.
      if (slot > 0) {
        BTreeIndex::Node* left = parent->children[slot - 1].get();
        if (left->count() > min_fill()) {
          if (child->leaf) {
            child->entries.insert(child->entries.begin(), std::move(left->entries.back()));
            left->entries.pop_back();
            parent->keys[slot - 1] = child->entries.front();
          } else {
            child->keys.insert(child->keys.begin(), std::move(parent->keys[slot - 1]));
            parent->keys[slot - 1] = std::move(left->keys.back());
            left->keys.pop_back();
            child->children.insert(child->children.begin(), std::move(left->children.back()));
            left->children.pop_back();
          }
          return;
        }
      }
      // Try borrow from right sibling.
      if (slot + 1 < parent->children.size()) {
        BTreeIndex::Node* right = parent->children[slot + 1].get();
        if (right->count() > min_fill()) {
          if (child->leaf) {
            child->entries.push_back(std::move(right->entries.front()));
            right->entries.erase(right->entries.begin());
            parent->keys[slot] = right->entries.front();
          } else {
            child->keys.push_back(std::move(parent->keys[slot]));
            parent->keys[slot] = std::move(right->keys.front());
            right->keys.erase(right->keys.begin());
            child->children.push_back(std::move(right->children.front()));
            right->children.erase(right->children.begin());
          }
          return;
        }
      }
      // Merge with a sibling.
      std::size_t left_slot = slot > 0 ? slot - 1 : slot;
      BTreeIndex::Node* left = parent->children[left_slot].get();
      BTreeIndex::Node* right = parent->children[left_slot + 1].get();
      if (left->leaf) {
        left->entries.insert(left->entries.end(),
                             std::make_move_iterator(right->entries.begin()),
                             std::make_move_iterator(right->entries.end()));
        left->next = right->next;
      } else {
        left->keys.push_back(std::move(parent->keys[left_slot]));
        left->keys.insert(left->keys.end(), std::make_move_iterator(right->keys.begin()),
                          std::make_move_iterator(right->keys.end()));
        left->children.insert(left->children.end(),
                              std::make_move_iterator(right->children.begin()),
                              std::make_move_iterator(right->children.end()));
      }
      parent->keys.erase(parent->keys.begin() + static_cast<std::ptrdiff_t>(left_slot));
      parent->children.erase(parent->children.begin() + static_cast<std::ptrdiff_t>(left_slot) + 1);
    }

    static std::size_t child_index(const BTreeIndex::Node* n, const Value& key, RowId rid) {
      std::size_t lo = 0, hi = n->keys.size();
      while (lo < hi) {
        std::size_t mid = (lo + hi) / 2;
        if (cmp(n->keys[mid].key, n->keys[mid].rid, key, rid) <= 0) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      return lo;
    }
  };

  Helper h{order_};
  if (!h.erase(root_.get(), key, rid)) return false;
  --size_;
  // Collapse root if it has a single child.
  while (!root_->leaf && root_->children.size() == 1) {
    root_ = std::move(root_->children.front());
  }
  return true;
}

std::vector<RowId> BTreeIndex::find(const Value& key) const {
  std::vector<RowId> out;
  scan_range(&key, &key, [&](const Value&, RowId rid) {
    out.push_back(rid);
    return true;
  });
  return out;
}

void BTreeIndex::scan_range(const Value* lo, const Value* hi,
                            const std::function<bool(const Value&, RowId)>& visit) const {
  // Descend to the first leaf that can contain `lo` (or leftmost leaf).
  const Node* n = root_.get();
  while (!n->leaf) {
    std::size_t slot = 0;
    if (lo != nullptr) {
      std::size_t l = 0, h = n->keys.size();
      while (l < h) {
        std::size_t mid = (l + h) / 2;
        // Separator < lo (by key only; ties descend left to catch dup keys).
        if (n->keys[mid].key.compare(*lo) < 0) {
          l = mid + 1;
        } else {
          h = mid;
        }
      }
      slot = l;
    }
    n = n->children[slot].get();
  }
  for (; n != nullptr; n = n->next) {
    for (const Entry& e : n->entries) {
      if (lo != nullptr && e.key.compare(*lo) < 0) continue;
      if (hi != nullptr && e.key.compare(*hi) > 0) return;
      if (!visit(e.key, e.rid)) return;
    }
  }
}

std::size_t BTreeIndex::height() const {
  std::size_t h = 1;
  const Node* n = root_.get();
  while (!n->leaf) {
    n = n->children.front().get();
    ++h;
  }
  return h;
}

std::string BTreeIndex::validate() const {
  struct Checker {
    std::size_t order;
    std::string error;
    std::size_t leaf_depth = 0;
    std::size_t counted = 0;
    const Entry* prev = nullptr;

    void check(const Node* n, std::size_t depth, bool is_root,
               const Entry* lo, const Entry* hi) {
      if (!error.empty()) return;
      if (n->leaf) {
        if (leaf_depth == 0) {
          leaf_depth = depth;
        } else if (leaf_depth != depth) {
          error = "leaves at different depths";
          return;
        }
        if (!is_root && n->entries.size() < order / 2) {
          error = "leaf underfull";
          return;
        }
        if (n->entries.size() > order) {
          error = "leaf overfull";
          return;
        }
        for (const Entry& e : n->entries) {
          if (prev != nullptr && cmp(prev->key, prev->rid, e.key, e.rid) >= 0) {
            error = "entries out of order";
            return;
          }
          if (lo != nullptr && cmp(e.key, e.rid, lo->key, lo->rid) < 0) {
            error = "entry below subtree lower bound";
            return;
          }
          if (hi != nullptr && cmp(e.key, e.rid, hi->key, hi->rid) >= 0) {
            error = "entry above subtree upper bound";
            return;
          }
          prev = &e;
          ++counted;
        }
        return;
      }
      if (n->children.size() != n->keys.size() + 1) {
        error = "children/keys arity mismatch";
        return;
      }
      if (!is_root && n->children.size() < order / 2) {
        error = "internal underfull";
        return;
      }
      if (n->children.size() > order) {
        error = "internal overfull";
        return;
      }
      for (std::size_t i = 0; i < n->children.size(); ++i) {
        const Entry* sub_lo = i == 0 ? lo : &n->keys[i - 1];
        const Entry* sub_hi = i == n->keys.size() ? hi : &n->keys[i];
        check(n->children[i].get(), depth + 1, false, sub_lo, sub_hi);
        if (!error.empty()) return;
      }
    }
  };

  Checker c{order_, {}, 0, 0, nullptr};
  c.check(root_.get(), 1, true, nullptr, nullptr);
  if (!c.error.empty()) return c.error;
  if (c.counted != size_) return "size mismatch";
  return {};
}

}  // namespace wdoc::storage
