// In-memory B+-tree secondary index: Value key -> RowId postings.
//
// Duplicates are supported by treating (key, row_id) as the composite sort
// key. Leaves are chained for ordered range scans. `validate()` checks the
// structural invariants (sortedness, fill factors, separator correctness,
// uniform leaf depth) and is exercised by property tests.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/ids.hpp"
#include "storage/value.hpp"

namespace wdoc::storage {

class BTreeIndex {
 public:
  // `order` = max children of an internal node (= max entries of a leaf).
  explicit BTreeIndex(std::size_t order = 64);
  ~BTreeIndex();

  BTreeIndex(const BTreeIndex&) = delete;
  BTreeIndex& operator=(const BTreeIndex&) = delete;
  BTreeIndex(BTreeIndex&&) noexcept;

  void insert(const Value& key, RowId rid);
  // Returns true if the (key, rid) entry existed and was removed.
  bool erase(const Value& key, RowId rid);

  [[nodiscard]] std::vector<RowId> find(const Value& key) const;

  // Visit entries with lo <= key <= hi in key order; nullptr bound = open.
  // Visitor returns false to stop early.
  void scan_range(const Value* lo, const Value* hi,
                  const std::function<bool(const Value&, RowId)>& visit) const;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t height() const;

  // Structural invariant check; returns a human-readable violation or ""
  [[nodiscard]] std::string validate() const;

 private:
  struct Entry {
    Value key;
    RowId rid;
  };
  struct Node;  // defined in .cpp

  std::unique_ptr<Node> root_;
  std::size_t order_;
  std::size_t size_ = 0;
};

}  // namespace wdoc::storage
