// Heap table with slot reuse and auto-maintained secondary indexes.
//
// Rows are addressed by RowId (never reused, monotonically allocated).
// Unique columns are enforced through their index. FK enforcement lives in
// Catalog, which sees all tables.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "storage/btree_index.hpp"
#include "storage/schema.hpp"

namespace wdoc::storage {

struct RowRef {
  RowId id;
  const std::vector<Value>* row = nullptr;  // borrowed; invalidated by writes
};

class Table {
 public:
  explicit Table(Schema schema);

  [[nodiscard]] const Schema& schema() const { return schema_; }
  [[nodiscard]] const std::string& name() const { return schema_.table_name(); }

  // Insert a full row; validates arity/types/NOT NULL/unique. Returns the
  // new RowId.
  [[nodiscard]] Result<RowId> insert(std::vector<Value> row);

  // Point read. The returned pointer stays valid until the next write to
  // this table.
  [[nodiscard]] const std::vector<Value>* get(RowId id) const;

  // Full replacement of one row; re-validates and re-indexes.
  [[nodiscard]] Status update(RowId id, std::vector<Value> row);
  // Update a single column.
  [[nodiscard]] Status update_column(RowId id, std::string_view column, Value v);

  [[nodiscard]] Status erase(RowId id);

  [[nodiscard]] bool exists(RowId id) const { return get(id) != nullptr; }
  [[nodiscard]] std::size_t row_count() const { return live_rows_; }

  // --- lookups ---------------------------------------------------------
  // Equality lookup; uses an index when one exists for the column, falls
  // back to a full scan otherwise.
  [[nodiscard]] std::vector<RowId> find_equal(std::string_view column, const Value& v) const;
  // First match or nothing (for unique columns).
  [[nodiscard]] std::optional<RowId> find_unique(std::string_view column, const Value& v) const;
  // Ordered range scan over an indexed column (B-tree only).
  void scan_range(std::string_view column, const Value* lo, const Value* hi,
                  const std::function<bool(RowId, const std::vector<Value>&)>& visit) const;
  // Visit every live row (arbitrary order).
  void scan(const std::function<bool(RowId, const std::vector<Value>&)>& visit) const;

  [[nodiscard]] bool has_index(std::string_view column) const;

  // Approximate resident bytes (row payloads only).
  [[nodiscard]] std::size_t payload_bytes() const { return payload_bytes_; }

  // Restore a row under a specific id (WAL recovery / txn undo). Bypasses
  // unique checks only for the id allocation; value constraints still apply.
  [[nodiscard]] Status restore(RowId id, std::vector<Value> row);

 private:
  void index_row(RowId id, const std::vector<Value>& row);
  void unindex_row(RowId id, const std::vector<Value>& row);
  [[nodiscard]] Status check_unique(const std::vector<Value>& row,
                                    std::optional<RowId> ignore) const;

  Schema schema_;
  // Live rows keyed by id. std::map keeps ids ordered so scan() is
  // deterministic, which matters for reproducible simulations.
  std::map<RowId, std::vector<Value>> rows_;
  IdAllocator<RowId> ids_;
  std::size_t live_rows_ = 0;
  std::size_t payload_bytes_ = 0;

  struct ColumnIndex {
    std::size_t column = 0;
    BTreeIndex btree;
  };
  std::vector<ColumnIndex> indexes_;
};

}  // namespace wdoc::storage
