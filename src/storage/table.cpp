#include "storage/table.hpp"

#include <algorithm>

namespace wdoc::storage {

namespace {

std::size_t row_bytes(const std::vector<Value>& row) {
  std::size_t n = 0;
  for (const Value& v : row) n += v.byte_size();
  return n;
}

}  // namespace

Table::Table(Schema schema) : schema_(std::move(schema)) {
  for (std::size_t i = 0; i < schema_.column_count(); ++i) {
    const Column& col = schema_.column(i);
    if (col.unique || col.indexed) indexes_.push_back(ColumnIndex{i, BTreeIndex{}});
  }
}

Result<RowId> Table::insert(std::vector<Value> row) {
  WDOC_TRY(schema_.validate_row(row));
  WDOC_TRY(check_unique(row, std::nullopt));
  RowId id = ids_.next();
  index_row(id, row);
  payload_bytes_ += row_bytes(row);
  rows_.emplace(id, std::move(row));
  ++live_rows_;
  return id;
}

Status Table::restore(RowId id, std::vector<Value> row) {
  WDOC_TRY(schema_.validate_row(row));
  if (rows_.contains(id)) {
    return {Errc::already_exists, name() + ": restore over live row"};
  }
  WDOC_TRY(check_unique(row, std::nullopt));
  ids_.reserve_through(id.value());
  index_row(id, row);
  payload_bytes_ += row_bytes(row);
  rows_.emplace(id, std::move(row));
  ++live_rows_;
  return Status::ok();
}

const std::vector<Value>* Table::get(RowId id) const {
  auto it = rows_.find(id);
  return it == rows_.end() ? nullptr : &it->second;
}

Status Table::update(RowId id, std::vector<Value> row) {
  auto it = rows_.find(id);
  if (it == rows_.end()) return {Errc::not_found, name() + ": no such row"};
  WDOC_TRY(schema_.validate_row(row));
  WDOC_TRY(check_unique(row, id));
  unindex_row(id, it->second);
  payload_bytes_ -= row_bytes(it->second);
  payload_bytes_ += row_bytes(row);
  it->second = std::move(row);
  index_row(id, it->second);
  return Status::ok();
}

Status Table::update_column(RowId id, std::string_view column, Value v) {
  auto it = rows_.find(id);
  if (it == rows_.end()) return {Errc::not_found, name() + ": no such row"};
  auto ci = schema_.column_index(column);
  if (!ci) return {Errc::invalid_argument, name() + ": no column " + std::string(column)};
  std::vector<Value> row = it->second;
  row[*ci] = std::move(v);
  return update(id, std::move(row));
}

Status Table::erase(RowId id) {
  auto it = rows_.find(id);
  if (it == rows_.end()) return {Errc::not_found, name() + ": no such row"};
  unindex_row(id, it->second);
  payload_bytes_ -= row_bytes(it->second);
  rows_.erase(it);
  --live_rows_;
  return Status::ok();
}

std::vector<RowId> Table::find_equal(std::string_view column, const Value& v) const {
  auto ci = schema_.column_index(column);
  WDOC_CHECK(ci.has_value(), name() + ": no column " + std::string(column));
  for (const ColumnIndex& idx : indexes_) {
    if (idx.column == *ci) return idx.btree.find(v);
  }
  std::vector<RowId> out;
  for (const auto& [id, row] : rows_) {
    if (row[*ci] == v) out.push_back(id);
  }
  return out;
}

std::optional<RowId> Table::find_unique(std::string_view column, const Value& v) const {
  auto matches = find_equal(column, v);
  if (matches.empty()) return std::nullopt;
  return matches.front();
}

void Table::scan_range(std::string_view column, const Value* lo, const Value* hi,
                       const std::function<bool(RowId, const std::vector<Value>&)>& visit) const {
  auto ci = schema_.column_index(column);
  WDOC_CHECK(ci.has_value(), name() + ": no column " + std::string(column));
  for (const ColumnIndex& idx : indexes_) {
    if (idx.column == *ci) {
      idx.btree.scan_range(lo, hi, [&](const Value&, RowId rid) {
        const auto* row = get(rid);
        WDOC_CHECK(row != nullptr, "index points at dead row");
        return visit(rid, *row);
      });
      return;
    }
  }
  // Unindexed fallback: materialize matching (value, id) pairs and sort.
  std::vector<std::pair<Value, RowId>> matched;
  for (const auto& [id, row] : rows_) {
    const Value& v = row[*ci];
    if (lo != nullptr && v < *lo) continue;
    if (hi != nullptr && v > *hi) continue;
    matched.emplace_back(v, id);
  }
  std::sort(matched.begin(), matched.end(), [](const auto& a, const auto& b) {
    int c = a.first.compare(b.first);
    if (c != 0) return c < 0;
    return a.second < b.second;
  });
  for (const auto& [v, id] : matched) {
    if (!visit(id, *get(id))) return;
  }
}

void Table::scan(const std::function<bool(RowId, const std::vector<Value>&)>& visit) const {
  for (const auto& [id, row] : rows_) {
    if (!visit(id, row)) return;
  }
}

bool Table::has_index(std::string_view column) const {
  auto ci = schema_.column_index(column);
  if (!ci) return false;
  return std::any_of(indexes_.begin(), indexes_.end(),
                     [&](const ColumnIndex& idx) { return idx.column == *ci; });
}

void Table::index_row(RowId id, const std::vector<Value>& row) {
  for (ColumnIndex& idx : indexes_) {
    const Value& v = row[idx.column];
    if (v.is_null()) continue;  // NULLs are not indexed (and never unique-conflict)
    idx.btree.insert(v, id);
  }
}

void Table::unindex_row(RowId id, const std::vector<Value>& row) {
  for (ColumnIndex& idx : indexes_) {
    const Value& v = row[idx.column];
    if (v.is_null()) continue;
    idx.btree.erase(v, id);
  }
}

Status Table::check_unique(const std::vector<Value>& row,
                           std::optional<RowId> ignore) const {
  for (std::size_t i = 0; i < schema_.column_count(); ++i) {
    const Column& col = schema_.column(i);
    if (!col.unique || row[i].is_null()) continue;
    for (RowId match : find_equal(col.name, row[i])) {
      if (!ignore || match != *ignore) {
        return {Errc::constraint_violation,
                name() + "." + col.name + ": duplicate value " + row[i].to_string()};
      }
    }
  }
  return Status::ok();
}

}  // namespace wdoc::storage
