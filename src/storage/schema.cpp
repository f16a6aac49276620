#include "storage/schema.hpp"

namespace wdoc::storage {

Schema::Schema(std::string table_name, std::vector<Column> columns,
               std::string primary_key, std::vector<ForeignKey> foreign_keys)
    : table_name_(std::move(table_name)),
      columns_(std::move(columns)),
      primary_key_(std::move(primary_key)),
      foreign_keys_(std::move(foreign_keys)) {
  if (!primary_key_.empty()) {
    auto idx = column_index(primary_key_);
    WDOC_CHECK(idx.has_value(), "primary key column missing: " + primary_key_);
    columns_[*idx].unique = true;
    columns_[*idx].nullable = false;
  }
}

std::optional<std::size_t> Schema::column_index(std::string_view name) const {
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == name) return i;
  }
  return std::nullopt;
}

Status Schema::validate_row(const std::vector<Value>& row) const {
  if (row.size() != columns_.size()) {
    return {Errc::invalid_argument,
            table_name_ + ": row arity " + std::to_string(row.size()) + " != " +
                std::to_string(columns_.size())};
  }
  for (std::size_t i = 0; i < row.size(); ++i) {
    const Column& col = columns_[i];
    if (row[i].is_null()) {
      if (!col.nullable) {
        return {Errc::constraint_violation,
                table_name_ + "." + col.name + ": NULL in non-nullable column"};
      }
      continue;
    }
    if (row[i].type() != col.type) {
      return {Errc::invalid_argument,
              table_name_ + "." + col.name + ": expected " +
                  value_type_name(col.type) + ", got " +
                  value_type_name(row[i].type())};
    }
  }
  return Status::ok();
}

void Schema::serialize(Writer& w) const {
  w.str(table_name_);
  w.u32(static_cast<std::uint32_t>(columns_.size()));
  for (const Column& c : columns_) {
    w.str(c.name);
    w.u8(static_cast<std::uint8_t>(c.type));
    w.boolean(c.nullable);
    w.boolean(c.unique);
    w.boolean(c.indexed);
  }
  w.str(primary_key_);
  w.u32(static_cast<std::uint32_t>(foreign_keys_.size()));
  for (const ForeignKey& fk : foreign_keys_) {
    w.str(fk.column);
    w.str(fk.parent_table);
    w.str(fk.parent_column);
    w.u8(static_cast<std::uint8_t>(fk.on_delete));
  }
}

Result<Schema> Schema::deserialize(Reader& r) {
  auto name = r.str();
  if (!name) return name.error();
  auto ncols = r.count(8);  // name length prefix + type + 3 flags
  if (!ncols) return ncols.error();
  std::vector<Column> cols;
  cols.reserve(ncols.value());
  for (std::uint32_t i = 0; i < ncols.value(); ++i) {
    Column c;
    auto cn = r.str();
    if (!cn) return cn.error();
    c.name = std::move(cn).value();
    auto t = r.u8();
    if (!t) return t.error();
    c.type = static_cast<ValueType>(t.value());
    auto nl = r.boolean();
    if (!nl) return nl.error();
    c.nullable = nl.value();
    auto uq = r.boolean();
    if (!uq) return uq.error();
    c.unique = uq.value();
    auto ix = r.boolean();
    if (!ix) return ix.error();
    c.indexed = ix.value();
    cols.push_back(std::move(c));
  }
  auto pk = r.str();
  if (!pk) return pk.error();
  auto nfks = r.count(13);  // three length prefixes + action byte
  if (!nfks) return nfks.error();
  std::vector<ForeignKey> fks;
  fks.reserve(nfks.value());
  for (std::uint32_t i = 0; i < nfks.value(); ++i) {
    ForeignKey fk;
    auto col = r.str();
    if (!col) return col.error();
    fk.column = std::move(col).value();
    auto pt = r.str();
    if (!pt) return pt.error();
    fk.parent_table = std::move(pt).value();
    auto pc = r.str();
    if (!pc) return pc.error();
    fk.parent_column = std::move(pc).value();
    auto act = r.u8();
    if (!act) return act.error();
    fk.on_delete = static_cast<RefAction>(act.value());
    fks.push_back(std::move(fk));
  }
  return Schema(std::move(name).value(), std::move(cols), std::move(pk).value(),
                std::move(fks));
}

}  // namespace wdoc::storage
