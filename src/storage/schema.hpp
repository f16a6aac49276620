// Table schemas: typed columns, primary key, uniqueness and foreign keys.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "common/serialize.hpp"
#include "storage/value.hpp"

namespace wdoc::storage {

struct Column {
  std::string name;
  ValueType type = ValueType::text;
  bool nullable = true;
  bool unique = false;   // enforced via an automatically created unique index
  bool indexed = false;  // non-unique secondary index requested at creation
};

enum class RefAction : std::uint8_t {
  restrict = 0,  // reject delete/update of a referenced parent row
  cascade = 1,   // delete referencing rows alongside the parent
  set_null = 2,  // null out the referencing column
};


struct ForeignKey {
  std::string column;        // column in this table
  std::string parent_table;  // referenced table name
  std::string parent_column; // referenced column (must be unique/PK there)
  RefAction on_delete = RefAction::restrict;
};

class Schema {
 public:
  Schema() = default;
  Schema(std::string table_name, std::vector<Column> columns,
         std::string primary_key = {}, std::vector<ForeignKey> foreign_keys = {});

  [[nodiscard]] const std::string& table_name() const { return table_name_; }
  [[nodiscard]] const std::vector<Column>& columns() const { return columns_; }
  [[nodiscard]] const std::vector<ForeignKey>& foreign_keys() const { return foreign_keys_; }
  [[nodiscard]] const std::string& primary_key() const { return primary_key_; }

  [[nodiscard]] std::optional<std::size_t> column_index(std::string_view name) const;
  [[nodiscard]] const Column& column(std::size_t i) const { return columns_[i]; }
  [[nodiscard]] std::size_t column_count() const { return columns_.size(); }

  // Validates that a row conforms: arity, types (NULL allowed only when
  // nullable). Returns a descriptive error otherwise.
  [[nodiscard]] Status validate_row(const std::vector<Value>& row) const;

  void serialize(Writer& w) const;
  [[nodiscard]] static Result<Schema> deserialize(Reader& r);

 private:
  std::string table_name_;
  std::vector<Column> columns_;
  std::string primary_key_;  // empty if none
  std::vector<ForeignKey> foreign_keys_;
};

}  // namespace wdoc::storage
