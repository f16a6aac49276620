// Fluent read-query layer over a Table: conjunctive predicates, ordering,
// projection and limits. Picks an index for the most selective applicable
// predicate and filters the rest row-at-a-time.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "storage/table.hpp"

namespace wdoc::storage {

enum class CmpOp : std::uint8_t {
  eq,
  ne,
  lt,
  le,
  gt,
  ge,
  contains,  // text substring
  is_null,   // probe ignored
  not_null,  // probe ignored
};

[[nodiscard]] bool eval_cmp(CmpOp op, const Value& cell, const Value& probe);

struct QueryRow {
  RowId id;
  std::vector<Value> values;  // projected columns, or all columns
};

class Query {
 public:
  explicit Query(const Table& table) : table_(&table) {}

  Query& where(std::string column, CmpOp op, Value v);
  Query& where_eq(std::string column, Value v) {
    return where(std::move(column), CmpOp::eq, std::move(v));
  }
  Query& order_by(std::string column, bool ascending = true);
  Query& limit(std::size_t n);
  Query& select(std::vector<std::string> columns);

  // Executes and materializes matching rows.
  [[nodiscard]] Result<std::vector<QueryRow>> run() const;
  [[nodiscard]] Result<std::size_t> count() const;
  [[nodiscard]] Result<std::optional<QueryRow>> first() const;

 private:
  struct Predicate {
    std::string column;
    CmpOp op;
    Value probe;
  };

  [[nodiscard]] const Predicate* choose_driver() const;
  [[nodiscard]] Status for_each(
      const std::function<bool(RowId, const std::vector<Value>&)>& visit) const;

  const Table* table_;
  std::vector<Predicate> predicates_;
  std::optional<std::string> order_column_;
  bool ascending_ = true;
  std::optional<std::size_t> limit_;
  std::vector<std::string> projection_;
};

}  // namespace wdoc::storage
