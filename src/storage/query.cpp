#include "storage/query.hpp"

#include <algorithm>

namespace wdoc::storage {

bool eval_cmp(CmpOp op, const Value& cell, const Value& probe) {
  if (op == CmpOp::is_null) return cell.is_null();
  if (op == CmpOp::not_null) return !cell.is_null();
  if (cell.is_null()) return false;  // SQL-like: NULL matches nothing
  switch (op) {
    case CmpOp::eq: return cell == probe;
    case CmpOp::ne: return cell != probe;
    case CmpOp::lt: return cell < probe;
    case CmpOp::le: return cell <= probe;
    case CmpOp::gt: return cell > probe;
    case CmpOp::ge: return cell >= probe;
    case CmpOp::contains:
      if (cell.type() != ValueType::text || probe.type() != ValueType::text) return false;
      return cell.as_text().find(probe.as_text()) != std::string::npos;
    case CmpOp::is_null:
    case CmpOp::not_null:
      break;  // handled above
  }
  return false;
}

Query& Query::where(std::string column, CmpOp op, Value v) {
  predicates_.push_back(Predicate{std::move(column), op, std::move(v)});
  return *this;
}

Query& Query::order_by(std::string column, bool ascending) {
  order_column_ = std::move(column);
  ascending_ = ascending;
  return *this;
}

Query& Query::limit(std::size_t n) {
  limit_ = n;
  return *this;
}

Query& Query::select(std::vector<std::string> columns) {
  projection_ = std::move(columns);
  return *this;
}

const Query::Predicate* Query::choose_driver() const {
  // Prefer an indexed equality, then an indexed range.
  for (const Predicate& p : predicates_) {
    if (p.op == CmpOp::eq && table_->has_index(p.column)) return &p;
  }
  for (const Predicate& p : predicates_) {
    if ((p.op == CmpOp::lt || p.op == CmpOp::le || p.op == CmpOp::gt ||
         p.op == CmpOp::ge) &&
        table_->has_index(p.column)) {
      return &p;
    }
  }
  return nullptr;
}

Status Query::for_each(
    const std::function<bool(RowId, const std::vector<Value>&)>& visit) const {
  const Schema& schema = table_->schema();
  for (const Predicate& p : predicates_) {
    if (!schema.column_index(p.column)) {
      return {Errc::invalid_argument, "no column: " + p.column};
    }
  }
  const Predicate* driver = choose_driver();

  auto passes_all = [&](RowId, const std::vector<Value>& row) {
    for (const Predicate& p : predicates_) {
      std::size_t ci = *schema.column_index(p.column);
      if (!eval_cmp(p.op, row[ci], p.probe)) return false;
    }
    return true;
  };

  auto guarded_visit = [&](RowId id, const std::vector<Value>& row) {
    if (!passes_all(id, row)) return true;
    return visit(id, row);
  };

  if (driver != nullptr) {
    const Value* lo = nullptr;
    const Value* hi = nullptr;
    switch (driver->op) {
      case CmpOp::eq:
        lo = hi = &driver->probe;
        break;
      case CmpOp::lt:
      case CmpOp::le:
        hi = &driver->probe;
        break;
      case CmpOp::gt:
      case CmpOp::ge:
        lo = &driver->probe;
        break;
      default:
        break;
    }
    table_->scan_range(driver->column, lo, hi, guarded_visit);
  } else {
    table_->scan(guarded_visit);
  }
  return Status::ok();
}

Result<std::vector<QueryRow>> Query::run() const {
  const Schema& schema = table_->schema();
  std::vector<std::size_t> proj;
  for (const std::string& c : projection_) {
    auto ci = schema.column_index(c);
    if (!ci) return Error{Errc::invalid_argument, "no column: " + c};
    proj.push_back(*ci);
  }
  std::optional<std::size_t> order_ci;
  if (order_column_) {
    auto ci = schema.column_index(*order_column_);
    if (!ci) return Error{Errc::invalid_argument, "no column: " + *order_column_};
    order_ci = *ci;
  }

  struct Hit {
    RowId id;
    std::vector<Value> full;
  };
  std::vector<Hit> hits;
  const bool can_stop_early = !order_ci.has_value();
  WDOC_TRY(for_each([&](RowId id, const std::vector<Value>& row) {
    hits.push_back(Hit{id, row});
    return !(can_stop_early && limit_ && hits.size() >= *limit_);
  }));

  if (order_ci) {
    std::stable_sort(hits.begin(), hits.end(), [&](const Hit& a, const Hit& b) {
      int c = a.full[*order_ci].compare(b.full[*order_ci]);
      return ascending_ ? c < 0 : c > 0;
    });
  }
  if (limit_ && hits.size() > *limit_) hits.resize(*limit_);

  std::vector<QueryRow> out;
  out.reserve(hits.size());
  for (Hit& h : hits) {
    QueryRow qr;
    qr.id = h.id;
    if (proj.empty()) {
      qr.values = std::move(h.full);
    } else {
      qr.values.reserve(proj.size());
      for (std::size_t ci : proj) qr.values.push_back(h.full[ci]);
    }
    out.push_back(std::move(qr));
  }
  return out;
}

Result<std::size_t> Query::count() const {
  std::size_t n = 0;
  WDOC_TRY(for_each([&](RowId, const std::vector<Value>&) {
    ++n;
    return true;
  }));
  return n;
}

Result<std::optional<QueryRow>> Query::first() const {
  Query q = *this;
  q.limit(1);
  auto rows = q.run();
  if (!rows) return rows.error();
  if (rows.value().empty()) return std::optional<QueryRow>{};
  return std::optional<QueryRow>{std::move(rows.value().front())};
}

}  // namespace wdoc::storage
