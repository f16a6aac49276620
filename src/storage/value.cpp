#include "storage/value.hpp"

#include <cstdio>

namespace wdoc::storage {

const char* value_type_name(ValueType t) {
  switch (t) {
    case ValueType::null: return "null";
    case ValueType::integer: return "integer";
    case ValueType::real: return "real";
    case ValueType::text: return "text";
    case ValueType::blob: return "blob";
    case ValueType::boolean: return "boolean";
  }
  return "?";
}

int Value::compare(const Value& other) const {
  if (type() != other.type()) {
    return static_cast<int>(type()) < static_cast<int>(other.type()) ? -1 : 1;
  }
  switch (type()) {
    case ValueType::null:
      return 0;
    case ValueType::integer: {
      auto a = as_int(), b = other.as_int();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    case ValueType::real: {
      auto a = as_real(), b = other.as_real();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    case ValueType::text: {
      int c = as_text().compare(other.as_text());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    case ValueType::blob: {
      const auto& a = as_blob();
      const auto& b = other.as_blob();
      if (a < b) return -1;
      if (b < a) return 1;
      return 0;
    }
    case ValueType::boolean:
      return static_cast<int>(as_bool()) - static_cast<int>(other.as_bool());
  }
  return 0;
}

std::string Value::to_string() const {
  switch (type()) {
    case ValueType::null:
      return "NULL";
    case ValueType::integer:
      return std::to_string(as_int());
    case ValueType::real: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%g", as_real());
      return buf;
    }
    case ValueType::text:
      return "'" + as_text() + "'";
    case ValueType::blob:
      return "blob[" + std::to_string(as_blob().size()) + "]";
    case ValueType::boolean:
      return as_bool() ? "true" : "false";
  }
  return "?";
}

std::size_t Value::byte_size() const {
  switch (type()) {
    case ValueType::null: return 1;
    case ValueType::integer: return 9;
    case ValueType::real: return 9;
    case ValueType::text: return 5 + as_text().size();
    case ValueType::blob: return 5 + as_blob().size();
    case ValueType::boolean: return 2;
  }
  return 1;
}

void Value::serialize(Writer& w) const {
  w.u8(static_cast<std::uint8_t>(type()));
  switch (type()) {
    case ValueType::null:
      break;
    case ValueType::integer:
      w.i64(as_int());
      break;
    case ValueType::real:
      w.f64(as_real());
      break;
    case ValueType::text:
      w.str(as_text());
      break;
    case ValueType::blob:
      w.bytes(as_blob());
      break;
    case ValueType::boolean:
      w.boolean(as_bool());
      break;
  }
}

Result<Value> Value::deserialize(Reader& r) {
  auto tag = r.u8();
  if (!tag) return tag.error();
  switch (static_cast<ValueType>(tag.value())) {
    case ValueType::null:
      return Value::null();
    case ValueType::integer: {
      auto v = r.i64();
      if (!v) return v.error();
      return Value{v.value()};
    }
    case ValueType::real: {
      auto v = r.f64();
      if (!v) return v.error();
      return Value{v.value()};
    }
    case ValueType::text: {
      auto v = r.str();
      if (!v) return v.error();
      return Value{std::move(v).value()};
    }
    case ValueType::blob: {
      auto v = r.bytes();
      if (!v) return v.error();
      return Value{std::move(v).value()};
    }
    case ValueType::boolean: {
      auto v = r.boolean();
      if (!v) return v.error();
      return Value{v.value()};
    }
  }
  return Error{Errc::corrupt, "bad value tag"};
}

}  // namespace wdoc::storage
