// Typed cell values for the relational engine.
//
// The engine supports the column types the paper's schema needs: integers
// (ids, timestamps, percentages), reals, text (names, keywords,
// descriptions), blobs (file descriptors / inline payloads) and booleans.
// NULL is represented by std::monostate.
#pragma once

#include <cstdint>
#include <string>
#include <variant>

#include "common/result.hpp"
#include "common/serialize.hpp"

namespace wdoc::storage {

enum class ValueType : std::uint8_t {
  null = 0,
  integer = 1,
  real = 2,
  text = 3,
  blob = 4,
  boolean = 5,
};

[[nodiscard]] const char* value_type_name(ValueType t);

class Value {
 public:
  Value() = default;  // NULL
  Value(std::int64_t v) : v_(v) {}                 // NOLINT: implicit by design
  Value(int v) : v_(static_cast<std::int64_t>(v)) {}  // NOLINT
  Value(double v) : v_(v) {}                       // NOLINT
  Value(std::string v) : v_(std::move(v)) {}       // NOLINT
  Value(const char* v) : v_(std::string(v)) {}     // NOLINT
  Value(Bytes v) : v_(std::move(v)) {}             // NOLINT
  Value(bool v) : v_(v) {}                         // NOLINT

  [[nodiscard]] static Value null() { return Value{}; }

  [[nodiscard]] ValueType type() const {
    return static_cast<ValueType>(v_.index());
  }
  [[nodiscard]] bool is_null() const { return type() == ValueType::null; }

  [[nodiscard]] std::int64_t as_int() const { return std::get<std::int64_t>(v_); }
  [[nodiscard]] double as_real() const { return std::get<double>(v_); }
  [[nodiscard]] const std::string& as_text() const { return std::get<std::string>(v_); }
  [[nodiscard]] const Bytes& as_blob() const { return std::get<Bytes>(v_); }
  [[nodiscard]] bool as_bool() const { return std::get<bool>(v_); }

  // Total order: NULL < everything; cross-type compares order by type tag
  // (only same-type comparisons occur for well-typed columns).
  [[nodiscard]] int compare(const Value& other) const;

  friend bool operator==(const Value& a, const Value& b) { return a.compare(b) == 0; }
  friend bool operator!=(const Value& a, const Value& b) { return a.compare(b) != 0; }
  friend bool operator<(const Value& a, const Value& b) { return a.compare(b) < 0; }
  friend bool operator<=(const Value& a, const Value& b) { return a.compare(b) <= 0; }
  friend bool operator>(const Value& a, const Value& b) { return a.compare(b) > 0; }
  friend bool operator>=(const Value& a, const Value& b) { return a.compare(b) >= 0; }

  [[nodiscard]] std::string to_string() const;
  [[nodiscard]] std::size_t byte_size() const;

  void serialize(Writer& w) const;
  [[nodiscard]] static Result<Value> deserialize(Reader& r);

 private:
  std::variant<std::monostate, std::int64_t, double, std::string, Bytes, bool> v_;
};

}  // namespace wdoc::storage
