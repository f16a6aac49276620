// Tests for storage::Value: typing, total order, hashing, serialization.
#include <gtest/gtest.h>

#include "storage/value.hpp"

namespace wdoc::storage {
namespace {

TEST(Value, TypesAreTagged) {
  EXPECT_EQ(Value::null().type(), ValueType::null);
  EXPECT_EQ(Value(1).type(), ValueType::integer);
  EXPECT_EQ(Value(std::int64_t{1}).type(), ValueType::integer);
  EXPECT_EQ(Value(1.5).type(), ValueType::real);
  EXPECT_EQ(Value("x").type(), ValueType::text);
  EXPECT_EQ(Value(Bytes{1}).type(), ValueType::blob);
  EXPECT_EQ(Value(true).type(), ValueType::boolean);
}

TEST(Value, AccessorsReturnStoredValues) {
  EXPECT_EQ(Value(42).as_int(), 42);
  EXPECT_DOUBLE_EQ(Value(2.5).as_real(), 2.5);
  EXPECT_EQ(Value("abc").as_text(), "abc");
  EXPECT_EQ(Value(Bytes{9, 8}).as_blob(), (Bytes{9, 8}));
  EXPECT_TRUE(Value(true).as_bool());
}

TEST(Value, SameTypeOrdering) {
  EXPECT_LT(Value(1), Value(2));
  EXPECT_LT(Value(1.0), Value(1.5));
  EXPECT_LT(Value("a"), Value("b"));
  EXPECT_LT(Value(false), Value(true));
  EXPECT_EQ(Value("same"), Value("same"));
}

TEST(Value, NullComparesBelowEverything) {
  EXPECT_LT(Value::null(), Value(std::int64_t{-100}));
  EXPECT_LT(Value::null(), Value(""));
  EXPECT_EQ(Value::null(), Value::null());
}

TEST(Value, CrossTypeOrderIsTotalAndStable) {
  // Ordered by type tag: null < integer < real < text < blob < boolean.
  EXPECT_LT(Value(99), Value(0.5));
  EXPECT_LT(Value(0.5), Value("a"));
  EXPECT_LT(Value("zzz"), Value(Bytes{0}));
}

TEST(Value, ToStringForDebugging) {
  EXPECT_EQ(Value::null().to_string(), "NULL");
  EXPECT_EQ(Value(5).to_string(), "5");
  EXPECT_EQ(Value("t").to_string(), "'t'");
  EXPECT_EQ(Value(Bytes{1, 2}).to_string(), "blob[2]");
  EXPECT_EQ(Value(false).to_string(), "false");
}

TEST(Value, SerializeRoundTripsEveryType) {
  std::vector<Value> values{Value::null(), Value(-7),        Value(3.125),
                            Value("text"), Value(Bytes{0, 255}), Value(true)};
  Writer w;
  for (const Value& v : values) v.serialize(w);
  Reader r(w.data());
  for (const Value& v : values) {
    auto decoded = Value::deserialize(r);
    ASSERT_TRUE(decoded.is_ok());
    EXPECT_EQ(decoded.value(), v);
    EXPECT_EQ(decoded.value().type(), v.type());
  }
  EXPECT_TRUE(r.at_end());
}

TEST(Value, DeserializeRejectsBadTag) {
  Writer w;
  w.u8(99);
  Reader r(w.data());
  EXPECT_EQ(Value::deserialize(r).code(), Errc::corrupt);
}

TEST(Value, ByteSizeTracksPayload) {
  EXPECT_GT(Value(std::string(100, 'x')).byte_size(), Value("x").byte_size());
  EXPECT_EQ(Value::null().byte_size(), 1u);
}

}  // namespace
}  // namespace wdoc::storage
