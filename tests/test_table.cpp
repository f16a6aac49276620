// Heap table tests: CRUD, constraint enforcement, index maintenance, scans.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "storage/table.hpp"

namespace wdoc::storage {
namespace {

Schema script_like_schema() {
  Column name{"name", ValueType::text, false, false, false};
  Column author{"author", ValueType::text, true, false, true};
  Column version{"version", ValueType::integer, true, false, false};
  Column pct{"pct", ValueType::real, true, false, false};
  return Schema("scripts", {name, author, version, pct}, /*primary_key=*/"name");
}

TEST(Table, InsertAssignsMonotonicRowIds) {
  Table t(script_like_schema());
  auto a = t.insert({Value("s1"), Value("shih"), Value(1), Value(0.5)});
  auto b = t.insert({Value("s2"), Value("ma"), Value(1), Value(0.7)});
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  EXPECT_LT(a.value(), b.value());
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, GetReturnsRow) {
  Table t(script_like_schema());
  RowId id = t.insert({Value("s1"), Value("shih"), Value(3), Value(1.0)}).value();
  const auto* row = t.get(id);
  ASSERT_NE(row, nullptr);
  EXPECT_EQ((*row)[0].as_text(), "s1");
  EXPECT_EQ((*row)[2].as_int(), 3);
  EXPECT_EQ(t.get(RowId{999}), nullptr);
}

TEST(Table, RejectsArityMismatch) {
  Table t(script_like_schema());
  auto r = t.insert({Value("s1"), Value("shih")});
  EXPECT_EQ(r.code(), Errc::invalid_argument);
}

TEST(Table, RejectsTypeMismatch) {
  Table t(script_like_schema());
  auto r = t.insert({Value("s1"), Value("shih"), Value("not-an-int"), Value(0.0)});
  EXPECT_EQ(r.code(), Errc::invalid_argument);
}

TEST(Table, RejectsNullInNonNullableColumn) {
  Table t(script_like_schema());
  auto r = t.insert({Value::null(), Value("shih"), Value(1), Value(0.0)});
  EXPECT_EQ(r.code(), Errc::constraint_violation);
}

TEST(Table, AllowsNullInNullableColumn) {
  Table t(script_like_schema());
  auto r = t.insert({Value("s1"), Value::null(), Value::null(), Value::null()});
  EXPECT_TRUE(r.is_ok());
}

TEST(Table, EnforcesUniquePrimaryKey) {
  Table t(script_like_schema());
  ASSERT_TRUE(t.insert({Value("s1"), Value("a"), Value(1), Value(0.0)}).is_ok());
  auto dup = t.insert({Value("s1"), Value("b"), Value(2), Value(0.0)});
  EXPECT_EQ(dup.code(), Errc::constraint_violation);
  EXPECT_EQ(t.row_count(), 1u);
}

TEST(Table, NullsDoNotCollideOnUnique) {
  Schema s("t", {Column{"k", ValueType::text, true, true, false},
                 Column{"v", ValueType::integer, true, false, false}});
  Table t(s);
  EXPECT_TRUE(t.insert({Value::null(), Value(1)}).is_ok());
  EXPECT_TRUE(t.insert({Value::null(), Value(2)}).is_ok());
}

TEST(Table, UpdateRevalidatesAndReindexes) {
  Table t(script_like_schema());
  RowId id = t.insert({Value("s1"), Value("shih"), Value(1), Value(0.0)}).value();
  ASSERT_TRUE(t.insert({Value("s2"), Value("ma"), Value(1), Value(0.0)}).is_ok());
  // Renaming to an existing key must fail.
  EXPECT_EQ(t.update(id, {Value("s2"), Value("x"), Value(1), Value(0.0)}).code(),
            Errc::constraint_violation);
  // Legit update succeeds and the old key disappears from the index.
  ASSERT_TRUE(t.update(id, {Value("s9"), Value("x"), Value(2), Value(0.5)}).is_ok());
  EXPECT_FALSE(t.find_unique("name", Value("s1")).has_value());
  EXPECT_TRUE(t.find_unique("name", Value("s9")).has_value());
}

TEST(Table, UpdateSameKeyOnSameRowIsAllowed) {
  Table t(script_like_schema());
  RowId id = t.insert({Value("s1"), Value("shih"), Value(1), Value(0.0)}).value();
  EXPECT_TRUE(t.update(id, {Value("s1"), Value("shih"), Value(2), Value(0.9)}).is_ok());
}

TEST(Table, UpdateColumn) {
  Table t(script_like_schema());
  RowId id = t.insert({Value("s1"), Value("shih"), Value(1), Value(0.0)}).value();
  ASSERT_TRUE(t.update_column(id, "pct", Value(55.0)).is_ok());
  EXPECT_DOUBLE_EQ(t.get(id)->at(3).as_real(), 55.0);
  EXPECT_EQ(t.update_column(id, "nope", Value(1)).code(), Errc::invalid_argument);
}

TEST(Table, EraseRemovesRowAndIndexEntries) {
  Table t(script_like_schema());
  RowId id = t.insert({Value("s1"), Value("shih"), Value(1), Value(0.0)}).value();
  ASSERT_TRUE(t.erase(id).is_ok());
  EXPECT_EQ(t.row_count(), 0u);
  EXPECT_EQ(t.get(id), nullptr);
  EXPECT_TRUE(t.find_equal("name", Value("s1")).empty());
  EXPECT_EQ(t.erase(id).code(), Errc::not_found);
}

TEST(Table, FindEqualUsesSecondaryIndex) {
  Table t(script_like_schema());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(t.insert({Value("s" + std::to_string(i)),
                          Value(i % 2 == 0 ? "shih" : "ma"), Value(1), Value(0.0)})
                    .is_ok());
  }
  EXPECT_TRUE(t.has_index("author"));
  EXPECT_EQ(t.find_equal("author", Value("shih")).size(), 10u);
  EXPECT_EQ(t.find_equal("author", Value("nobody")).size(), 0u);
}

TEST(Table, FindEqualFallsBackToScanForUnindexedColumn) {
  Table t(script_like_schema());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(t.insert({Value("s" + std::to_string(i)), Value("a"),
                          Value(i % 3), Value(0.0)})
                    .is_ok());
  }
  EXPECT_FALSE(t.has_index("version"));
  EXPECT_EQ(t.find_equal("version", Value(0)).size(), 4u);
}

TEST(Table, ScanRangeOrderedOnIndexedColumn) {
  Table t(script_like_schema());
  for (int i = 9; i >= 0; --i) {
    ASSERT_TRUE(t.insert({Value("s" + std::to_string(i)),
                          Value("auth" + std::to_string(i)), Value(1), Value(0.0)})
                    .is_ok());
  }
  Value lo("auth3"), hi("auth6");
  std::vector<std::string> seen;
  t.scan_range("author", &lo, &hi, [&](RowId, const std::vector<Value>& row) {
    seen.push_back(row[1].as_text());
    return true;
  });
  EXPECT_EQ(seen, (std::vector<std::string>{"auth3", "auth4", "auth5", "auth6"}));
}

TEST(Table, ScanRangeOnUnindexedColumnStillSorted) {
  Table t(script_like_schema());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(t.insert({Value("s" + std::to_string(i)), Value("a"),
                          Value(9 - i), Value(0.0)})
                    .is_ok());
  }
  Value lo(2), hi(5);
  std::vector<std::int64_t> versions;
  t.scan_range("version", &lo, &hi, [&](RowId, const std::vector<Value>& row) {
    versions.push_back(row[2].as_int());
    return true;
  });
  EXPECT_EQ(versions, (std::vector<std::int64_t>{2, 3, 4, 5}));
}

TEST(Table, RestoreBringsBackRowUnderOldId) {
  Table t(script_like_schema());
  RowId id = t.insert({Value("s1"), Value("a"), Value(1), Value(0.0)}).value();
  std::vector<Value> saved = *t.get(id);
  ASSERT_TRUE(t.erase(id).is_ok());
  ASSERT_TRUE(t.restore(id, saved).is_ok());
  EXPECT_EQ(t.get(id)->at(0).as_text(), "s1");
  // Fresh inserts never collide with restored ids.
  RowId next = t.insert({Value("s2"), Value("a"), Value(1), Value(0.0)}).value();
  EXPECT_GT(next, id);
  // Restoring over a live row fails.
  EXPECT_EQ(t.restore(id, saved).code(), Errc::already_exists);
}

TEST(Table, PayloadBytesTracksContent) {
  Table t(script_like_schema());
  EXPECT_EQ(t.payload_bytes(), 0u);
  RowId id =
      t.insert({Value("s1"), Value(std::string(1000, 'x')), Value(1), Value(0.0)})
          .value();
  std::size_t with_row = t.payload_bytes();
  EXPECT_GT(with_row, 1000u);
  ASSERT_TRUE(t.erase(id).is_ok());
  EXPECT_EQ(t.payload_bytes(), 0u);
}

TEST(Table, DeterministicScanOrderByRowId) {
  Table t(script_like_schema());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(t.insert({Value("s" + std::to_string(i)), Value("a"), Value(i),
                          Value(0.0)})
                    .is_ok());
  }
  RowId prev{0};
  t.scan([&](RowId id, const std::vector<Value>&) {
    EXPECT_GT(id, prev);
    prev = id;
    return true;
  });
}

}  // namespace
}  // namespace wdoc::storage
