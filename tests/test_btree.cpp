// B+-tree index tests: CRUD, duplicates, range scans, and a parameterized
// property sweep that hammers random workloads and checks the structural
// invariants after every phase.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/rng.hpp"
#include "storage/btree_index.hpp"

namespace wdoc::storage {
namespace {

TEST(BTree, EmptyTree) {
  BTreeIndex t;
  EXPECT_EQ(t.size(), 0u);
  EXPECT_TRUE(t.empty());
  EXPECT_TRUE(t.find(Value(1)).empty());
  EXPECT_TRUE(t.find(Value(1)).empty());
  EXPECT_EQ(t.validate(), "");
}

TEST(BTree, InsertAndFind) {
  BTreeIndex t;
  t.insert(Value("b"), RowId{2});
  t.insert(Value("a"), RowId{1});
  t.insert(Value("c"), RowId{3});
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.find(Value("a")), std::vector<RowId>{RowId{1}});
  EXPECT_FALSE(t.find(Value("c")).empty());
  EXPECT_TRUE(t.find(Value("d")).empty());
  EXPECT_EQ(t.validate(), "");
}

TEST(BTree, DuplicateKeysKeepAllPostings) {
  BTreeIndex t;
  for (std::uint64_t i = 1; i <= 5; ++i) t.insert(Value("dup"), RowId{i});
  auto hits = t.find(Value("dup"));
  EXPECT_EQ(hits.size(), 5u);
  EXPECT_TRUE(t.erase(Value("dup"), RowId{3}));
  hits = t.find(Value("dup"));
  EXPECT_EQ(hits.size(), 4u);
  EXPECT_EQ(std::count(hits.begin(), hits.end(), RowId{3}), 0);
}

TEST(BTree, EraseReturnsFalseForMissing) {
  BTreeIndex t;
  t.insert(Value(1), RowId{1});
  EXPECT_FALSE(t.erase(Value(1), RowId{2}));  // wrong rid
  EXPECT_FALSE(t.erase(Value(2), RowId{1}));  // wrong key
  EXPECT_TRUE(t.erase(Value(1), RowId{1}));
  EXPECT_EQ(t.size(), 0u);
}

TEST(BTree, ScanAllIsSorted) {
  BTreeIndex t;
  Rng rng(17);
  for (int i = 0; i < 500; ++i) {
    t.insert(Value(static_cast<std::int64_t>(rng.uniform(1000))),
             RowId{static_cast<std::uint64_t>(i + 1)});
  }
  Value prev = Value::null();
  std::size_t count = 0;
  t.scan_range(nullptr, nullptr, [&](const Value& k, RowId) {
    EXPECT_LE(prev, k);
    prev = k;
    ++count;
    return true;
  });
  EXPECT_EQ(count, 500u);
}

TEST(BTree, RangeScanRespectsBounds) {
  BTreeIndex t;
  for (std::int64_t i = 0; i < 100; ++i) {
    t.insert(Value(i), RowId{static_cast<std::uint64_t>(i + 1)});
  }
  Value lo(10), hi(19);
  std::vector<std::int64_t> keys;
  t.scan_range(&lo, &hi, [&](const Value& k, RowId) {
    keys.push_back(k.as_int());
    return true;
  });
  ASSERT_EQ(keys.size(), 10u);
  EXPECT_EQ(keys.front(), 10);
  EXPECT_EQ(keys.back(), 19);
}

TEST(BTree, RangeScanOpenBounds) {
  BTreeIndex t;
  for (std::int64_t i = 0; i < 20; ++i) {
    t.insert(Value(i), RowId{static_cast<std::uint64_t>(i + 1)});
  }
  Value lo(15);
  std::size_t above = 0;
  t.scan_range(&lo, nullptr, [&](const Value&, RowId) {
    ++above;
    return true;
  });
  EXPECT_EQ(above, 5u);
  Value hi(4);
  std::size_t below = 0;
  t.scan_range(nullptr, &hi, [&](const Value&, RowId) {
    ++below;
    return true;
  });
  EXPECT_EQ(below, 5u);
}

TEST(BTree, EarlyStopFromVisitor) {
  BTreeIndex t;
  for (std::int64_t i = 0; i < 100; ++i) {
    t.insert(Value(i), RowId{static_cast<std::uint64_t>(i + 1)});
  }
  std::size_t seen = 0;
  t.scan_range(nullptr, nullptr, [&](const Value&, RowId) { return ++seen < 7; });
  EXPECT_EQ(seen, 7u);
}

TEST(BTree, GrowsAndShrinksThroughSplitsAndMerges) {
  BTreeIndex t(8);  // small order to force deep trees
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    t.insert(Value(static_cast<std::int64_t>(i)), RowId{static_cast<std::uint64_t>(i + 1)});
  }
  EXPECT_GT(t.height(), 2u);
  EXPECT_EQ(t.validate(), "");
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(t.erase(Value(static_cast<std::int64_t>(i)),
                        RowId{static_cast<std::uint64_t>(i + 1)}));
  }
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.height(), 1u);
  EXPECT_EQ(t.validate(), "");
}

TEST(BTree, TextKeysWork) {
  BTreeIndex t;
  t.insert(Value("script-b"), RowId{2});
  t.insert(Value("script-a"), RowId{1});
  t.insert(Value("script-c"), RowId{3});
  Value lo("script-a"), hi("script-b");
  std::vector<std::string> keys;
  t.scan_range(&lo, &hi, [&](const Value& k, RowId) {
    keys.push_back(k.as_text());
    return true;
  });
  EXPECT_EQ(keys, (std::vector<std::string>{"script-a", "script-b"}));
}

// --- property sweep ------------------------------------------------------

struct BTreeSweepParam {
  std::size_t order;
  std::size_t ops;
  std::uint64_t key_space;
  std::uint64_t seed;
};

class BTreeProperty : public ::testing::TestWithParam<BTreeSweepParam> {};

TEST_P(BTreeProperty, MatchesReferenceMultimapUnderRandomOps) {
  const auto p = GetParam();
  BTreeIndex tree(p.order);
  std::multimap<std::int64_t, std::uint64_t> reference;
  Rng rng(p.seed);
  std::uint64_t next_rid = 0;

  for (std::size_t op = 0; op < p.ops; ++op) {
    double u = rng.uniform01();
    if (u < 0.6 || reference.empty()) {
      std::int64_t key = static_cast<std::int64_t>(rng.uniform(p.key_space));
      std::uint64_t rid = ++next_rid;
      tree.insert(Value(key), RowId{rid});
      reference.emplace(key, rid);
    } else {
      // Erase a random existing entry.
      auto it = reference.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(rng.uniform(reference.size())));
      ASSERT_TRUE(tree.erase(Value(it->first), RowId{it->second}));
      reference.erase(it);
    }
    if (op % 250 == 0) {
      ASSERT_EQ(tree.validate(), "") << "after op " << op;
    }
  }

  ASSERT_EQ(tree.validate(), "");
  ASSERT_EQ(tree.size(), reference.size());

  // Full ordered scan must equal the reference ordering by (key, rid).
  std::vector<std::pair<std::int64_t, std::uint64_t>> got;
  tree.scan_range(nullptr, nullptr, [&](const Value& k, RowId r) {
    got.emplace_back(k.as_int(), r.value());
    return true;
  });
  std::vector<std::pair<std::int64_t, std::uint64_t>> want(reference.begin(),
                                                           reference.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);

  // Point lookups agree for every key in the key space.
  for (std::uint64_t k = 0; k < p.key_space; ++k) {
    auto key = static_cast<std::int64_t>(k);
    auto hits = tree.find(Value(key));
    EXPECT_EQ(hits.size(), reference.count(key)) << "key " << key;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BTreeProperty,
    ::testing::Values(BTreeSweepParam{4, 2000, 50, 1},
                      BTreeSweepParam{8, 2000, 500, 2},
                      BTreeSweepParam{16, 3000, 20, 3},   // heavy duplicates
                      BTreeSweepParam{64, 3000, 5000, 4},
                      BTreeSweepParam{5, 1500, 100, 5},   // odd order
                      BTreeSweepParam{32, 4000, 1000, 6}),
    [](const ::testing::TestParamInfo<BTreeSweepParam>& info) {
      return "order" + std::to_string(info.param.order) + "_keys" +
             std::to_string(info.param.key_space) + "_seed" +
             std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace wdoc::storage
