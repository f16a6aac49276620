// Model-based property tests for the storage engine:
//   * randomized insert/update/erase streams against a reference map, with
//     FK cascade semantics cross-checked structurally;
//   * WAL corruption fuzzing: flip any byte, recovery must never crash and
//     must yield a prefix of the committed history; flips in a crash image's
//     zero tail must leave every frame;
//   * snapshot round-trip equivalence under random content.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <map>

#include "common/rng.hpp"
#include "storage/txn.hpp"
#include "storage/wal.hpp"

namespace wdoc::storage {
namespace {

namespace fs = std::filesystem;

Schema people_schema() {
  return Schema("people",
                {Column{"name", ValueType::text, false, false, false},
                 Column{"age", ValueType::integer, true, false, true},
                 Column{"bio", ValueType::text, true, false, false}},
                "name");
}

Schema pets_schema(RefAction action) {
  return Schema("pets",
                {Column{"pet", ValueType::text, false, false, false},
                 Column{"owner", ValueType::text, true, false, true}},
                "pet", {ForeignKey{"owner", "people", "name", action}});
}

struct SweepParam {
  std::uint64_t seed;
  std::size_t ops;
  RefAction action;
};

class CatalogModel : public ::testing::TestWithParam<SweepParam> {};

TEST_P(CatalogModel, RandomOpsAgreeWithReferenceModel) {
  const SweepParam p = GetParam();
  Catalog catalog;
  ASSERT_TRUE(catalog.create_table(people_schema()).is_ok());
  ASSERT_TRUE(catalog.create_table(pets_schema(p.action)).is_ok());

  // Reference model: person name -> age; pet name -> owner (or nullopt).
  std::map<std::string, std::int64_t> people;
  std::map<std::string, std::optional<std::string>> pets;
  Rng rng(p.seed);
  auto person_name = [&](std::uint64_t i) { return "p" + std::to_string(i); };
  auto pet_name = [&](std::uint64_t i) { return "a" + std::to_string(i); };

  for (std::size_t op = 0; op < p.ops; ++op) {
    double u = rng.uniform01();
    if (u < 0.3) {
      // Insert person.
      std::string name = person_name(rng.uniform(40));
      std::int64_t age = rng.uniform_range(1, 99);
      auto r = catalog.insert("people", {Value(name), Value(age), Value("bio")});
      if (people.contains(name)) {
        EXPECT_EQ(r.code(), Errc::constraint_violation);
      } else {
        ASSERT_TRUE(r.is_ok());
        people[name] = age;
      }
    } else if (u < 0.55) {
      // Insert pet with a random (maybe missing) owner.
      std::string pet = pet_name(rng.uniform(60));
      bool orphan = rng.bernoulli(0.2);
      std::string owner = person_name(rng.uniform(40));
      auto r = catalog.insert(
          "pets", {Value(pet), orphan ? Value::null() : Value(owner)});
      if (pets.contains(pet)) {
        EXPECT_EQ(r.code(), Errc::constraint_violation);
      } else if (!orphan && !people.contains(owner)) {
        EXPECT_EQ(r.code(), Errc::constraint_violation);
      } else {
        ASSERT_TRUE(r.is_ok());
        pets[pet] = orphan ? std::nullopt : std::optional<std::string>(owner);
      }
    } else if (u < 0.75) {
      // Update a person's age.
      std::string name = person_name(rng.uniform(40));
      auto rid = catalog.table("people")->find_unique("name", Value(name));
      if (rid) {
        std::int64_t age = rng.uniform_range(1, 99);
        ASSERT_TRUE(catalog.update_column("people", *rid, "age", Value(age)).is_ok());
        people[name] = age;
      }
    } else {
      // Erase a person; the model applies the FK action.
      std::string name = person_name(rng.uniform(40));
      auto rid = catalog.table("people")->find_unique("name", Value(name));
      if (!rid) continue;
      bool referenced = false;
      for (const auto& [pet, owner] : pets) {
        if (owner == name) referenced = true;
      }
      Status s = catalog.erase("people", *rid);
      switch (p.action) {
        case RefAction::restrict:
          if (referenced) {
            EXPECT_EQ(s.code(), Errc::constraint_violation);
          } else {
            ASSERT_TRUE(s.is_ok());
            people.erase(name);
          }
          break;
        case RefAction::cascade:
          ASSERT_TRUE(s.is_ok());
          people.erase(name);
          for (auto it = pets.begin(); it != pets.end();) {
            it = it->second == name ? pets.erase(it) : std::next(it);
          }
          break;
        case RefAction::set_null:
          ASSERT_TRUE(s.is_ok());
          people.erase(name);
          for (auto& [pet, owner] : pets) {
            if (owner == name) owner = std::nullopt;
          }
          break;
      }
    }
  }

  // Final state equivalence.
  ASSERT_EQ(catalog.table("people")->row_count(), people.size());
  ASSERT_EQ(catalog.table("pets")->row_count(), pets.size());
  for (const auto& [name, age] : people) {
    auto rid = catalog.table("people")->find_unique("name", Value(name));
    ASSERT_TRUE(rid.has_value()) << name;
    EXPECT_EQ(catalog.table("people")->get(*rid)->at(1).as_int(), age);
  }
  for (const auto& [pet, owner] : pets) {
    auto rid = catalog.table("pets")->find_unique("pet", Value(pet));
    ASSERT_TRUE(rid.has_value()) << pet;
    Value got = catalog.table("pets")->get(*rid)->at(1);
    if (owner) {
      EXPECT_EQ(got, Value(*owner));
    } else {
      EXPECT_TRUE(got.is_null());
    }
  }
  // Secondary index agrees with a full scan for every age bucket.
  for (std::int64_t age = 1; age < 100; ++age) {
    std::size_t expected = 0;
    for (const auto& [_, a] : people) {
      if (a == age) ++expected;
    }
    EXPECT_EQ(catalog.table("people")->find_equal("age", Value(age)).size(), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CatalogModel,
    ::testing::Values(SweepParam{1, 1500, RefAction::restrict},
                      SweepParam{2, 1500, RefAction::cascade},
                      SweepParam{3, 1500, RefAction::set_null},
                      SweepParam{4, 3000, RefAction::cascade},
                      SweepParam{5, 3000, RefAction::restrict}),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      const RefAction a = info.param.action;
      return "seed" + std::to_string(info.param.seed) + "_" +
             (a == RefAction::restrict ? "restrict"
              : a == RefAction::cascade ? "cascade"
                                        : "set_null");
    });

// --- WAL corruption fuzzing ---------------------------------------------------

class WalFuzz : public ::testing::TestWithParam<std::uint64_t> {};

// A healthy log of 31 frames: the people table's create_table, then 30
// autocommit inserts.
void append_people_log(Wal& wal) {
  LogRecord create;
  create.kind = LogKind::create_table;
  create.table = "people";
  create.schema = people_schema();
  ASSERT_TRUE(wal.append(create).is_ok());
  for (int i = 0; i < 30; ++i) {
    LogRecord rec;
    rec.kind = LogKind::insert;
    rec.table = "people";
    rec.row = RowId{static_cast<std::uint64_t>(i + 1)};
    rec.after = {Value("p" + std::to_string(i)), Value(i), Value("bio")};
    ASSERT_TRUE(wal.append(rec).is_ok());
  }
}

TEST_P(WalFuzz, BitFlipsNeverCrashRecovery) {
  const std::uint64_t seed = GetParam();
  fs::path dir = fs::temp_directory_path() /
                 ("wdoc-fuzz-" + std::to_string(::getpid()) + "-" +
                  std::to_string(seed));
  fs::create_directories(dir);
  std::string wal_path = (dir / "wal.log").string();

  // Write a healthy log of 30 autocommit inserts.
  {
    Wal wal;
    ASSERT_TRUE(wal.open(wal_path).is_ok());
    append_people_log(wal);
    ASSERT_TRUE(wal.sync().is_ok());
  }
  const auto healthy = Wal().open(wal_path).expect("healthy read");
  ASSERT_EQ(healthy.size(), 31u);

  // Flip random single bytes at random offsets; recovery must not crash and
  // must replay cleanly into a fresh catalog.
  Rng rng(seed);
  std::uintmax_t size = fs::file_size(wal_path);
  for (int trial = 0; trial < 40; ++trial) {
    fs::path mutated = dir / ("mutated-" + std::to_string(trial));
    fs::copy_file(wal_path, mutated, fs::copy_options::overwrite_existing);
    {
      std::FILE* f = std::fopen(mutated.c_str(), "rb+");
      ASSERT_NE(f, nullptr);
      long offset = static_cast<long>(rng.uniform(size));
      std::fseek(f, offset, SEEK_SET);
      int c = std::fgetc(f);
      std::fseek(f, -1, SEEK_CUR);
      std::fputc(c ^ static_cast<int>(1 + rng.uniform(255)), f);
      std::fclose(f);
    }
    // Recovery's own scan: a torn or corrupt tail ends it, never throws.
    auto records = Wal().open(mutated.string());
    ASSERT_TRUE(records.is_ok());
    ASSERT_LE(records.value().size(), healthy.size());
    // What survives must be a prefix of the healthy history.
    for (std::size_t i = 0; i < records.value().size(); ++i) {
      EXPECT_EQ(records.value()[i].encode(), healthy[i].encode()) << "record " << i;
    }
    // Replay of any prefix must succeed into an empty catalog (the table
    // create is record 0; if it was clobbered the prefix is empty).
    Catalog catalog;
    Status replayed = Wal::replay(records.value(), catalog);
    EXPECT_TRUE(replayed.is_ok()) << replayed.message();
  }
  fs::remove_all(dir);
}

// A crash leaves on disk the zeros that sync() wrote ahead of the log's end
// (only close() trims them). Flipping bytes there must not add, drop or
// change a record.
TEST_P(WalFuzz, TailFlipsInACrashImageKeepEveryFrame) {
  const std::uint64_t seed = GetParam();
  fs::path dir = fs::temp_directory_path() /
                 ("wdoc-fuzz-tail-" + std::to_string(::getpid()) + "-" +
                  std::to_string(seed));
  fs::create_directories(dir);
  const fs::path wal_path = dir / "wal.log";
  const fs::path image = dir / "crash.log";
  std::uint64_t log_end = 0;
  {
    Wal wal;
    ASSERT_TRUE(wal.open(wal_path.string()).is_ok());
    append_people_log(wal);
    ASSERT_TRUE(wal.sync().is_ok());
    fs::copy_file(wal_path, image);  // while the log is open, as a crash finds it
    log_end = wal.bytes_appended();
  }
  const auto healthy = Wal().open(wal_path.string()).expect("healthy read");
  ASSERT_EQ(healthy.size(), 31u);
  const std::uintmax_t size = fs::file_size(image);
  ASSERT_GT(size, log_end) << "no zero tail in the crash image";

  Rng rng(seed);
  for (int trial = 0; trial < 40; ++trial) {
    fs::path mutated = dir / ("mutated-" + std::to_string(trial));
    fs::copy_file(image, mutated, fs::copy_options::overwrite_existing);
    {
      std::FILE* f = std::fopen(mutated.c_str(), "rb+");
      ASSERT_NE(f, nullptr);
      for (std::uint64_t flips = 1 + rng.uniform(3); flips > 0; --flips) {
        long offset = static_cast<long>(log_end + rng.uniform(size - log_end));
        std::fseek(f, offset, SEEK_SET);
        int c = std::fgetc(f);
        std::fseek(f, -1, SEEK_CUR);
        std::fputc(c ^ static_cast<int>(1 + rng.uniform(255)), f);
      }
      std::fclose(f);
    }
    auto records = Wal().open(mutated.string());
    ASSERT_TRUE(records.is_ok());
    ASSERT_EQ(records.value().size(), healthy.size()) << "trial " << trial;
    for (std::size_t i = 0; i < healthy.size(); ++i) {
      EXPECT_EQ(records.value()[i].encode(), healthy[i].encode()) << "record " << i;
    }
  }
  fs::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WalFuzz, ::testing::Values(11u, 22u, 33u),
                         [](const ::testing::TestParamInfo<std::uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

// --- snapshot equivalence under random content ---------------------------------

TEST(SnapshotProperty, RandomCatalogRoundTripsExactly) {
  fs::path dir = fs::temp_directory_path() /
                 ("wdoc-snapprop-" + std::to_string(::getpid()));
  fs::create_directories(dir);
  std::string path = (dir / "snap.db").string();

  Rng rng(99);
  Catalog original;
  ASSERT_TRUE(original.create_table(people_schema()).is_ok());
  ASSERT_TRUE(original.create_table(pets_schema(RefAction::set_null)).is_ok());
  for (int i = 0; i < 300; ++i) {
    std::string name = "p" + std::to_string(i);
    ASSERT_TRUE(original
                    .insert("people",
                            {Value(name), Value(rng.uniform_range(0, 100)),
                             rng.bernoulli(0.2)
                                 ? Value::null()
                                 : Value(std::string(rng.uniform(50), 'x'))})
                    .is_ok());
    if (rng.bernoulli(0.5)) {
      ASSERT_TRUE(original
                      .insert("pets", {Value("a" + std::to_string(i)), Value(name)})
                      .is_ok());
    }
  }
  // Random deletions to fragment row ids.
  for (int i = 0; i < 80; ++i) {
    auto rid = original.table("people")->find_unique(
        "name", Value("p" + std::to_string(rng.uniform(300))));
    if (rid) (void)original.erase("people", *rid);
  }

  ASSERT_TRUE(save_snapshot(original, path).is_ok());
  Catalog loaded;
  ASSERT_TRUE(load_snapshot(path, loaded).is_ok());

  for (const char* table : {"people", "pets"}) {
    ASSERT_EQ(loaded.table(table)->row_count(), original.table(table)->row_count());
    original.table(table)->scan([&](RowId id, const std::vector<Value>& row) {
      const auto* other = loaded.table(table)->get(id);
      EXPECT_NE(other, nullptr);
      if (other != nullptr) {
        EXPECT_EQ(*other, row);
      }
      return true;
    });
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace wdoc::storage
