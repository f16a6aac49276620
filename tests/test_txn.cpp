// Transaction tests: lock compatibility matrix, commit/abort semantics,
// undo of cascades, deadlock detection, multi-threaded isolation, and
// concurrent durable commits.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <thread>

#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "storage/txn.hpp"

namespace wdoc::storage {
namespace {

Schema accounts_schema() {
  return Schema("accounts",
                {Column{"name", ValueType::text, false, false, false},
                 Column{"balance", ValueType::integer, false, false, false}},
                "name");
}

class TxnFixture : public ::testing::Test {
 protected:
  TxnFixture() : db_(Database::in_memory()), mgr_(*db_, std::chrono::milliseconds(200)) {
    db_->create_table(accounts_schema()).expect("create accounts");
    a_ = db_->insert("accounts", {Value("alice"), Value(100)}).expect("seed a");
    b_ = db_->insert("accounts", {Value("bob"), Value(50)}).expect("seed b");
  }
  std::unique_ptr<Database> db_;
  TransactionManager mgr_;
  RowId a_, b_;
};

TEST(TxnLockMode, CompatibilityMatrix) {
  using M = TxnLockMode;
  EXPECT_TRUE(txn_lock_compatible(M::IS, M::IS));
  EXPECT_TRUE(txn_lock_compatible(M::IS, M::IX));
  EXPECT_TRUE(txn_lock_compatible(M::IS, M::S));
  EXPECT_FALSE(txn_lock_compatible(M::IS, M::X));
  EXPECT_TRUE(txn_lock_compatible(M::IX, M::IX));
  EXPECT_FALSE(txn_lock_compatible(M::IX, M::S));
  EXPECT_TRUE(txn_lock_compatible(M::S, M::S));
  EXPECT_FALSE(txn_lock_compatible(M::S, M::X));
  EXPECT_FALSE(txn_lock_compatible(M::X, M::IS));
  EXPECT_FALSE(txn_lock_compatible(M::X, M::X));
}

TEST_F(TxnFixture, CommitMakesChangesVisible) {
  auto txn = mgr_.begin();
  ASSERT_TRUE(txn->update_column("accounts", a_, "balance", Value(90)).is_ok());
  ASSERT_TRUE(txn->commit().is_ok());
  EXPECT_EQ(db_->catalog().table("accounts")->cell(a_, "balance").as_int(), 90);
}

TEST_F(TxnFixture, AbortRollsBackUpdates) {
  auto txn = mgr_.begin();
  ASSERT_TRUE(txn->update_column("accounts", a_, "balance", Value(0)).is_ok());
  txn->abort();
  EXPECT_EQ(db_->catalog().table("accounts")->cell(a_, "balance").as_int(), 100);
}

TEST_F(TxnFixture, AbortRollsBackInsertsAndErases) {
  auto txn = mgr_.begin();
  auto id = txn->insert("accounts", {Value("carol"), Value(10)});
  ASSERT_TRUE(id.is_ok());
  ASSERT_TRUE(txn->erase("accounts", b_).is_ok());
  txn->abort();
  EXPECT_EQ(db_->catalog().table("accounts")->row_count(), 2u);
  EXPECT_TRUE(db_->catalog().table("accounts")->exists(b_));
  EXPECT_FALSE(
      db_->catalog().table("accounts")->find_unique("name", Value("carol")).has_value());
}

TEST_F(TxnFixture, DestructorAbortsOpenTxn) {
  {
    auto txn = mgr_.begin();
    ASSERT_TRUE(txn->update_column("accounts", a_, "balance", Value(0)).is_ok());
    // dropped without commit
  }
  EXPECT_EQ(db_->catalog().table("accounts")->cell(a_, "balance").as_int(), 100);
}

TEST_F(TxnFixture, AbortUndoesCascadedDeletes) {
  Schema loans("loans",
               {Column{"id", ValueType::integer, false, true, false},
                Column{"owner", ValueType::text, false, false, true}},
               "", {ForeignKey{"owner", "accounts", "name", RefAction::cascade}});
  ASSERT_TRUE(db_->create_table(loans).is_ok());
  ASSERT_TRUE(db_->insert("loans", {Value(1), Value("alice")}).is_ok());
  ASSERT_TRUE(db_->insert("loans", {Value(2), Value("alice")}).is_ok());

  auto txn = mgr_.begin();
  ASSERT_TRUE(txn->erase("accounts", a_).is_ok());
  EXPECT_EQ(db_->catalog().table("loans")->row_count(), 0u);
  txn->abort();
  EXPECT_EQ(db_->catalog().table("loans")->row_count(), 2u);
  EXPECT_TRUE(db_->catalog().table("accounts")->exists(a_));
}

TEST_F(TxnFixture, ReadersShareRowLocks) {
  auto t1 = mgr_.begin();
  auto t2 = mgr_.begin();
  ASSERT_TRUE(t1->get("accounts", a_).is_ok());
  ASSERT_TRUE(t2->get("accounts", a_).is_ok());
  ASSERT_TRUE(t1->commit().is_ok());
  ASSERT_TRUE(t2->commit().is_ok());
}

TEST_F(TxnFixture, WriterBlocksReaderUntilTimeout) {
  auto writer = mgr_.begin();
  ASSERT_TRUE(writer->update_column("accounts", a_, "balance", Value(1)).is_ok());
  auto reader = mgr_.begin();
  auto r = reader->get("accounts", a_);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.code(), Errc::timeout);
  ASSERT_TRUE(writer->commit().is_ok());
  // After commit the row is readable again.
  auto reader2 = mgr_.begin();
  EXPECT_TRUE(reader2->get("accounts", a_).is_ok());
  EXPECT_EQ(reader2->get("accounts", a_).value()[1].as_int(), 1);
}

TEST_F(TxnFixture, DisjointRowsDoNotConflict) {
  auto t1 = mgr_.begin();
  auto t2 = mgr_.begin();
  ASSERT_TRUE(t1->update_column("accounts", a_, "balance", Value(1)).is_ok());
  ASSERT_TRUE(t2->update_column("accounts", b_, "balance", Value(2)).is_ok());
  ASSERT_TRUE(t1->commit().is_ok());
  ASSERT_TRUE(t2->commit().is_ok());
}

TEST_F(TxnFixture, TableScanBlocksWriters) {
  auto scanner = mgr_.begin();
  ASSERT_TRUE(scanner->find_equal("accounts", "name", Value("alice")).is_ok());
  auto writer = mgr_.begin();
  auto r = writer->update_column("accounts", a_, "balance", Value(5));
  EXPECT_FALSE(r.is_ok());  // S table lock vs IX: incompatible
  ASSERT_TRUE(scanner->commit().is_ok());
}

TEST_F(TxnFixture, DeadlockDetectedAndVictimized) {
  std::atomic<int> deadlocks{0};
  std::atomic<int> committed{0};

  // t1 locks a then b; t2 locks b then a. One of them must be the victim.
  auto worker = [&](RowId first, RowId second) {
    auto txn = mgr_.begin();
    if (!txn->update_column("accounts", first, "balance", Value(1)).is_ok()) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    Status s = txn->update_column("accounts", second, "balance", Value(2));
    if (s.code() == Errc::deadlock || s.code() == Errc::timeout) {
      ++deadlocks;
      txn->abort();
      return;
    }
    if (txn->commit().is_ok()) ++committed;
  };
  std::thread th1(worker, a_, b_);
  std::thread th2(worker, b_, a_);
  th1.join();
  th2.join();
  EXPECT_GE(deadlocks.load(), 1);
  EXPECT_GE(committed.load(), 1);
  EXPECT_GE(mgr_.deadlocks_detected(), 1u);
}

TEST_F(TxnFixture, ConcurrentTransfersPreserveTotalBalance) {
  const int kThreads = 4;
  const int kOpsPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        auto txn = mgr_.begin();
        RowId from = (t + i) % 2 == 0 ? a_ : b_;
        RowId to = from == a_ ? b_ : a_;
        auto from_row = txn->get("accounts", from);
        if (!from_row.is_ok()) {
          txn->abort();
          continue;
        }
        auto to_row = txn->get("accounts", to);
        if (!to_row.is_ok()) {
          txn->abort();
          continue;
        }
        std::int64_t amount = 1;
        if (!txn->update_column("accounts", from, "balance",
                                Value(from_row.value()[1].as_int() - amount))
                 .is_ok() ||
            !txn->update_column("accounts", to, "balance",
                                Value(to_row.value()[1].as_int() + amount))
                 .is_ok()) {
          txn->abort();
          continue;
        }
        (void)txn->commit();
      }
    });
  }
  for (auto& th : threads) th.join();
  std::int64_t total =
      db_->catalog().table("accounts")->cell(a_, "balance").as_int() +
      db_->catalog().table("accounts")->cell(b_, "balance").as_int();
  EXPECT_EQ(total, 150);
}

TEST_F(TxnFixture, SoakRandomOpsKeepInvariants) {
  // Seed a wider table so threads mostly work on disjoint rows.
  std::vector<RowId> rows{a_, b_};
  for (int i = 0; i < 18; ++i) {
    rows.push_back(
        db_->insert("accounts", {Value("acct-" + std::to_string(i)), Value(100)})
            .expect("seed"));
  }
  const std::int64_t initial_total = 100 * 18 + 150;

  std::atomic<int> commits{0}, aborts{0};
  auto worker = [&](std::uint64_t seed) {
    Rng rng(seed);
    for (int op = 0; op < 120; ++op) {
      auto txn = mgr_.begin();
      RowId from = rows[rng.uniform(rows.size())];
      RowId to = rows[rng.uniform(rows.size())];
      if (from == to) {
        txn->abort();
        continue;
      }
      auto fr = txn->get("accounts", from);
      auto tr = txn->get("accounts", to);
      if (!fr.is_ok() || !tr.is_ok()) {
        txn->abort();
        ++aborts;
        continue;
      }
      std::int64_t amount = rng.uniform_range(1, 5);
      bool ok =
          txn->update_column("accounts", from, "balance",
                             Value(fr.value()[1].as_int() - amount))
              .is_ok() &&
          txn->update_column("accounts", to, "balance",
                             Value(tr.value()[1].as_int() + amount))
              .is_ok();
      // Randomly abort some otherwise-good transactions too.
      if (!ok || rng.bernoulli(0.2)) {
        txn->abort();
        ++aborts;
      } else if (txn->commit().is_ok()) {
        ++commits;
      }
    }
  };
  std::vector<std::thread> threads;
  for (std::uint64_t t = 0; t < 4; ++t) threads.emplace_back(worker, t + 1);
  for (auto& th : threads) th.join();

  // Conservation: every committed transfer is balance-neutral; every abort
  // rolled back completely.
  std::int64_t total = 0;
  db_->catalog().table("accounts")->scan(
      [&](RowId, const std::vector<Value>& row) {
        total += row[1].as_int();
        return true;
      });
  EXPECT_EQ(total, initial_total);
  EXPECT_GT(commits.load(), 0);
  EXPECT_GT(aborts.load(), 0);
  EXPECT_EQ(mgr_.active_txns(), 0u);
}

TEST_F(TxnFixture, LocksReleasedAfterCommit) {
  auto txn = mgr_.begin();
  ASSERT_TRUE(txn->get("accounts", a_).is_ok());
  TxnId id = txn->id();
  EXPECT_GT(mgr_.held_locks(id), 0u);
  ASSERT_TRUE(txn->commit().is_ok());
  EXPECT_EQ(mgr_.held_locks(id), 0u);
}

TEST_F(TxnFixture, BlockedReaderWakesAfterHolderCommits) {
  // T1's commit erases the row's lock entry (its last holder leaves) while
  // T2 sleeps on it; T2's wake must look the entry up afresh.
  TransactionManager mgr(*db_, std::chrono::seconds(10));
  obs::Counter& s_waits =
      obs::MetricsRegistry::global().counter("storage.lock_waits", {{"mode", "S"}});
  const std::uint64_t waits_before = s_waits.value();
  auto t1 = mgr.begin();
  ASSERT_TRUE(t1->update_column("accounts", a_, "balance", Value(7)).is_ok());
  std::int64_t seen = -1;
  std::thread reader([&] {
    auto t2 = mgr.begin();
    auto row = t2->get("accounts", a_);  // blocks: T1 holds the row X
    if (row.is_ok()) seen = row.value()[1].as_int();
    (void)t2->commit();
  });
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (s_waits.value() == waits_before && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::yield();
  }
  EXPECT_GT(s_waits.value(), waits_before) << "reader never blocked";
  EXPECT_TRUE(t1->commit().is_ok());
  reader.join();
  EXPECT_EQ(seen, 7);
  // Finished transactions are pruned, not kept as inactive history.
  EXPECT_EQ(mgr.active_txns(), 0u);
  EXPECT_EQ(mgr.held_locks(t1->id()), 0u);
}

TEST_F(TxnFixture, UniqueViolationInsideTxnSurfacesCleanly) {
  auto txn = mgr_.begin();
  auto dup = txn->insert("accounts", {Value("alice"), Value(1)});
  EXPECT_EQ(dup.code(), Errc::constraint_violation);
  // The txn is still usable and abortable.
  ASSERT_TRUE(txn->update_column("accounts", b_, "balance", Value(60)).is_ok());
  ASSERT_TRUE(txn->commit().is_ok());
  EXPECT_EQ(db_->catalog().table("accounts")->cell(b_, "balance").as_int(), 60);
}

// Committers on disjoint rows of a durable database. begin, DML and commit
// reach the one WAL under different engine locks (mu_, physical_mu_, none),
// so the log must keep every frame whole and in order by itself. After a
// reopen, each row holds the value of its last committed transaction.
TEST(DurableTxn, ConcurrentCommittersKeepTheirLastValuesAcrossReopen) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("wdoc-durable-txn-" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  constexpr std::size_t kCommitters = 3;
  constexpr std::size_t kRowsEach = 4;
  constexpr std::int64_t kTxnsEach = 150;

  std::vector<RowId> rows;  // committer c owns rows [c * kRowsEach, (c + 1) * kRowsEach)
  std::vector<std::int64_t> last(kCommitters * kRowsEach, 0);
  {
    auto db = Database::open(dir.string()).expect("open");
    db->create_table(accounts_schema()).expect("create accounts");
    for (std::size_t i = 0; i < kCommitters * kRowsEach; ++i) {
      rows.push_back(
          db->insert("accounts", {Value("acct-" + std::to_string(i)), Value(0)})
              .expect("seed"));
    }
    TransactionManager mgr(*db);
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kCommitters; ++c) {
      threads.emplace_back([&, c] {
        for (std::int64_t k = 0; k < kTxnsEach; ++k) {
          const std::size_t row = c * kRowsEach + static_cast<std::size_t>(k) % kRowsEach;
          const std::int64_t value = static_cast<std::int64_t>(c) * 1'000'000 + k + 1;
          auto txn = mgr.begin();
          if (!txn->update_column("accounts", rows[row], "balance", Value(value)).is_ok() ||
              !txn->commit().is_ok()) {
            ++failures;
            return;
          }
          last[row] = value;
        }
      });
    }
    for (auto& th : threads) th.join();
    ASSERT_EQ(failures.load(), 0);
  }

  auto db = Database::open(dir.string()).expect("reopen");
  const Table* t = db->catalog().table("accounts");
  ASSERT_NE(t, nullptr);
  ASSERT_EQ(t->row_count(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(t->cell(rows[i], "balance").as_int(), last[i]) << "row " << i;
  }
  db.reset();
  fs::remove_all(dir);
}

}  // namespace
}  // namespace wdoc::storage
