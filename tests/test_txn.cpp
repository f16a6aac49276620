// Transaction tests: lock compatibility matrix, commit/abort semantics,
// deadlock detection, multi-threaded isolation, and concurrent durable
// commits.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <map>
#include <mutex>
#include <set>
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
  [[nodiscard]] std::int64_t balance(RowId id) const {
    return db_->catalog().table("accounts")->get(id)->at(1).as_int();
  }
  std::unique_ptr<Database> db_;
  TransactionManager mgr_;
  RowId a_, b_;
};

// Lock waits so far, over every mode.
std::uint64_t lock_waits() {
  std::uint64_t n = 0;
  auto& reg = obs::MetricsRegistry::global();
  for (const char* mode : {"IS", "IX", "S", "X"}) {
    n += reg.counter("storage.lock_waits", {{"mode", mode}}).value();
  }
  return n;
}

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
  EXPECT_EQ(balance(a_), 90);
}

TEST_F(TxnFixture, AbortRollsBackUpdates) {
  auto txn = mgr_.begin();
  ASSERT_TRUE(txn->update_column("accounts", a_, "balance", Value(0)).is_ok());
  txn->abort();
  EXPECT_EQ(balance(a_), 100);
}

TEST_F(TxnFixture, DestructorAbortsOpenTxn) {
  {
    auto txn = mgr_.begin();
    ASSERT_TRUE(txn->update_column("accounts", a_, "balance", Value(0)).is_ok());
    // dropped without commit
  }
  EXPECT_EQ(balance(a_), 100);
}

TEST_F(TxnFixture, WriterBlocksWriterUntilTimeout) {
  auto writer = mgr_.begin();
  ASSERT_TRUE(writer->update_column("accounts", a_, "balance", Value(1)).is_ok());
  auto rival = mgr_.begin();
  EXPECT_EQ(rival->update_column("accounts", a_, "balance", Value(2)).code(),
            Errc::timeout);
  rival->abort();
  ASSERT_TRUE(writer->commit().is_ok());
  // After commit the row is writable again.
  auto next = mgr_.begin();
  ASSERT_TRUE(next->update_column("accounts", a_, "balance", Value(3)).is_ok());
  ASSERT_TRUE(next->commit().is_ok());
  EXPECT_EQ(balance(a_), 3);
}

TEST_F(TxnFixture, DisjointRowsDoNotConflict) {
  auto t1 = mgr_.begin();
  auto t2 = mgr_.begin();
  ASSERT_TRUE(t1->update_column("accounts", a_, "balance", Value(1)).is_ok());
  ASSERT_TRUE(t2->update_column("accounts", b_, "balance", Value(2)).is_ok());
  ASSERT_TRUE(t1->commit().is_ok());
  ASSERT_TRUE(t2->commit().is_ok());
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

TEST_F(TxnFixture, ConcurrentWritersLeaveOneTransactionsPair) {
  // Every transaction writes its own tag to both rows, the threads in
  // opposite orders. Strict two-phase locking, with deadlock victims rolled
  // back, leaves both rows holding the tag of one committed transaction.
  const int kThreads = 4;
  const int kOpsPerThread = 50;
  std::atomic<std::int64_t> next_tag{1000};
  std::mutex mu;
  std::set<std::int64_t> committed;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        auto txn = mgr_.begin();
        const std::int64_t tag = next_tag++;
        const RowId first = (t + i) % 2 == 0 ? a_ : b_;
        const RowId second = first == a_ ? b_ : a_;
        if (!txn->update_column("accounts", first, "balance", Value(tag)).is_ok() ||
            !txn->update_column("accounts", second, "balance", Value(tag)).is_ok()) {
          txn->abort();
          continue;
        }
        if (txn->commit().is_ok()) {
          std::lock_guard<std::mutex> g(mu);
          committed.insert(tag);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_FALSE(committed.empty());
  EXPECT_EQ(balance(a_), balance(b_));
  EXPECT_TRUE(committed.contains(balance(a_))) << balance(a_);
  EXPECT_EQ(mgr_.active_txns(), 0u);
}

TEST_F(TxnFixture, SoakRandomOpsKeepInvariants) {
  // Seed a wider table so threads mostly work on disjoint rows.
  std::map<RowId, std::int64_t> seeded{{a_, 100}, {b_, 50}};
  for (int i = 0; i < 18; ++i) {
    seeded[db_->insert("accounts", {Value("acct-" + std::to_string(i)), Value(100)})
               .expect("seed")] = 100;
  }
  std::vector<RowId> rows;
  for (const auto& [id, _] : seeded) rows.push_back(id);

  // Each transaction writes its tag to two random rows; a fifth of the
  // otherwise-good ones abort.
  std::atomic<std::int64_t> next_tag{1000};
  std::mutex mu;
  std::map<std::int64_t, std::pair<RowId, RowId>> committed;  // tag -> rows
  std::atomic<int> aborts{0};
  auto worker = [&](std::uint64_t seed) {
    Rng rng(seed);
    for (int op = 0; op < 120; ++op) {
      const RowId from = rows[rng.uniform(rows.size())];
      const RowId to = rows[rng.uniform(rows.size())];
      if (from == to) continue;
      auto txn = mgr_.begin();
      const std::int64_t tag = next_tag++;
      const bool ok =
          txn->update_column("accounts", from, "balance", Value(tag)).is_ok() &&
          txn->update_column("accounts", to, "balance", Value(tag)).is_ok();
      if (!ok || rng.bernoulli(0.2)) {
        txn->abort();
        ++aborts;
      } else if (txn->commit().is_ok()) {
        std::lock_guard<std::mutex> g(mu);
        committed[tag] = {from, to};
      }
    }
  };
  std::vector<std::thread> threads;
  for (std::uint64_t t = 0; t < 4; ++t) threads.emplace_back(worker, t + 1);
  for (auto& th : threads) th.join();

  // Every abort rolled back completely: each row holds its seed or the tag
  // of a committed transaction that wrote it.
  db_->catalog().table("accounts")->scan([&](RowId id, const std::vector<Value>& row) {
    const std::int64_t v = row[1].as_int();
    if (v == seeded.at(id)) return true;
    auto it = committed.find(v);
    EXPECT_TRUE(it != committed.end() &&
                (it->second.first == id || it->second.second == id))
        << "row " << id.value() << " holds " << v;
    return true;
  });
  EXPECT_FALSE(committed.empty());
  EXPECT_GT(aborts.load(), 0);
  EXPECT_EQ(mgr_.active_txns(), 0u);
}

TEST_F(TxnFixture, LocksReleasedAfterCommit) {
  auto txn = mgr_.begin();
  ASSERT_TRUE(txn->update_column("accounts", a_, "balance", Value(1)).is_ok());
  ASSERT_TRUE(txn->commit().is_ok());
  // Nothing is left held: the next writer of the row never waits.
  const std::uint64_t waits_before = lock_waits();
  auto next = mgr_.begin();
  ASSERT_TRUE(next->update_column("accounts", a_, "balance", Value(2)).is_ok());
  ASSERT_TRUE(next->commit().is_ok());
  EXPECT_EQ(lock_waits(), waits_before);
  EXPECT_EQ(mgr_.active_txns(), 0u);
}

TEST_F(TxnFixture, BlockedWriterWakesAfterHolderCommits) {
  // T1's commit erases the row's lock entry (its last holder leaves) while
  // T2 sleeps on it; T2's wake must look the entry up afresh.
  TransactionManager mgr(*db_, std::chrono::seconds(10));
  obs::Counter& x_waits =
      obs::MetricsRegistry::global().counter("storage.lock_waits", {{"mode", "X"}});
  const std::uint64_t waits_before = x_waits.value();
  auto t1 = mgr.begin();
  ASSERT_TRUE(t1->update_column("accounts", a_, "balance", Value(7)).is_ok());
  Status second = Status::ok();
  std::thread writer([&] {
    auto t2 = mgr.begin();
    second = t2->update_column("accounts", a_, "balance", Value(8));  // blocks on T1's X
    if (second.is_ok()) second = t2->commit();
  });
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (x_waits.value() == waits_before && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::yield();
  }
  EXPECT_GT(x_waits.value(), waits_before) << "second writer never blocked";
  EXPECT_TRUE(t1->commit().is_ok());
  writer.join();
  EXPECT_TRUE(second.is_ok()) << second.message();
  EXPECT_EQ(balance(a_), 8);
  // Finished transactions are pruned, not kept as inactive history.
  EXPECT_EQ(mgr.active_txns(), 0u);
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
    EXPECT_EQ(t->get(rows[i])->at(1).as_int(), last[i]) << "row " << i;
  }
  db.reset();
  fs::remove_all(dir);
}

}  // namespace
}  // namespace wdoc::storage
