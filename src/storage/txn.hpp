// Transactions: strict two-phase locking over the Database with
// multigranularity locks (the table IS/IX/S/X matrix; update_column, a
// transaction's one DML, takes table IX and row X), waits-for deadlock
// detection, and before-image undo.
//
// The requester of the lock that would close a cycle in the waits-for graph
// is aborted (Errc::deadlock). Commit releases locks after logging a commit
// marker; abort rolls back via the undo log in reverse order.
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "storage/database.hpp"

namespace wdoc::storage {

enum class TxnLockMode : std::uint8_t { IS = 0, IX = 1, S = 2, X = 3 };

[[nodiscard]] const char* txn_lock_mode_name(TxnLockMode m);
[[nodiscard]] bool txn_lock_compatible(TxnLockMode held, TxnLockMode wanted);

class TransactionManager;

class Txn {
 public:
  ~Txn();
  Txn(const Txn&) = delete;
  Txn& operator=(const Txn&) = delete;

  [[nodiscard]] TxnId id() const { return id_; }
  [[nodiscard]] bool active() const { return active_; }

  // The one DML a transaction runs: table IX plus row X, then the update.
  [[nodiscard]] Status update_column(const std::string& table, RowId id,
                                     std::string_view column, Value v);

  [[nodiscard]] Status commit();
  void abort();

 private:
  friend class TransactionManager;
  Txn(TransactionManager* mgr, TxnId id) : mgr_(mgr), id_(id) {}

  TransactionManager* mgr_;
  TxnId id_;
  bool active_ = true;
};

class TransactionManager {
 public:
  explicit TransactionManager(Database& db,
                              std::chrono::milliseconds lock_timeout =
                                  std::chrono::milliseconds(5000));
  ~TransactionManager();
  TransactionManager(const TransactionManager&) = delete;
  TransactionManager& operator=(const TransactionManager&) = delete;

  [[nodiscard]] std::unique_ptr<Txn> begin();

  // Unfinished transactions: release_all erases each one as it ends.
  [[nodiscard]] std::size_t active_txns() const;
  [[nodiscard]] std::uint64_t deadlocks_detected() const { return deadlocks_; }

 private:
  friend class Txn;

  struct ResourceKey {
    std::string table;
    std::uint64_t row = 0;  // 0 = table-level
    auto operator<=>(const ResourceKey&) const = default;
  };

  struct LockState {
    std::map<std::uint64_t, TxnLockMode> holders;  // txn id -> strongest mode
  };

  // One entry per unfinished transaction; release_all erases it.
  struct TxnState {
    std::set<ResourceKey> held;
    std::vector<Mutation> undo;
  };

  class UndoSink;

  [[nodiscard]] Status acquire(TxnId txn, const ResourceKey& key, TxnLockMode mode);
  void release_all(TxnId txn);
  [[nodiscard]] bool would_deadlock(std::uint64_t waiter, const ResourceKey& key,
                                    TxnLockMode mode);
  [[nodiscard]] Status lock_table(TxnId txn, const std::string& table, TxnLockMode mode);
  [[nodiscard]] Status lock_row(TxnId txn, const std::string& table, RowId row,
                                TxnLockMode mode);

  [[nodiscard]] Status finish_commit(Txn& txn);
  void finish_abort(Txn& txn);

  Database& db_;
  std::chrono::milliseconds lock_timeout_;

  // Physical latch: serializes access to Catalog/Table internals, which are
  // not thread-safe. Logical 2PL locks provide isolation; this provides
  // memory safety. Held only for the duration of one engine call. Lock
  // order: physical_mu_ before mu_.
  std::mutex physical_mu_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<ResourceKey, LockState> locks_;
  std::map<std::uint64_t, TxnState> txns_;
  // waiter txn -> resource it is blocked on (single outstanding wait each)
  std::map<std::uint64_t, std::pair<ResourceKey, TxnLockMode>> waiting_;
  IdAllocator<TxnId> ids_;
  std::uint64_t deadlocks_ = 0;
};

}  // namespace wdoc::storage
