// Database: a catalog with optional durability (WAL + snapshot checkpoint).
//
// Open modes:
//   - in_memory(): no files, no logging.
//   - open(dir): loads <dir>/snapshot.db if present, replays the intact
//     prefix of <dir>/wal.log, then appends new mutations right after it.
//     checkpoint() collapses the WAL into a fresh snapshot. Destruction
//     writes the WAL's buffered frames and trims its zero tail.
//
// Thread safety: Database itself is not synchronized (its WAL is); concurrent
// access is mediated by TransactionManager (txn.hpp).
#pragma once

#include <memory>
#include <string>

#include "storage/catalog.hpp"
#include "storage/query.hpp"
#include "storage/wal.hpp"

namespace wdoc::storage {

class Database : private MutationSink {
 public:
  [[nodiscard]] static std::unique_ptr<Database> in_memory();
  [[nodiscard]] static Result<std::unique_ptr<Database>> open(const std::string& dir);

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  [[nodiscard]] Catalog& catalog() { return catalog_; }
  [[nodiscard]] const Catalog& catalog() const { return catalog_; }

  // Logged DDL.
  [[nodiscard]] Status create_table(Schema schema);
  [[nodiscard]] Status drop_table(const std::string& name);

  // Autocommit DML (logged with txn id 0). For transactional DML use
  // TransactionManager.
  [[nodiscard]] Result<RowId> insert(const std::string& table, std::vector<Value> row);
  [[nodiscard]] Status update(const std::string& table, RowId id, std::vector<Value> row);
  [[nodiscard]] Status update_column(const std::string& table, RowId id,
                                     std::string_view column, Value v);
  [[nodiscard]] Status erase(const std::string& table, RowId id);

  [[nodiscard]] Query query(const std::string& table) const;

  // Writes a snapshot and truncates the WAL.
  [[nodiscard]] Status checkpoint();
  [[nodiscard]] Status flush();

  // Auto-checkpoint once the WAL exceeds `bytes` (0 disables, the default).
  // Checked after each autocommit mutation and each transaction commit.
  void set_auto_checkpoint(std::uint64_t bytes) { auto_checkpoint_bytes_ = bytes; }
  // Runs a checkpoint if the policy says so. Called internally; exposed for
  // TransactionManager.
  [[nodiscard]] Status maybe_checkpoint();

  [[nodiscard]] bool durable() const { return durable_; }
  [[nodiscard]] const std::string& dir() const { return dir_; }

  // Used by TransactionManager to log txn-scoped records.
  [[nodiscard]] Status log(const LogRecord& rec);

 private:
  Database() = default;
  void on_mutation(const Mutation& m) override;

  Catalog catalog_;
  Wal wal_;
  std::string dir_;
  bool durable_ = false;
  std::uint64_t auto_checkpoint_bytes_ = 0;
};

}  // namespace wdoc::storage
