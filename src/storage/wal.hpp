// Write-ahead log and snapshot persistence for the storage engine.
//
// The WAL stores logical records (insert/update/erase + txn markers) with
// per-record checksums; recovery tolerates a torn tail by stopping at the
// first bad frame. A snapshot serializes the full catalog; `Database`
// (database.hpp) combines the two with checkpointing.
#pragma once

#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "common/serialize.hpp"
#include "storage/catalog.hpp"

namespace wdoc::storage {

enum class LogKind : std::uint8_t {
  begin = 1,
  commit = 2,
  abort = 3,
  insert = 4,
  update = 5,
  erase = 6,
  create_table = 7,
  drop_table = 8,
};

struct LogRecord {
  LogKind kind = LogKind::begin;
  std::uint64_t txn = 0;  // 0 = autocommit (always applied)
  std::string table;
  RowId row;
  std::vector<Value> before;  // update/erase
  std::vector<Value> after;   // insert/update
  std::optional<Schema> schema;  // create_table

  // The insert/update/erase record of an applied row mutation, logged by
  // transaction `txn` (0 = autocommit).
  [[nodiscard]] static LogRecord of(const Mutation& m, std::uint64_t txn);

  [[nodiscard]] Bytes encode() const;
  [[nodiscard]] static Result<LogRecord> decode(const Bytes& frame);
};

class Wal {
 public:
  Wal() = default;
  ~Wal();
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  [[nodiscard]] Status open(const std::string& path, bool truncate = false);
  void close();
  [[nodiscard]] bool is_open() const { return file_ != nullptr; }

  [[nodiscard]] Status append(const LogRecord& record);
  [[nodiscard]] Status sync();

  // Bytes appended since open(); resets when the log is truncated.
  [[nodiscard]] std::uint64_t bytes_appended() const { return bytes_appended_; }

  // Reads every intact frame; a torn/corrupt tail ends the scan cleanly.
  [[nodiscard]] static Result<std::vector<LogRecord>> read_all(const std::string& path);

  // Replays a log into a catalog: ops from committed transactions (and
  // autocommit ops) are applied in log order.
  [[nodiscard]] static Status replay(const std::vector<LogRecord>& records, Catalog& catalog);

 private:
  std::FILE* file_ = nullptr;
  std::string path_;
  std::uint64_t bytes_appended_ = 0;
};

// Snapshot of a full catalog (schemas + rows with their ids).
[[nodiscard]] Status save_snapshot(const Catalog& catalog, const std::string& path);
[[nodiscard]] Status load_snapshot(const std::string& path, Catalog& catalog);

}  // namespace wdoc::storage
